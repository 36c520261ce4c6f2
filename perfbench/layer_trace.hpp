// Host-clock layer tracing for the benchmark's traced run.
//
// Everything here lives in the benchmark, outside the program: spans are
// taken around calls into each layer's public functions, a
// gpusim::TraceHook (installed through GpuConfig.trace, like any other
// telemetry hook) splits the SEPO driver's time into staging, kernels and
// flushes, and an Emitter wrapper splits a kernel's time into the app's map
// function and the emits it makes into the SEPO table. Clock reads on every
// map call and emit are expensive, which is why end-to-end numbers come from
// untraced runs only.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/trace_hook.hpp"
#include "gpusim/worker_id.hpp"
#include "mapreduce/spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// One span of host time. A timed span covers [start, end] once (count 1).
// An aggregate span sums many short intervals (count of them); when
// `worker_summed` is set its intervals ran in parallel on several pool
// workers, so it may exceed its parent's duration and is not subtracted
// from the parent's self time.
struct Span {
  std::string name;
  int parent = -1;
  double seconds = 0;
  std::uint64_t count = 0;
  bool worker_summed = false;
};

// In-memory span log for one traced run, printed when the run ends.
class SpanLog {
 public:
  int add(std::string name, int parent, double seconds,
          std::uint64_t count = 1, bool worker_summed = false) {
    spans_.push_back({std::move(name), parent, seconds, count, worker_summed});
    return static_cast<int>(spans_.size()) - 1;
  }
  int add(std::string name, int parent, Clock::time_point start,
          Clock::time_point end) {
    return add(std::move(name), parent, seconds_between(start, end));
  }

  // Closes a span opened with add(name, parent, 0) once its children exist.
  void set_seconds(int id, double seconds) {
    spans_[static_cast<std::size_t>(id)].seconds = seconds;
  }

  // Duration minus the serial children it covers.
  [[nodiscard]] double self_seconds(int id) const {
    double s = spans_[static_cast<std::size_t>(id)].seconds;
    for (const Span& c : spans_)
      if (c.parent == id && !c.worker_summed) s -= c.seconds;
    return s;
  }

  // Sum over every span named `name`.
  [[nodiscard]] double total(std::string_view name) const {
    double s = 0;
    for (const Span& sp : spans_)
      if (sp.name == name) s += sp.seconds;
    return s;
  }
  [[nodiscard]] std::uint64_t count(std::string_view name) const {
    std::uint64_t n = 0;
    for (const Span& sp : spans_)
      if (sp.name == name) n += sp.count;
    return n;
  }
  [[nodiscard]] double total_self(std::string_view name) const {
    double s = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) s += self_seconds(static_cast<int>(i));
    return s;
  }

  void print(std::FILE* out) const {
    std::fprintf(out, "  %-40s %8s %12s %12s %10s\n", "span", "id/parent",
                 "total_ms", "self_ms", "count");
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent < 0) print_tree(out, static_cast<int>(i), 0);
  }

 private:
  void print_tree(std::FILE* out, int id, int depth) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    const std::string label =
        std::string(2 * static_cast<std::size_t>(depth), ' ') + s.name +
        (s.worker_summed ? " [worker-summed]" : "");
    const std::string ids = std::to_string(id) + "/" +
                            (s.parent < 0 ? "-" : std::to_string(s.parent));
    std::fprintf(out, "  %-40s %8s %12.3f %12.3f %10llu\n", label.c_str(),
                 ids.c_str(), s.seconds * 1e3, self_seconds(id) * 1e3,
                 static_cast<unsigned long long>(s.count));
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].parent == id)
        print_tree(out, static_cast<int>(i), depth + 1);
  }

  std::vector<Span> spans_;
};

// Splits the SEPO driver's host time by the serial host events the virtual
// device reports. Each callback closes the interval since the previous one:
// an h2d command closes a staging interval, on_kernel closes the kernel's
// physical execution, the kernel's timeline command closes its pricing tail,
// and d2h flush commands close flush work. Only intervals inside an
// iteration are attributed, so finalize's own d2h transfers do not count
// as flushes. All callbacks used here fire on the host thread.
class LayerHook final : public sepo::gpusim::TraceHook {
 public:
  struct Interval {
    double seconds = 0;
    std::uint64_t count = 0;
  };

  Interval stage, kernel, launch_tail, flush;
  std::uint32_t iterations = 0;
  Clock::time_point first_begin{}, last_end{};

  void on_kernel(const sepo::gpusim::StatsSnapshot&, std::size_t) override {
    lap(kernel);
  }
  void on_h2d(std::uint64_t) override {}
  void on_d2h(std::uint64_t) override {}
  void on_remote(std::uint64_t) override {}
  void on_flush(std::uint64_t, std::uint64_t) override {
    lap(flush);
    ++flush.count;
  }
  void on_iteration_begin(std::uint32_t) override {
    last_ = Clock::now();
    if (iterations++ == 0) first_begin = last_;
    in_iteration_ = true;
  }
  void on_iteration_end(std::uint32_t) override {
    last_end = Clock::now();
    in_iteration_ = false;
  }
  void on_timeline_command(const sepo::gpusim::TimelineCommand& cmd) override {
    switch (cmd.kind) {
      case sepo::gpusim::TimelineCommandKind::kH2dCopy:
        lap(stage);
        ++stage.count;
        break;
      case sepo::gpusim::TimelineCommandKind::kKernel:
        lap(launch_tail);
        ++kernel.count;
        break;
      case sepo::gpusim::TimelineCommandKind::kD2hFlush:
        lap(flush);
        break;
      default:
        lap(launch_tail);
        break;
    }
  }

  [[nodiscard]] double driver_seconds() const {
    return iterations == 0 ? 0.0 : seconds_between(first_begin, last_end);
  }

 private:
  void lap(Interval& into) {
    const Clock::time_point now = Clock::now();
    if (in_iteration_) into.seconds += seconds_between(last_, now);
    last_ = now;
  }

  bool in_iteration_ = false;
  Clock::time_point last_{};
};

// Forwards emits to the real emitter (mapreduce::SepoEmitter, which inserts
// into the SEPO table) and times each one.
class TimedEmitter final : public sepo::mapreduce::Emitter {
 public:
  explicit TimedEmitter(sepo::mapreduce::Emitter& inner) noexcept
      : inner_(inner) {}

  sepo::core::Status emit(std::string_view key,
                          std::span<const std::byte> value) override {
    const Clock::time_point t0 = Clock::now();
    const sepo::core::Status s = inner_.emit(key, value);
    seconds += seconds_between(t0, Clock::now());
    ++emits;
    return s;
  }

  double seconds = 0;
  std::uint64_t emits = 0;

 private:
  sepo::mapreduce::Emitter& inner_;
};

// Per-worker totals of map-function and emit time, one cache line each, so
// that kernels on different pool workers never write the same line.
class MapEmitTimes {
 public:
  struct alignas(sepo::gpusim::kCacheLineBytes) Slot {
    double map_s = 0;   // map function, excluding its emits
    double emit_s = 0;  // emit -> SepoHashTable::insert
    std::uint64_t map_calls = 0;
    std::uint64_t emits = 0;
  };

  explicit MapEmitTimes(std::size_t workers) : slots_(workers) {}

  // Runs map(emitter) for one record with `inner` wrapped in a timer.
  template <typename MapCall>
  void timed_map(sepo::mapreduce::Emitter& inner, const MapCall& map) {
    Slot& s = slots_[sepo::gpusim::current_worker_index() % slots_.size()];
    TimedEmitter te(inner);
    const Clock::time_point t0 = Clock::now();
    map(te);
    const double total = seconds_between(t0, Clock::now());
    s.map_s += total - te.seconds;
    s.emit_s += te.seconds;
    s.emits += te.emits;
    ++s.map_calls;
  }

  [[nodiscard]] Slot sum() const {
    Slot t;
    for (const Slot& s : slots_) {
      t.map_s += s.map_s;
      t.emit_s += s.emit_s;
      t.map_calls += s.map_calls;
      t.emits += s.emits;
    }
    return t;
  }

 private:
  std::vector<Slot> slots_;
};

}  // namespace perfbench
