// Chrome trace_event recorder on the *simulated* clock (DESIGN.md
// "Telemetry & tracing").
//
// The simulator derives time from event counts, and since PR 3 the *when*
// comes from the discrete-event timeline (gpusim::Timeline): every command
// the scheduler places — kernel launch, h2d staging copy, d2h flush
// transfer, remote-access batch — arrives here through
// TraceHook::on_timeline_command with its exact simulated begin/end, and is
// emitted verbatim as a span. The recorder no longer re-derives a schedule
// of its own; it renders the one the execution actually followed:
//
//   * kernel compute     one span per kernel command (compute engine),
//   * pcie h2d           staging copies; overlap with compute is whatever
//                        the ring-buffer dependencies admitted,
//   * pcie d2h           heap-flush transfers (halt computation, §IV-C),
//   * heap flush         one span per SepoHashTable flush, grouping its
//                        d2h page transfers,
//   * remote access      pinned-baseline batches, serial with compute,
//   * sepo iteration     one span per driver iteration (stats-hook
//                        markers).
//
// A recorder can outlive many runs (the benches trace a whole sweep into
// one file): each ExecContext's timeline restarts at zero, so on
// on_timeline_attach the recorder folds the previous run's end into a base
// offset, keeping the concatenated trace monotone.
//
// The resulting file loads in Perfetto / about://tracing. Recording never
// mutates counters or the schedule, so simulated results are bit-identical
// with or without a recorder attached.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gpusim/trace_hook.hpp"
#include "obs/json.hpp"

namespace sepo::obs {

class TraceRecorder final : public gpusim::TraceHook {
 public:
  // Track ids (Chrome "tid"); also the display order in Perfetto.
  enum Track : int {
    kTrackKernel = 1,
    kTrackH2d = 2,
    kTrackD2h = 3,
    kTrackFlush = 4,
    kTrackRemote = 5,
    kTrackIteration = 6,
  };

  struct Span {
    int track = 0;
    std::string name;
    double ts_us = 0;   // simulated start, microseconds
    double dur_us = 0;  // simulated duration, microseconds
    std::uint64_t arg0 = 0, arg1 = 0;  // meaning depends on the track
  };

  // Installed on a run through ExecContext::set_trace (GpuConfig::trace).

  // Labels subsequent spans' iteration markers etc. with a section name
  // (benches tracing several runs into one timeline call this per run; the
  // label is emitted as an instant event).
  void begin_section(const std::string& name);

  // --- gpusim::TraceHook ---
  // Resource spans: exact begin/end from the execution timeline.
  void on_timeline_attach() override;
  void on_timeline_command(const gpusim::TimelineCommand& cmd) override;
  // Legacy per-event callbacks: superseded by timeline commands. Kept as
  // no-ops so a recorder attached to a bare bus (no ExecContext) is inert
  // rather than wrong.
  void on_kernel(const gpusim::StatsSnapshot& delta,
                 std::size_t n_items) override;
  void on_h2d(std::uint64_t bytes) override;
  void on_d2h(std::uint64_t bytes) override;
  void on_remote(std::uint64_t bytes) override;
  // Structural markers, still delivered through the stats hook.
  void on_flush(std::uint64_t pages, std::uint64_t bytes) override;
  void on_iteration_begin(std::uint32_t iteration) override;
  void on_iteration_end(std::uint32_t iteration) override;
  // Occupancy snapshots (SepoDriver sampler): rendered as Chrome counter
  // tracks ("ph":"C") so pool occupancy and staging pressure show as area
  // charts alongside the spans.
  void on_occupancy_sample(const gpusim::OccupancySample& s) override;

  // --- output ---
  [[nodiscard]] Json trace_json() const;  // {"traceEvents": [...], ...}
  bool write_file(const std::string& path, std::string* error = nullptr) const;

  struct CounterSample {
    double ts_us = 0;  // simulated, microseconds, across attached runs
    std::uint32_t pages_used = 0, pages_free = 0, pages_seized = 0;
    std::uint32_t staging_busy = 0;
  };

  // Introspection for tests.
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<CounterSample>& counter_samples()
      const noexcept {
    return counters_;
  }
  // Simulated end of the trace so far, seconds (across attached runs).
  [[nodiscard]] double timeline_end_seconds() const;

 private:
  [[nodiscard]] double now_locked() const noexcept {
    return base_offset_ + run_end_;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<CounterSample> counters_;  // occupancy counter track
  std::vector<std::pair<double, std::string>> instants_;  // section labels

  // Concatenation state: each attached run's timeline starts at zero;
  // base_offset_ is the sum of previous runs' makespans.
  double base_offset_ = 0;
  double run_end_ = 0;  // max command end seen in the current run

  double iter_start_ = 0;       // set by on_iteration_begin
  double flush_group_start_ = -1;  // first d2h command of the current flush
  double flush_group_end_ = 0;
};

}  // namespace sepo::obs
