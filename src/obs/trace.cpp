#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>

#include "gpusim/counters.hpp"
#include "gpusim/journal.hpp"

namespace sepo::obs {

namespace {
constexpr double kUs = 1e6;
}  // namespace

void TraceRecorder::begin_section(const std::string& name) {
  std::lock_guard lock(mu_);
  instants_.emplace_back(now_locked() * kUs, name);
}

void TraceRecorder::on_timeline_attach() {
  std::lock_guard lock(mu_);
  // The new run's timeline starts at zero: fold the finished run's makespan
  // into the base offset so the concatenated trace stays monotone.
  base_offset_ += run_end_;
  run_end_ = 0;
  flush_group_start_ = -1;
}

void TraceRecorder::on_timeline_command(const gpusim::TimelineCommand& cmd) {
  std::lock_guard lock(mu_);
  const double start = base_offset_ + cmd.start;
  const double end = base_offset_ + cmd.end;
  run_end_ = std::max(run_end_, cmd.end);
  int track = 0;
  const char* name = "";
  switch (cmd.kind) {
    case gpusim::TimelineCommandKind::kKernel:
      track = kTrackKernel;
      name = "kernel";
      break;
    case gpusim::TimelineCommandKind::kH2dCopy:
      track = kTrackH2d;
      name = "h2d copy";
      break;
    case gpusim::TimelineCommandKind::kD2hFlush:
      track = kTrackD2h;
      name = "d2h copy";
      if (flush_group_start_ < 0) flush_group_start_ = start;
      flush_group_end_ = end;
      break;
    case gpusim::TimelineCommandKind::kRemoteAccess:
      track = kTrackRemote;
      name = "remote access";
      break;
    case gpusim::TimelineCommandKind::kRetryBackoff:
    case gpusim::TimelineCommandKind::kAbortedLaunch: {
      // Fault-injection overhead: render on the affected engine's own track
      // so the retry sits visibly between the failed attempt and the retry.
      switch (cmd.resource) {
        case gpusim::TimelineResource::kCompute: track = kTrackKernel; break;
        case gpusim::TimelineResource::kCopyH2d: track = kTrackH2d; break;
        case gpusim::TimelineResource::kCopyD2h: track = kTrackD2h; break;
        case gpusim::TimelineResource::kRemote: track = kTrackRemote; break;
      }
      name = cmd.kind == gpusim::TimelineCommandKind::kAbortedLaunch
                 ? "aborted launch"
                 : "retry backoff";
      break;
    }
  }
  spans_.push_back(
      {track, name, start * kUs, (end - start) * kUs, cmd.arg0, cmd.arg1});
}

// Resource spans come from timeline commands now; the per-kernel callback
// stays a no-op for hooks installed on bare stats.
void TraceRecorder::on_kernel(const gpusim::StatsSnapshot&, std::size_t) {}

void TraceRecorder::on_flush(std::uint64_t pages, std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  // Group the flush's d2h page transfers (already emitted as kTrackD2h
  // spans) under one flush span.
  const double start =
      flush_group_start_ >= 0 ? flush_group_start_ : now_locked();
  const double end = flush_group_start_ >= 0 ? flush_group_end_ : start;
  spans_.push_back({kTrackFlush, "heap flush", start * kUs,
                    (end - start) * kUs, pages, bytes});
  flush_group_start_ = -1;
}

void TraceRecorder::on_iteration_begin(std::uint32_t) {
  std::lock_guard lock(mu_);
  iter_start_ = now_locked();
}

void TraceRecorder::on_iteration_end(std::uint32_t iteration) {
  std::lock_guard lock(mu_);
  const double end = now_locked();
  spans_.push_back({kTrackIteration,
                    "iteration " + std::to_string(iteration),
                    iter_start_ * kUs, (end - iter_start_) * kUs, iteration,
                    0});
  iter_start_ = end;
}

void TraceRecorder::on_occupancy_sample(const gpusim::OccupancySample& s) {
  std::lock_guard lock(mu_);
  counters_.push_back({(base_offset_ + s.sim_ts) * kUs,
                       s.pages_total - s.pages_free - s.pages_seized,
                       s.pages_free, s.pages_seized, s.staging_busy});
}

double TraceRecorder::timeline_end_seconds() const {
  std::lock_guard lock(mu_);
  return now_locked();
}

Json TraceRecorder::trace_json() const {
  std::lock_guard lock(mu_);
  Json events = Json::array();

  auto meta = [&events](const char* what, int tid, const std::string& name) {
    Json args = Json::object();
    args.set("name", name);
    Json e = Json::object();
    e.set("ph", "M").set("pid", 1).set("tid", tid).set("name", what);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  };
  meta("process_name", 0, "sepo virtual device (simulated time)");
  meta("thread_name", kTrackKernel, "kernel compute");
  meta("thread_name", kTrackH2d, "pcie h2d (input staging)");
  meta("thread_name", kTrackD2h, "pcie d2h (page copies)");
  meta("thread_name", kTrackFlush, "heap flush");
  meta("thread_name", kTrackRemote, "remote access (pinned)");
  meta("thread_name", kTrackIteration, "sepo iteration");

  for (const auto& [ts, name] : instants_) {
    Json e = Json::object();
    e.set("ph", "i").set("pid", 1).set("tid", kTrackIteration);
    e.set("name", name).set("ts", ts).set("s", "g");
    events.push_back(std::move(e));
  }

  for (const Span& s : spans_) {
    Json args = Json::object();
    switch (s.track) {
      case kTrackKernel:
        args.set("items", s.arg0).set("work_units", s.arg1);
        break;
      case kTrackH2d:
      case kTrackD2h:
        args.set("bytes", s.arg0);
        break;
      case kTrackFlush:
        args.set("pages", s.arg0).set("bytes", s.arg1);
        break;
      case kTrackRemote:
        args.set("bytes", s.arg0).set("txns", s.arg1);
        break;
      case kTrackIteration:
        args.set("iteration", s.arg0);
        break;
      default: break;
    }
    Json e = Json::object();
    e.set("ph", "X").set("pid", 1).set("tid", s.track).set("name", s.name);
    e.set("ts", s.ts_us).set("dur", s.dur_us).set("args", std::move(args));
    events.push_back(std::move(e));
  }

  // Occupancy counter tracks ("ph":"C"): Perfetto stacks each args key into
  // an area chart, so used/free/seized render as the pool's composition.
  for (const CounterSample& c : counters_) {
    Json pages = Json::object();
    pages.set("used", c.pages_used).set("free", c.pages_free);
    pages.set("seized", c.pages_seized);
    Json e = Json::object();
    e.set("ph", "C").set("pid", 1).set("name", "heap pages").set("ts", c.ts_us);
    e.set("args", std::move(pages));
    events.push_back(std::move(e));

    Json staging = Json::object();
    staging.set("busy", c.staging_busy);
    Json e2 = Json::object();
    e2.set("ph", "C").set("pid", 1).set("name", "staging in flight");
    e2.set("ts", c.ts_us).set("args", std::move(staging));
    events.push_back(std::move(e2));
  }

  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  root.set("otherData",
           Json::object().set(
               "clock", "simulated (DESIGN.md §5 discrete-event timeline)"));
  return root;
}

bool TraceRecorder::write_file(const std::string& path,
                               std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  trace_json().write(out, 1);
  out << '\n';
  if (!out.good()) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

}  // namespace sepo::obs
