// Telemetry hook points for the virtual device (DESIGN.md "Telemetry &
// tracing").
//
// The simulator never keeps a running wall clock — simulated time is derived
// from event counts — so tracing works on *events*: the device reports a
// kernel's counter delta or a bus transfer's byte count, and the execution
// timeline (gpusim::Timeline) prices and schedules them. Hooks are nullable
// pointers checked with one branch on the recording paths; with no hook
// installed nothing else changes, which is what keeps tier-1 results
// bit-identical with telemetry off.
//
// Callback context: on_kernel / on_flush / on_iteration fire from the host
// between kernels (serial). on_timeline_command fires from the host whenever the Timeline schedules a
// command (serial), carrying the command's exact simulated begin/end.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gpusim/counters.hpp"

namespace sepo::gpusim {

struct OccupancySample;  // gpusim/journal.hpp

// The per-resource simulated engines commands are scheduled onto. Compute
// and the three bus paths advance independent clocks; dependencies between
// commands (stream order, events) are what bound their overlap.
enum class TimelineResource : int {
  kCompute = 0,  // kernel execution
  kCopyH2d = 1,  // input staging (BigKernel ring)
  kCopyD2h = 2,  // heap flushes
  kRemote = 3,   // pinned-memory remote access path
};
inline constexpr int kNumTimelineResources = 4;

enum class TimelineCommandKind : int {
  kKernel = 0,
  kH2dCopy = 1,
  kD2hFlush = 2,
  kRemoteAccess = 3,
  // Fault-injection overhead (gpusim::FaultInjector). These occupy their
  // engine in simulated time but are excluded from the engine's busy total,
  // which keeps each busy total equal to the price of its metered counts:
  // failed attempts are scheduled as ordinary commands of the kinds above,
  // and only the *extra* waiting lands here.
  kRetryBackoff = 4,    // bounded-exponential wait before a retry
  kAbortedLaunch = 5,   // kernel launch the injector aborted (launch cost)
};

// One scheduled command on the execution timeline: priced by the cost model,
// placed at the earliest simulated instant permitted by its dependencies and
// its resource's availability.
struct TimelineCommand {
  TimelineCommandKind kind = TimelineCommandKind::kKernel;
  TimelineResource resource = TimelineResource::kCompute;
  double start = 0;  // simulated seconds
  double end = 0;    // simulated seconds
  // kKernel: items / work units. kH2dCopy: bytes / 0. kD2hFlush and
  // kRemoteAccess: bytes / transactions.
  std::uint64_t arg0 = 0, arg1 = 0;
};

class TraceHook {
 public:
  virtual ~TraceHook() = default;

  // One kernel finished; `delta` is the counter change it produced.
  virtual void on_kernel(const StatsSnapshot& delta, std::size_t n_items) = 0;

  // Per-transfer bus callbacks. Nothing calls them: transfers reach hooks
  // as timeline commands (on_timeline_command). Default no-ops.
  virtual void on_h2d(std::uint64_t /*bytes*/) {}
  virtual void on_d2h(std::uint64_t /*bytes*/) {}
  virtual void on_remote(std::uint64_t /*bytes*/) {}

  // A heap flush (SepoHashTable::flush_pages) completed; its page-level d2h
  // transfers were already scheduled as one kD2hFlush timeline command.
  virtual void on_flush(std::uint64_t pages, std::uint64_t bytes) = 0;

  // SEPO iteration boundaries (SepoDriver).
  virtual void on_iteration_begin(std::uint32_t iteration) = 0;
  virtual void on_iteration_end(std::uint32_t iteration) = 0;

  // An ExecContext adopted this hook: commands that follow belong to a fresh
  // timeline whose clock restarts at zero (recorders concatenating several
  // runs use this to offset them).
  virtual void on_timeline_attach() {}

  // The Timeline scheduled a command (exact priced begin/end, simulated).
  virtual void on_timeline_command(const TimelineCommand& /*cmd*/) {}

  // The SepoDriver took an occupancy snapshot at an iteration boundary
  // (gpusim/journal.hpp). Fires from the host, serial. Default no-op so
  // implementations that only care about spans keep compiling.
  virtual void on_occupancy_sample(const OccupancySample& /*sample*/) {}
};

}  // namespace sepo::gpusim
