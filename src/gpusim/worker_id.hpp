// Host-execution identity and layout constants for the simulator's own hot
// path, and the scopes built on them. The virtual device is multiplexed onto
// a small host ThreadPool; contention-free metering (gpusim::WorkerStats
// shards) and false-sharing padding both need to know which pool worker is
// running and how big a cache line is.
#pragma once

#include <cstddef>

namespace sepo::gpusim {

// Destructive-interference granularity of the host. Hardcoded rather than
// std::hardware_destructive_interference_size so struct layouts (and the
// committed BENCH_host.json baselines) do not depend on the build machine.
inline constexpr std::size_t kCacheLineBytes = 64;

namespace detail {
// Index of this OS thread within the pool whose job it is running. Pool
// helpers set it once at startup; WorkerIndexPin overrides it for a scope.
// Constant-initialized, so every read is a plain thread-local load.
inline thread_local std::size_t t_worker_index = 0;
}  // namespace detail

// Stable index of the calling OS thread within the executing ThreadPool:
// 0 for the submitting thread (which participates in every job), 1..N-1 for
// the pool's helper threads. Threads that never joined a pool report 0.
// Inline: every shard bump reads it, so it must not cost a call.
[[nodiscard]] inline std::size_t current_worker_index() noexcept {
  return detail::t_worker_index;
}

// Pins the calling thread's worker index for a scope and restores it on
// exit. A pool's submitter is worker 0 of that pool for the span of a job,
// and a serial metered loop is the only worker of its one-shard scope; in
// both cases a thread that is a helper of *another* pool must not address
// this scope's shards with its foreign index.
class WorkerIndexPin {
 public:
  explicit WorkerIndexPin(std::size_t index) noexcept
      : saved_(detail::t_worker_index) {
    detail::t_worker_index = index;
  }
  ~WorkerIndexPin() { detail::t_worker_index = saved_; }
  WorkerIndexPin(const WorkerIndexPin&) = delete;
  WorkerIndexPin& operator=(const WorkerIndexPin&) = delete;

 private:
  std::size_t saved_;
};

// RAII sharding scope over any meter with begin_sharding(workers) /
// end_sharding() (RunStats, PcieBus): the constructor installs one private
// shard per worker, the destructor folds them back into the shared totals —
// exception-safe, so a throwing job still leaves totals consistent.
template <typename Meter>
class ShardScope {
 public:
  ShardScope(Meter& meter, std::size_t workers) : meter_(meter) {
    meter_.begin_sharding(workers);
  }
  ~ShardScope() { meter_.end_sharding(); }
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  Meter& meter_;
};

}  // namespace sepo::gpusim
