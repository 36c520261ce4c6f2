// Event counters recorded during real execution of the simulated device.
// gpusim::CostModel converts a snapshot of these counts into simulated time
// (DESIGN.md §5). Counting events instead of measuring host wall-clock is
// what makes the reproduction independent of the host machine.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "gpusim/worker_id.hpp"

namespace sepo::gpusim {

class TraceHook;

// The single source of truth for the counter set. StatsSnapshot fields,
// RunStats atomics/adders, snapshot(), reset(), arithmetic, and the JSON
// serializer (obs::to_json) are all generated from this list, so adding a
// counter is one line here and one nowhere else.
//
//   X(field, comment)
#define SEPO_STATS_FIELDS(X)                                                   \
  /* Task-level */                                                             \
  X(records_processed, "tasks that completed successfully")                    \
  X(records_postponed, "task executions that ended in POSTPONE")               \
  X(records_scanned, "task slots visited (incl. done-skips)")                  \
  X(work_units, "app work, in bytes parsed/produced")                          \
  /* Hash-table level */                                                       \
  X(hash_ops, "insert/lookup operations started")                              \
  X(key_compare_bytes, "bytes compared while probing chains")                  \
  X(chain_links_walked, "entries visited while probing")                       \
  X(inserts_new, "new entries materialized")                                   \
  X(combines, "in-place value merges")                                         \
  X(value_appends, "multi-valued appends")                                     \
  /* Allocator level */                                                        \
  X(alloc_ops, "allocation attempts")                                          \
  X(alloc_fails, "POSTPONE-producing failures")                                \
  X(page_acquires, "pages claimed from the pool")                              \
  /* Synchronization level */                                                  \
  X(lock_acquires, "lock acquire/release pairs")                               \
  /* lock_contended and atomic_retries read 0: host spin outcomes are     */   \
  /* not simulated events. Contention is priced by serialization_time     */   \
  /* from per-bucket op counts; both fields stay in the metrics schema.   */   \
  X(lock_contended, "always 0; contention is modelled, not counted")           \
  X(atomic_retries, "always 0; CAS retries are host outcomes")                 \
  /* Control level */                                                          \
  X(divergent_units, "work units executed under warp divergence")              \
  X(kernel_launches, "kernel launches")                                        \
  X(iterations, "SEPO iterations over the input")                              \
  /* Fault-injection level (gpusim::FaultInjector) */                          \
  X(faults_h2d, "injected h2d transfer failures")                              \
  X(faults_d2h, "injected d2h transfer failures")                              \
  X(faults_remote, "injected remote transaction failures")                     \
  X(kernel_aborts, "injected kernel launch aborts")                            \
  X(fault_retries, "priced retry rounds after injected faults")                \
  X(pressure_spikes, "device-memory pressure spikes begun")                    \
  X(page_double_releases, "rejected double releases of a heap page")

// Plain-value snapshot of RunStats, safe to copy and do arithmetic on.
struct StatsSnapshot {
#define SEPO_X(field, comment) std::uint64_t field = 0; /* comment */
  SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X

  StatsSnapshot& operator+=(const StatsSnapshot& o) {
#define SEPO_X(field, comment) field += o.field;
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    return *this;
  }

  // Saturating per-field difference (deltas between two points in a run;
  // counters are monotone so saturation only guards against misuse). The
  // debug assert makes that misuse — e.g. a shard-merge bug producing an
  // "after" snapshot smaller than "before" — fail loudly in the asan/tsan
  // presets instead of silently clamping to zero.
  StatsSnapshot& operator-=(const StatsSnapshot& o) {
#define SEPO_X(field, comment)                                                 \
  assert(field >= o.field && "StatsSnapshot::operator-= saturated: " #field);  \
  field = field >= o.field ? field - o.field : 0;
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    return *this;
  }

  [[nodiscard]] friend StatsSnapshot operator+(StatsSnapshot a,
                                               const StatsSnapshot& b) {
    return a += b;
  }
  [[nodiscard]] friend StatsSnapshot operator-(StatsSnapshot a,
                                               const StatsSnapshot& b) {
    return a -= b;
  }

  [[nodiscard]] bool operator==(const StatsSnapshot&) const = default;

  // Visits every counter as fn(name, value); the serializers and tests use
  // this so their field list cannot drift from the struct.
  template <typename Fn>
  void for_each_field(Fn&& fn) const {
#define SEPO_X(field, comment) fn(#field, field);
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
  }
};

// One pool worker's private counter shard: plain (non-atomic) fields on a
// worker-exclusive set of cache lines. Metered code bumps its own shard with
// ordinary additions — no lock-prefixed RMW, no line shared with any other
// worker — and the scope's end merges all shards into the canonical RunStats
// atomics, while the workers are quiescent. Generated from the same
// SEPO_STATS_FIELDS X-macro, so the shard cannot drift from the counter set.
struct alignas(kCacheLineBytes) WorkerStats {
#define SEPO_X(field, comment) std::uint64_t field = 0; /* comment */
  SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
};

// Thread-safe accumulating counters. Counts are read only between kernel
// launches and pool jobs, when the workers are quiescent.
//
// Two metering paths:
//  * Inside a shard scope (between begin_sharding/end_sharding, installed by
//    gpusim::launch, gpusim::run_parties and gpusim::run_serial): each pool
//    worker bumps its private WorkerStats shard; end_sharding folds the
//    shards back into the atomics. Because uint64 addition is commutative
//    and wraps mod 2^64, the merged totals are bit-identical to what the
//    all-atomic path would have produced, and the merge happens at the exact
//    quiescent point (kernel or job exit) where snapshots, trace hooks, and
//    the fault injector already observe totals.
//  * Anywhere else (serial host bookkeeping between launches): relaxed
//    fetch_add on the shared atomics — correct from any thread, any time.
class RunStats {
 public:
#define SEPO_X(field, comment)                                                 \
  void add_##field(std::uint64_t n = 1) noexcept {                             \
    if (WorkerStats* shard = shards_)                                          \
      shard[current_worker_index()].field += n;                                \
    else                                                                       \
      bump(field##_, n);                                                       \
  }
  SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X

  // Historical short name kept for kernel-code brevity.
  void add_chain_links(std::uint64_t n = 1) noexcept {
    add_chain_links_walked(n);
  }

  [[nodiscard]] StatsSnapshot snapshot() const noexcept {
    StatsSnapshot s;
#define SEPO_X(field, comment)                                                 \
  s.field = field##_.load(std::memory_order_relaxed);
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    return s;
  }

  void reset() noexcept {
#define SEPO_X(field, comment) field##_.store(0, std::memory_order_relaxed);
    SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
  }

  // The number of kernel launches begun so far, read from any thread. Inside
  // a kernel (and its launch epilogue) it names that launch: gpusim::launch
  // bumps the counter before the grid runs and nothing else does, so table
  // code can tell work done in the current launch from work done before it.
  [[nodiscard]] std::uint64_t launch_epoch() const noexcept {
    return kernel_launches_.load(std::memory_order_relaxed);
  }

  // Optional telemetry hook (obs::TraceRecorder). Install before a run, from
  // the host, while virtual threads are quiescent; null (the default) keeps
  // the hot path a single predictable branch and recording changes no
  // counter, so simulated results are identical with or without it.
  void set_trace_hook(TraceHook* hook) noexcept { trace_hook_ = hook; }
  [[nodiscard]] TraceHook* trace_hook() const noexcept { return trace_hook_; }

  // --- sharded metering (installed by the gpusim entry points) ---
  // Call from the host while the workers are quiescent, before the pool job
  // is published: the pool's job-publication mutex then orders the plain
  // shards_ write before any worker's read. Shard storage is owned here and
  // reused across scopes, so steady-state launches do not allocate.
  void begin_sharding(std::size_t workers) {
    assert(shards_ == nullptr && "shard scopes do not nest");
    if (shard_storage_.size() < workers) shard_storage_.resize(workers);
    std::fill_n(shard_storage_.begin(), workers, WorkerStats{});
    n_shards_ = workers;
    shards_ = shard_storage_.data();
  }

  // Folds the shards into the atomics and returns to the all-atomic path.
  // Idempotent; called at scope exit (again: workers quiescent, the pool's
  // completion wait ordered every shard write before this read).
  void end_sharding() noexcept {
    WorkerStats* const shards = shards_;
    if (shards == nullptr) return;
    shards_ = nullptr;
    for (std::size_t w = 0; w < n_shards_; ++w) {
#define SEPO_X(field, comment)                                                 \
  if (shards[w].field != 0) bump(field##_, shards[w].field);
      SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
    }
  }

  [[nodiscard]] bool sharded() const noexcept { return shards_ != nullptr; }

 private:
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    c.fetch_add(n, std::memory_order_relaxed);
  }

#define SEPO_X(field, comment) std::atomic<std::uint64_t> field##_{0};
  SEPO_STATS_FIELDS(SEPO_X)
#undef SEPO_X
  TraceHook* trace_hook_ = nullptr;
  WorkerStats* shards_ = nullptr;  // non-null only inside a shard scope
  std::size_t n_shards_ = 0;
  std::vector<WorkerStats> shard_storage_;
};

// The sharding scope the metered entry points in gpusim/launch.hpp install:
// one shard per pool worker for a kernel or a pool job, one for a serial
// host loop.
using StatsShardScope = ShardScope<RunStats>;

}  // namespace sepo::gpusim
