// Sharded-counter equivalence (gpusim::WorkerStats, DESIGN.md §5 "host
// execution performance").
//
// gpusim::launch (and gpusim::run_parties for host pool jobs) installs one
// counter shard per pool worker for the job's duration and merges them back
// at its exit; gpusim::run_serial does the same with one shard for a serial
// host loop. Because uint64 addition is
// commutative, the merged totals must be *bit-identical* to what the
// all-atomic metering path produces — that invariant is what keeps every
// simulated result unchanged by the perf work. The fixture totals below were
// recorded against the pre-change, single-atomic RunStats implementation;
// they pin the invariant across future refactors.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/thread_pool.hpp"
#include "gpusim/trace_hook.hpp"

namespace {

using namespace sepo::gpusim;

// Deterministic per-item counter workload (splitmix of the item index):
// totals are independent of threading, batching, and execution order. Shared
// with bench/host_perf.cpp. Do not change it — the fixture totals below were
// recorded against exactly this kernel.
void fixture_kernel(RunStats& stats, std::size_t i) {
  std::uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  stats.add_records_scanned();
  stats.add_work_units(x % 97);
  stats.add_hash_ops();
  if (x % 3 == 0)
    stats.add_inserts_new();
  else
    stats.add_combines();
  stats.add_chain_links(x % 5);
  stats.add_key_compare_bytes((x >> 8) % 31);
  stats.add_alloc_ops();
  if (x % 7 == 0) stats.add_alloc_fails();
  if (x % 11 == 0) stats.add_page_acquires();
  stats.add_records_processed();
}

constexpr std::size_t kItems = 10000;
constexpr std::size_t kGrid = 256;

// Totals recorded from the pre-change implementation (single shared-atomic
// RunStats, std::function launch) running fixture_kernel over kItems items
// with kGrid grid threads on a 4-worker pool.
StatsSnapshot recorded_fixture() {
  StatsSnapshot f;
  f.records_processed = 10000u;
  f.records_scanned = 10000u;
  f.work_units = 474944u;
  f.hash_ops = 10000u;
  f.key_compare_bytes = 148877u;
  f.chain_links_walked = 20057u;
  f.inserts_new = 3390u;
  f.combines = 6610u;
  f.alloc_ops = 10000u;
  f.alloc_fails = 1441u;
  f.page_acquires = 895u;
  f.kernel_launches = 1u;
  return f;
}

TEST(CounterShardTest, MergedTotalsMatchPreChangeFixture) {
  ThreadPool pool(4);
  RunStats stats;
  launch(pool, stats, kItems,
         [&stats](std::size_t i) { fixture_kernel(stats, i); },
         {.grid_threads = kGrid});
  EXPECT_FALSE(stats.sharded()) << "launch must merge shards at kernel exit";
  EXPECT_EQ(stats.snapshot(), recorded_fixture());
}

TEST(CounterShardTest, ShardedPathEqualsAtomicPath) {
  // The same workload through both metering paths: sharded (inside launch)
  // and all-atomic (direct bumps outside any launch). Bit-identical totals,
  // modulo the launch counter the atomic path never sees.
  ThreadPool pool(4);
  RunStats sharded;
  launch(pool, sharded, kItems,
         [&sharded](std::size_t i) { fixture_kernel(sharded, i); },
         {.grid_threads = kGrid});

  RunStats atomic;
  for (std::size_t i = 0; i < kItems; ++i) fixture_kernel(atomic, i);
  atomic.add_kernel_launches();
  EXPECT_EQ(sharded.snapshot(), atomic.snapshot());
}

TEST(CounterShardTest, FixtureStableAcrossWorkerCounts) {
  // Shard count follows the pool size; totals must not.
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(workers);
    RunStats stats;
    launch(pool, stats, kItems,
           [&stats](std::size_t i) { fixture_kernel(stats, i); },
           {.grid_threads = kGrid});
    EXPECT_EQ(stats.snapshot(), recorded_fixture()) << "workers=" << workers;
  }
}

TEST(CounterShardTest, StdFunctionOverloadMetersIdentically) {
  // A kernel held as a std::function (the template with
  // Kernel = const std::function&) must meter exactly like a lambda.
  ThreadPool pool(4);
  RunStats stats;
  const std::function<void(std::size_t)> kernel = [&stats](std::size_t i) {
    fixture_kernel(stats, i);
  };
  launch(pool, stats, kItems, kernel, {.grid_threads = kGrid});
  EXPECT_EQ(stats.snapshot(), recorded_fixture());
}

TEST(CounterShardTest, AtomicPathUsedOutsideLaunch) {
  // Host-side bumps outside any shard scope meter through the atomics.
  RunStats stats;
  EXPECT_FALSE(stats.sharded());
  stats.add_hash_ops(7);
  EXPECT_EQ(stats.snapshot().hash_ops, 7u);
}

TEST(CounterShardTest, ShardScopeMergesOnce) {
  RunStats stats;
  {
    StatsShardScope scope(stats, 2);
    ASSERT_TRUE(stats.sharded());
    stats.add_hash_ops(3);  // lands in shard 0 (calling thread)
    EXPECT_EQ(stats.snapshot().hash_ops, 0u) << "merge happens at scope exit";
    stats.end_sharding();  // explicit early end: scope exit must be a no-op
    EXPECT_EQ(stats.snapshot().hash_ops, 3u);
  }
  EXPECT_EQ(stats.snapshot().hash_ops, 3u);
}

TEST(CounterShardTest, RunPartiesMergesAndMatchesAtomicPath) {
  // The metered-parties entry point shards like a launch: 8 parties on a
  // 4-worker pool, each metering a contiguous slice of the fixture. The
  // scope has merged when the job returns, and the totals equal the
  // all-atomic path's bit for bit (no launch, so no launch counter).
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kParties = 8;
  ThreadPool pool(kWorkers);
  RunStats sharded;
  std::atomic<std::size_t> arrived{0};
  run_parties(pool, sharded, kParties, [&](std::size_t party) {
    // Rendezvous: a worker holds one party at a time, so the first kWorkers
    // arrivals come from distinct workers and every shard gets bumps.
    arrived.fetch_add(1);
    while (arrived.load() < kWorkers) std::this_thread::yield();
    for (std::size_t i = kItems * party / kParties;
         i < kItems * (party + 1) / kParties; ++i)
      fixture_kernel(sharded, i);
  });
  EXPECT_FALSE(sharded.sharded()) << "run_parties must merge at job exit";

  RunStats atomic;
  for (std::size_t i = 0; i < kItems; ++i) fixture_kernel(atomic, i);
  EXPECT_EQ(sharded.snapshot(), atomic.snapshot());
  StatsSnapshot expected = recorded_fixture();
  expected.kernel_launches = 0;
  EXPECT_EQ(sharded.snapshot(), expected);
}

TEST(CounterShardTest, RunSerialMergesOnAnotherPoolsHelper) {
  // A serial metered loop is the single worker of a one-shard scope, even
  // on a helper thread of another pool (worker index != 0): it pins its
  // index for the scope and restores it afterwards.
  constexpr std::size_t kParties = 4;
  ThreadPool outer(kParties);
  std::vector<StatsSnapshot> totals(kParties);
  std::vector<int> merged(kParties, 0), restored(kParties, 0);
  std::atomic<std::size_t> arrived{0};
  outer.run_parties(kParties, [&](std::size_t party) {
    // Rendezvous: one party per worker, so three run on helpers.
    arrived.fetch_add(1);
    while (arrived.load() < kParties) std::this_thread::yield();
    RunStats stats;
    const std::size_t index = current_worker_index();
    run_serial(stats, [&stats] {
      for (std::size_t i = 0; i < kItems; ++i) fixture_kernel(stats, i);
    });
    totals[party] = stats.snapshot();
    merged[party] = !stats.sharded();
    restored[party] = current_worker_index() == index;
  });
  StatsSnapshot expected = recorded_fixture();
  expected.kernel_launches = 0;
  for (std::size_t p = 0; p < kParties; ++p) {
    EXPECT_EQ(totals[p], expected) << "party " << p;
    EXPECT_TRUE(merged[p]) << "party " << p;
    EXPECT_TRUE(restored[p]) << "party " << p;
  }
}

TEST(CounterShardTest, RemoteBusShardsFoldBeforeTheLaunchIsPriced) {
  // Remote transactions issued inside ExecContext::launch land in per-worker
  // bus shards, which fold before the launch reads its bus delta: the bus
  // snapshot and the scheduled remote-access command carry the exact serial
  // totals.
  Device dev(1u << 20);
  ThreadPool pool(4);
  RunStats stats;
  ExecContext ctx(dev, pool, stats);
  std::uint64_t want_bytes = 0;
  for (std::size_t i = 0; i < kItems; ++i) want_bytes += i % 61;
  ctx.launch(kItems, [&dev](std::size_t i) { dev.bus().remote(i % 61); },
             {.grid_threads = kGrid});

  const PcieSnapshot bus = dev.bus().snapshot();
  EXPECT_EQ(bus.remote_txns, kItems);
  EXPECT_EQ(bus.remote_bytes, want_bytes);
  std::size_t remote_cmds = 0;
  for (const TimelineCommand& c : ctx.timeline().commands()) {
    if (c.kind != TimelineCommandKind::kRemoteAccess) continue;
    ++remote_cmds;
    EXPECT_EQ(c.arg0, want_bytes);
    EXPECT_EQ(c.arg1, kItems);
  }
  EXPECT_EQ(remote_cmds, 1u);

  // Outside a launch the bus meters through its atomics as before.
  dev.bus().remote(5);
  EXPECT_EQ(dev.bus().snapshot().remote_txns, kItems + 1);
  EXPECT_EQ(dev.bus().snapshot().remote_bytes, want_bytes + 5);
}

// Hook that records the deltas launch() reports.
class DeltaRecorder : public TraceHook {
 public:
  std::vector<StatsSnapshot> deltas;
  std::vector<std::size_t> items;
  void on_kernel(const StatsSnapshot& delta, std::size_t n_items) override {
    deltas.push_back(delta);
    items.push_back(n_items);
  }
  void on_h2d(std::uint64_t) override {}
  void on_d2h(std::uint64_t) override {}
  void on_remote(std::uint64_t) override {}
  void on_flush(std::uint64_t, std::uint64_t) override {}
  void on_iteration_begin(std::uint32_t) override {}
  void on_iteration_end(std::uint32_t) override {}
};

TEST(CounterShardTest, TraceHookSeesMergedDelta) {
  // The trace hook observes totals at kernel exit — after the shard merge —
  // so its delta must equal the whole fixture, exactly as pre-change.
  ThreadPool pool(4);
  RunStats stats;
  DeltaRecorder rec;
  stats.set_trace_hook(&rec);
  launch(pool, stats, kItems,
         [&stats](std::size_t i) { fixture_kernel(stats, i); },
         {.grid_threads = kGrid});
  stats.set_trace_hook(nullptr);
  ASSERT_EQ(rec.deltas.size(), 1u);
  EXPECT_EQ(rec.deltas[0], recorded_fixture());
  EXPECT_EQ(rec.items[0], kItems);
}

}  // namespace
