// Unit tests for the baseline implementations: the chained host-memory table
// under both memory policies (host arenas, pinned region), and the
// demand-paging simulator.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <unordered_map>

#include "baselines/chained_hash_table.hpp"
#include "baselines/paging_sim.hpp"
#include "common/random.hpp"
#include "test_util.hpp"

namespace sepo::baselines {
namespace {

using test::Rig;
using test::as_u64;
using ArenaTable = ChainedHashTable<HostArena>;
using PinnedTable = ChainedHashTable<PinnedRegion>;

// ---- ChainedHashTable<HostArena> ----

TEST(HostArenaTableTest, CombiningSumsValues) {
  gpusim::RunStats stats;
  ChainedTableConfig cfg;
  cfg.combiner = core::combine_sum_u64;
  cfg.num_buckets = 256;
  ArenaTable t(stats, cfg);
  t.insert_u64(0, "a", 1);
  t.insert_u64(0, "a", 2);
  t.insert_u64(1, "b", 5);
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(as_u64(*t.lookup("a")), 3u);
  EXPECT_EQ(as_u64(*t.lookup("b")), 5u);
  EXPECT_FALSE(t.lookup("c").has_value());
}

TEST(HostArenaTableTest, BasicKeepsDuplicates) {
  gpusim::RunStats stats;
  ChainedTableConfig cfg;
  cfg.org = core::Organization::kBasic;
  ArenaTable t(stats, cfg);
  t.insert_u64(0, "dup", 1);
  t.insert_u64(0, "dup", 2);
  EXPECT_EQ(t.lookup_all("dup").size(), 2u);
  EXPECT_EQ(t.entry_count(), 2u);
}

TEST(HostArenaTableTest, MultiValuedGroups) {
  gpusim::RunStats stats;
  ChainedTableConfig cfg;
  cfg.org = core::Organization::kMultiValued;
  ArenaTable t(stats, cfg);
  auto ins = [&](std::string_view k, std::string_view v) {
    t.insert(0, k, std::as_bytes(std::span{v.data(), v.size()}));
  };
  ins("k", "v1");
  ins("k", "v2");
  ins("j", "v3");
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.value_count(), 3u);
  EXPECT_EQ(t.lookup_group("k")->size(), 2u);
}

TEST(HostArenaTableTest, ParallelInsertsMatchSerialReference) {
  Rig rig(1u << 16, /*workers=*/4);
  ChainedTableConfig cfg;
  cfg.combiner = core::combine_sum_u64;
  ArenaTable t(rig.stats, cfg);
  constexpr int kN = 50000, kKeys = 500;
  rig.pool.run_parties(4, [&](std::size_t party) {
    for (int i = static_cast<int>(party); i < kN; i += 4)
      t.insert_u64(static_cast<std::uint32_t>(party),
                   "k" + std::to_string(i % kKeys), 1);
  });
  EXPECT_EQ(t.entry_count(), static_cast<std::size_t>(kKeys));
  std::uint64_t total = 0;
  t.for_each([&](std::string_view, std::span<const std::byte> v) {
    total += as_u64(v);
  });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kN));
}

TEST(HostArenaTableTest, TracksAllocationFootprint) {
  gpusim::RunStats stats;
  ChainedTableConfig cfg;
  cfg.combiner = core::combine_sum_u64;
  ArenaTable t(stats, cfg);
  EXPECT_EQ(t.allocated_bytes(), 0u);
  t.insert_u64(0, "key", 1);
  EXPECT_GT(t.allocated_bytes(), 0u);
  const std::size_t once = t.allocated_bytes();
  t.insert_u64(0, "key", 1);  // combine: no new allocation
  EXPECT_EQ(t.allocated_bytes(), once);
}

TEST(HostArenaTableTest, BucketLoadSeesHotKey) {
  gpusim::RunStats stats;
  ChainedTableConfig cfg;
  cfg.combiner = core::combine_sum_u64;
  ArenaTable t(stats, cfg);
  for (int i = 0; i < 100; ++i) t.insert_u64(0, "hot", 1);
  for (int i = 0; i < 50; ++i) t.insert_u64(0, "k" + std::to_string(i), 1);
  const auto load = t.bucket_load();
  EXPECT_EQ(load.total_accesses, 150u);
  EXPECT_GE(load.max_bucket_accesses, 100u);
}

// ---- ChainedHashTable<PinnedRegion> ----

TEST(PinnedRegionTableTest, CombiningCorrectAndRemoteMetered) {
  Rig rig(1u << 20);
  ChainedTableConfig cfg;
  cfg.combiner = core::combine_sum_u64;
  cfg.num_buckets = 256;
  PinnedTable t(rig.ctx, cfg);
  for (int i = 0; i < 100; ++i)
    t.insert_u64(0, "key-" + std::to_string(i % 10), 1);
  EXPECT_EQ(t.entry_count(), 10u);
  EXPECT_EQ(as_u64(*t.lookup("key-3")), 10u);
  const auto p = rig.dev.bus().snapshot();
  EXPECT_GE(p.remote_txns, 100u);  // every insert crossed the bus
  EXPECT_GT(p.remote_bytes, 0u);
  EXPECT_EQ(p.h2d_bytes, 0u);  // no bulk transfers in this design
}

TEST(PinnedRegionTableTest, MultiValuedGroupsSurvive) {
  Rig rig(1u << 20);
  ChainedTableConfig cfg;
  cfg.org = core::Organization::kMultiValued;
  PinnedTable t(rig.ctx, cfg);
  auto ins = [&](std::string_view k, std::string_view v) {
    t.insert(0, k, std::as_bytes(std::span{v.data(), v.size()}));
  };
  ins("url", "a");
  ins("url", "b");
  EXPECT_EQ(t.lookup_group("url")->size(), 2u);
  std::size_t groups = 0;
  t.for_each_group([&](std::string_view,
                       const std::vector<std::span<const std::byte>>&) {
    ++groups;
  });
  EXPECT_EQ(groups, 1u);
}

TEST(PinnedRegionTableTest, ProbesCostRemoteTransactions) {
  Rig rig(1u << 20);
  ChainedTableConfig cfg;
  cfg.combiner = core::combine_sum_u64;
  cfg.num_buckets = 1;  // force one long chain
  PinnedTable t(rig.ctx, cfg);
  for (int i = 0; i < 20; ++i) t.insert_u64(0, "k" + std::to_string(i), 1);
  const auto before = rig.dev.bus().snapshot().remote_txns;
  t.insert_u64(0, "k19", 1);  // probes the chain remotely
  const auto after = rig.dev.bus().snapshot().remote_txns;
  EXPECT_GT(after, before);
}

// Basic-organization counters of both memory policies, recorded from the
// separate CPU and pinned table implementations this table replaced (no app
// uses kBasic, so the engine-level identity test in engine_test.cpp cannot
// cover it).
TEST(ChainedTableCounterTest, BasicOrganizationMatchesRecordedCounters) {
  const auto fill = [](auto& t) {
    Rng rng(5);
    for (int i = 0; i < 2000; ++i)
      t.insert_u64(0, "k" + std::to_string(rng.below(300)), i);
  };
  const ChainedTableConfig cfg{.org = core::Organization::kBasic,
                               .num_buckets = 64};
  gpusim::StatsSnapshot expected;
  expected.hash_ops = 2000u;
  expected.inserts_new = 2000u;
  expected.alloc_ops = 2000u;
  {
    gpusim::RunStats stats;
    ArenaTable t(stats, cfg);
    fill(t);
    EXPECT_EQ(t.entry_count(), 2000u);
    EXPECT_EQ(t.allocated_bytes(), 64000u);
    expected.lock_acquires = 2000u;  // bucket locks
    EXPECT_EQ(stats.snapshot(), expected);
  }
  {
    Rig rig(1u << 20, /*workers=*/1);
    PinnedTable t(rig.ctx, cfg);
    fill(t);
    EXPECT_EQ(t.entry_count(), 2000u);
    expected.lock_acquires = 4000u;  // bucket locks + the region's heap lock
    EXPECT_EQ(rig.stats.snapshot(), expected);
    const auto p = rig.dev.bus().snapshot();
    EXPECT_EQ(p.remote_txns, 2000u);  // one materialization per pair
    EXPECT_EQ(p.remote_bytes, 64000u);
  }
}

// ---- paging simulator ----

TEST(PagingSimTest, NoReplacementsWhenEverythingFits) {
  const std::uint64_t trace[] = {0, 4096, 8192, 0, 4096, 8192};
  const auto r = simulate_lru(trace, 4096, 1u << 20);
  EXPECT_EQ(r.replacements, 0u);
  EXPECT_EQ(r.bytes_transferred, 0u);
  EXPECT_EQ(r.pages_touched, 3u);
  EXPECT_EQ(r.accesses, 6u);
}

TEST(PagingSimTest, LruEvictsLeastRecentlyUsed) {
  // Cache of 2 pages; touch A,B then A again, then C (evicts B), then B.
  const std::uint64_t A = 0, B = 4096, C = 8192;
  const std::uint64_t trace[] = {A, B, A, C, B};
  const auto r = simulate_lru(trace, 4096, 2 * 4096);
  // C misses at capacity (1 replacement: evicts B), B misses (evicts A).
  EXPECT_EQ(r.replacements, 2u);
  EXPECT_EQ(r.bytes_transferred, 2u * 4096u);
}

TEST(PagingSimTest, ColdFillsAreFree) {
  // The paper counts replacements only ("all pages are initially GPU
  // resident"): first touches below capacity are not charged.
  const std::uint64_t trace[] = {0, 4096, 8192, 12288};
  const auto r = simulate_lru(trace, 4096, 4 * 4096);
  EXPECT_EQ(r.replacements, 0u);
}

TEST(PagingSimTest, SmallerMemoryNeverReducesTransfers) {
  Rng rng(5);
  std::vector<std::uint64_t> trace;
  for (int i = 0; i < 20000; ++i) trace.push_back(rng.below(1u << 20));
  std::uint64_t prev = 0;
  for (const std::uint64_t mem :
       {1u << 20, 1u << 19, 1u << 18, 1u << 17, 1u << 16}) {
    const auto r = simulate_lru(trace, 4096, mem);
    EXPECT_GE(r.bytes_transferred, prev) << "memory " << mem;
    prev = r.bytes_transferred;
  }
}

TEST(PagingSimTest, LargerPagesTransferMoreBytesUnderRandomAccess) {
  Rng rng(6);
  std::vector<std::uint64_t> trace;
  for (int i = 0; i < 20000; ++i) trace.push_back(rng.below(1u << 22));
  const auto small = simulate_lru(trace, 4096, 1u << 20);
  const auto big = simulate_lru(trace, 64u << 10, 1u << 20);
  EXPECT_GT(big.bytes_transferred, small.bytes_transferred);
}

TEST(TracedTableTest, CountsLikeAReferenceMap) {
  TracedCombiningTable t(1u << 8);
  std::unordered_map<std::string, int> ref;
  Rng rng(8);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "url-" + std::to_string(rng.below(300));
    t.insert_count(key);
    ref[key]++;
  }
  EXPECT_EQ(t.entry_count(), ref.size());
  EXPECT_GT(t.table_bytes(), (1u << 8) * 16u);  // bucket region + entries
  // Trace: every insert touches the bucket head at least.
  EXPECT_GE(t.trace().size(), 5000u);
}

}  // namespace
}  // namespace sepo::baselines
