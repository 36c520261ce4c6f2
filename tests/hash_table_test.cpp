// Unit tests for core::SepoHashTable: single-iteration behaviour of the
// three bucket organizations (paper §IV-B), POSTPONE semantics, and the
// host-table view after finalize.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "core/hash_table.hpp"
#include "gpusim/launch.hpp"
#include "test_util.hpp"

namespace sepo::core {
namespace {

using test::Rig;
using test::as_u64;
using test::bytes_of;

HashTableConfig small_cfg(Organization org) {
  HashTableConfig cfg;
  cfg.org = org;
  cfg.num_buckets = 1u << 10;
  cfg.buckets_per_group = 32;
  cfg.page_size = 4u << 10;
  if (org == Organization::kCombining) cfg.combiner = combine_sum_u64;
  return cfg;
}

TEST(HashTableConfigTest, RejectsNonPowerOfTwoBuckets) {
  Rig rig(4u << 20);
  auto cfg = small_cfg(Organization::kBasic);
  cfg.num_buckets = 1000;
  EXPECT_THROW(SepoHashTable(rig.ctx, cfg),
               std::invalid_argument);
}

TEST(HashTableConfigTest, RejectsCombiningWithoutCombiner) {
  Rig rig(4u << 20);
  auto cfg = small_cfg(Organization::kCombining);
  cfg.combiner = nullptr;
  EXPECT_THROW(SepoHashTable(rig.ctx, cfg),
               std::invalid_argument);
}

TEST(HashTableConfigTest, RejectsZeroBucketsPerGroup) {
  Rig rig(4u << 20);
  auto cfg = small_cfg(Organization::kBasic);
  cfg.buckets_per_group = 0;
  EXPECT_THROW(SepoHashTable(rig.ctx, cfg),
               std::invalid_argument);
}

TEST(HashTableConfigTest, HeapTakesAllRemainingMemory) {
  Rig rig(8u << 20);
  auto cfg = small_cfg(Organization::kBasic);
  SepoHashTable ht(rig.ctx, cfg);
  // Heap pages cover (almost all) remaining memory after static structures.
  EXPECT_GT(ht.page_pool().heap_bytes(), (8u << 20) / 2);
}

TEST(CombiningTest, DuplicateKeysAreSummed) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  EXPECT_EQ(ht.insert_u64("alpha", 1), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("alpha", 2), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("beta", 7), Status::kSuccess);
  ht.end_iteration();
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.lookup_u64("alpha"), 3u);
  EXPECT_EQ(t.lookup_u64("beta"), 7u);
  EXPECT_EQ(t.lookup_u64("gamma"), std::nullopt);
  EXPECT_EQ(t.entry_count(), 2u);
}

TEST(CombiningTest, CombineCountersAreRecorded) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  for (int i = 0; i < 10; ++i) ASSERT_EQ(ht.insert_u64("k", 1), Status::kSuccess);
  const auto s = rig.stats.snapshot();
  EXPECT_EQ(s.inserts_new, 1u);
  EXPECT_EQ(s.combines, 9u);
  EXPECT_EQ(s.hash_ops, 10u);
}

TEST(CombiningTest, ResidentChainHistogramCoversEntries) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  for (int i = 0; i < 200; ++i)
    ASSERT_EQ(ht.insert_u64("key" + std::to_string(i), 1), Status::kSuccess);
  // Captured mid-iteration: end_iteration flushes pages and empties chains.
  const auto hist = ht.resident_chain_histogram();
  ASSERT_FALSE(hist.empty());
  std::uint64_t buckets = 0, entries = 0;
  for (std::size_t len = 0; len < hist.size(); ++len) {
    buckets += hist[len];
    entries += hist[len] * len;  // last bin aggregates: lower bound
  }
  EXPECT_EQ(buckets, (1u << 10));  // every bucket accounted for
  EXPECT_EQ(entries, 200u);        // all chains shorter than the last bin
}

TEST(BasicTest, DuplicateKeysKeptSeparately) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kBasic));
  ht.begin_iteration();
  EXPECT_EQ(ht.insert_u64("dup", 1), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("dup", 2), Status::kSuccess);
  EXPECT_EQ(ht.insert_u64("dup", 3), Status::kSuccess);
  ht.end_iteration();
  const HostTable t = ht.finalize();
  const auto all = t.lookup_all("dup");
  ASSERT_EQ(all.size(), 3u);
  std::multiset<std::uint64_t> vals;
  for (const auto& v : all) vals.insert(as_u64(v));
  EXPECT_EQ(vals, (std::multiset<std::uint64_t>{1, 2, 3}));
}

TEST(BasicTest, NoProbeWorkOnInsert) {
  // The basic organization never traverses the chain on insert.
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kBasic));
  ht.begin_iteration();
  for (int i = 0; i < 100; ++i) ASSERT_EQ(ht.insert_u64("same-key", 1), Status::kSuccess);
  EXPECT_EQ(rig.stats.snapshot().key_compare_bytes, 0u);
  EXPECT_EQ(rig.stats.snapshot().chain_links_walked, 0u);
}

TEST(MultiValuedTest, ValuesGroupUnderOneKey) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kMultiValued));
  ht.begin_iteration();
  auto ins = [&](std::string_view k, std::string_view v) {
    return ht.insert(k, std::as_bytes(std::span{v.data(), v.size()}));
  };
  EXPECT_EQ(ins("http://google.com", "a.html"), Status::kSuccess);
  EXPECT_EQ(ins("http://google.com", "c.html"), Status::kSuccess);
  EXPECT_EQ(ins("http://google.com", "d.html"), Status::kSuccess);
  EXPECT_EQ(ins("http://other.org", "b.html"), Status::kSuccess);
  ht.end_iteration();
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.value_count(), 4u);
  const auto grp = t.lookup_group("http://google.com");
  ASSERT_TRUE(grp.has_value());
  std::multiset<std::string> vals;
  for (const auto& v : *grp) vals.insert(test::bytes_to_string(v));
  EXPECT_EQ(vals, (std::multiset<std::string>{"a.html", "c.html", "d.html"}));
}

TEST(MultiValuedTest, MissingKeyGroupLookupIsNull) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kMultiValued));
  ht.begin_iteration();
  ht.end_iteration();
  const HostTable t = ht.finalize();
  EXPECT_FALSE(t.lookup_group("absent").has_value());
  EXPECT_EQ(t.value_count(), 0u);
}

TEST(PostponeTest, InsertPostponesWhenHeapExhausted) {
  // Tiny heap: two pages only.
  Rig rig(1u << 20);
  HashTableConfig cfg = small_cfg(Organization::kBasic);
  cfg.num_buckets = 64;
  cfg.buckets_per_group = 64;  // one group -> one active page
  cfg.page_size = 1u << 10;
  cfg.heap_bytes = 2u << 10;
  SepoHashTable ht(rig.ctx, cfg);
  ht.begin_iteration();
  int successes = 0, postpones = 0;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    (ht.insert_u64(key, 1) == Status::kSuccess ? successes : postpones)++;
  }
  EXPECT_GT(successes, 0);
  EXPECT_GT(postpones, 0);
  EXPECT_EQ(ht.free_pages(), 0u);
  EXPECT_GE(ht.allocator().postponed_groups(), 1u);
  EXPECT_TRUE(ht.should_halt(0.5));
  const auto s = rig.stats.snapshot();
  EXPECT_EQ(s.alloc_fails, static_cast<std::uint64_t>(postpones));
}

TEST(PostponeTest, CombiningStillCombinesAfterHeapFull) {
  // Paper Figure 5 (c): "even after all pages get full, pairs with duplicate
  // keys are still stored in the hash table".
  Rig rig(1u << 20);
  HashTableConfig cfg = small_cfg(Organization::kCombining);
  cfg.num_buckets = 64;
  cfg.buckets_per_group = 64;
  cfg.page_size = 1u << 10;
  cfg.heap_bytes = 1u << 10;  // one page
  SepoHashTable ht(rig.ctx, cfg);
  ht.begin_iteration();
  ASSERT_EQ(ht.insert_u64("resident", 1), Status::kSuccess);
  // Exhaust the heap with unique keys.
  int postponed = 0;
  for (int i = 0; i < 200; ++i)
    if (ht.insert_u64("filler-" + std::to_string(i), 1) == Status::kPostpone)
      ++postponed;
  ASSERT_GT(postponed, 0);
  // Duplicate of the resident key still succeeds.
  EXPECT_EQ(ht.insert_u64("resident", 41), Status::kSuccess);
  ht.end_iteration();
  const HostTable t = ht.finalize();
  EXPECT_EQ(t.lookup_u64("resident"), 42u);
}

TEST(VariableLengthTest, KeysAndValuesOfManySizes) {
  Rig rig(16u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kBasic));
  ht.begin_iteration();
  std::map<std::string, std::string> ref;
  for (int i = 0; i < 300; ++i) {
    std::string key(1 + (i * 7) % 120, static_cast<char>('a' + i % 26));
    key += std::to_string(i);
    std::string val((i * 13) % 200, static_cast<char>('A' + i % 26));
    ref[key] = val;
    ASSERT_EQ(ht.insert(key, std::as_bytes(std::span{val.data(), val.size()})),
              Status::kSuccess);
  }
  ht.end_iteration();
  const HostTable t = ht.finalize();
  for (const auto& [k, v] : ref) {
    const auto got = t.lookup(k);
    ASSERT_TRUE(got.has_value()) << k;
    EXPECT_EQ(test::bytes_to_string(*got), v);
  }
}

TEST(ConcurrencyTest, ParallelCombiningMatchesSerialSum) {
  Rig rig(32u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  constexpr std::size_t kN = 20000;
  constexpr std::size_t kKeys = 37;  // heavy duplication -> lock contention
  gpusim::launch(rig.pool, rig.stats, kN, [&](std::size_t i) {
    const std::string key = "key-" + std::to_string(i % kKeys);
    ASSERT_EQ(ht.insert_u64(key, 1), Status::kSuccess);
  });
  ht.end_iteration();
  const HostTable t = ht.finalize();
  std::uint64_t total = 0;
  t.for_each([&](std::string_view, std::span<const std::byte> v) {
    total += as_u64(v);
  });
  EXPECT_EQ(total, kN);
  EXPECT_EQ(t.entry_count(), kKeys);
}

TEST(FindResidentTest, FindsOnlyResidentEntries) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  ASSERT_EQ(ht.insert_u64("here", 5), Status::kSuccess);
  const KvEntry* e = ht.find_resident("here");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key(), "here");
  EXPECT_EQ(ht.find_resident("gone"), nullptr);
  // After a flush the entry is no longer device-resident.
  ht.end_iteration();
  ht.begin_iteration();
  EXPECT_EQ(ht.find_resident("here"), nullptr);
}

TEST(TableStatsTest, TracksResidentAndFlushedBytes) {
  Rig rig(8u << 20);
  SepoHashTable ht(rig.ctx,
                   small_cfg(Organization::kCombining));
  ht.begin_iteration();
  ASSERT_EQ(ht.insert_u64("a", 1), Status::kSuccess);
  auto s1 = ht.table_stats();
  EXPECT_GT(s1.resident_entry_bytes, 0u);
  EXPECT_EQ(s1.flushed_bytes, 0u);
  ht.end_iteration();
  auto s2 = ht.table_stats();
  EXPECT_EQ(s2.resident_entry_bytes, 0u);
  EXPECT_EQ(s2.flushed_bytes, s1.resident_entry_bytes);
  EXPECT_EQ(s2.table_bytes, s1.table_bytes);
}

TEST(BucketLineTest, DeviceChargeIsTwoHeadsAndALockWord) {
  // The chain heads live on the host-side bucket line, but the simulated
  // device is charged the compact layout: 16 bytes of heads plus a 4-byte
  // lock word per bucket, so the heap does not shrink for the line.
  Rig rig(1u << 20);
  auto cfg = small_cfg(Organization::kCombining);
  cfg.heap_bytes = cfg.page_size;
  const std::size_t before = rig.dev.static_used();
  SepoHashTable ht(rig.ctx, cfg);
  EXPECT_EQ(rig.dev.static_used() - before,
            std::size_t{cfg.num_buckets} * (16 + 4) + cfg.page_size);
  EXPECT_EQ(sizeof(BucketChainStore::BucketLine), gpusim::kCacheLineBytes);
}

TEST(RetryPrefetchTest, AnyHintLeavesSimulatedStateAlone) {
  for (const Organization org :
       {Organization::kCombining, Organization::kMultiValued}) {
    Rig rig(8u << 20);
    SepoHashTable ht(rig.ctx, small_cfg(org));
    ht.begin_iteration();
    for (int i = 0; i < 300; ++i)
      ASSERT_EQ(ht.insert_u64("k" + std::to_string(i % 97), 1),
                Status::kSuccess);
    const auto warm_everything = [&] {
      for (std::uint32_t h = 0; h < 4 * ht.config().num_buckets; h += 3) {
        ht.prefetch_bucket_line(h * 0x9e3779b9u);
        ht.prefetch_chain_head(h * 0x9e3779b9u);
      }
    };
    const gpusim::StatsSnapshot before = rig.stats.snapshot();
    const gpusim::BucketLoad load = ht.bucket_load();
    const auto hist = ht.resident_chain_histogram();
    warm_everything();
    EXPECT_EQ(rig.stats.snapshot(), before);
    EXPECT_EQ(ht.bucket_load().total_accesses, load.total_accesses);
    EXPECT_EQ(ht.resident_chain_histogram(), hist);
    // Hints that went stale when the flush cleared the device chains.
    ht.end_iteration();
    ht.begin_iteration();
    const gpusim::StatsSnapshot flushed = rig.stats.snapshot();
    warm_everything();
    EXPECT_EQ(rig.stats.snapshot(), flushed);
    const HostTable t = ht.finalize();
    EXPECT_EQ(t.entry_count(), 97u);
  }
}

}  // namespace
}  // namespace sepo::core
