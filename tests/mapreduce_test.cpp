// Tests for the MapReduce stack: our SEPO runtime (§V), the Phoenix++-style
// CPU baseline, and the MapCG-style GPU baseline — all validated against
// sequential references, including under heaps small enough to force many
// SEPO iterations with multi-emission map functions.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "baselines/mapcg.hpp"
#include "baselines/phoenix.hpp"
#include "common/hashing.hpp"
#include "common/random.hpp"
#include "mapreduce/runtime.hpp"
#include "mapreduce/sepo_emitter.hpp"
#include "test_util.hpp"

namespace sepo::mapreduce {
namespace {

using test::Rig;
using test::as_u64;

void map_words(std::string_view record, Emitter& em) {
  std::size_t start = 0;
  while (start < record.size()) {
    std::size_t end = record.find(' ', start);
    if (end == std::string_view::npos) end = record.size();
    if (end > start) {
      if (em.emit_u64(record.substr(start, end - start), 1) ==
          core::Status::kPostpone)
        return;
    }
    start = end + 1;
  }
}

void map_pairs(std::string_view record, Emitter& em) {
  const std::size_t sp = record.find(' ');
  if (sp == std::string_view::npos) return;
  (void)em.emit(record.substr(sp + 1),
                std::as_bytes(std::span{record.data(), sp}));
}

std::string word_input(int lines, int vocab, std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream os;
  for (int i = 0; i < lines; ++i) {
    const int words = 3 + static_cast<int>(rng.below(8));
    for (int w = 0; w < words; ++w)
      os << "w" << rng.below(static_cast<std::uint64_t>(vocab))
         << (w + 1 < words ? ' ' : '\n');
  }
  return os.str();
}

std::unordered_map<std::string, std::uint64_t> word_reference(
    std::string_view input) {
  std::unordered_map<std::string, std::uint64_t> ref;
  const RecordIndex idx = index_lines(input);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const std::string_view body = idx.record(input.data(), i);
    std::size_t start = 0;
    while (start < body.size()) {
      std::size_t end = body.find(' ', start);
      if (end == std::string_view::npos) end = body.size();
      if (end > start) ref[std::string(body.substr(start, end - start))]++;
      start = end + 1;
    }
  }
  return ref;
}

// ---- our runtime ----

struct RuntimeRig {
  explicit RuntimeRig(std::size_t device_bytes) : rig(device_bytes) {
    cfg.pipeline.records_per_chunk = 256;
    cfg.pipeline.max_chunk_bytes = 16u << 10;
    cfg.pipeline.num_staging_buffers = 2;
    cfg.table.num_buckets = 1u << 10;
    cfg.table.buckets_per_group = 128;
    cfg.table.page_size = 2u << 10;
    runtime = std::make_unique<MapReduceRuntime>(rig.ctx,
                                                 cfg);
  }

  Rig rig;
  RuntimeConfig cfg;
  std::unique_ptr<MapReduceRuntime> runtime;
};

TEST(MapReduceRuntimeTest, WordCountMatchesReference) {
  RuntimeRig r(2u << 20);
  const std::string input = word_input(2000, 200, 1);
  const RunOutcome out = r.runtime->run(
      input, {.mode = Mode::kMapReduce, .map = map_words,
              .combine = core::combine_sum_u64});
  const auto ref = word_reference(input);
  ASSERT_EQ(out.table->entry_count(), ref.size());
  out.table->for_each([&](std::string_view k, std::span<const std::byte> v) {
    const auto it = ref.find(std::string(k));
    ASSERT_NE(it, ref.end()) << k;
    EXPECT_EQ(as_u64(v), it->second) << k;
  });
}

TEST(MapReduceRuntimeTest, MultiEmitSurvivesTinyHeap) {
  // The heap is small enough that map instances are postponed mid-record;
  // resume counters must prevent double counting (DESIGN.md, mapreduce).
  RuntimeRig r(320u << 10);
  const std::string input = word_input(9000, 30000, 2);
  const RunOutcome out = r.runtime->run(
      input, {.mode = Mode::kMapReduce, .map = map_words,
              .combine = core::combine_sum_u64});
  EXPECT_GT(out.driver.iterations, 1u);
  const auto ref = word_reference(input);
  std::uint64_t total = 0, ref_total = 0;
  out.table->for_each([&](std::string_view, std::span<const std::byte> v) {
    total += as_u64(v);
  });
  for (const auto& [k, v] : ref) ref_total += v;
  EXPECT_EQ(total, ref_total);
  ASSERT_EQ(out.table->entry_count(), ref.size());
}

TEST(MapReduceRuntimeTest, MapGroupCollectsAllValues) {
  RuntimeRig r(2u << 20);
  std::ostringstream os;
  std::map<std::string, std::multiset<std::string>> ref;
  Rng rng(3);
  for (int i = 0; i < 3000; ++i) {
    const std::string v = "v" + std::to_string(i);
    const std::string k = "k" + std::to_string(rng.below(100));
    os << v << ' ' << k << '\n';
    ref[k].insert(v);
  }
  const std::string input = os.str();
  const RunOutcome out =
      r.runtime->run(input, {.mode = Mode::kMapGroup, .map = map_pairs});
  std::size_t groups = 0;
  out.table->for_each_group(
      [&](std::string_view k,
          const std::vector<std::span<const std::byte>>& vals) {
        ++groups;
        const auto it = ref.find(std::string(k));
        ASSERT_NE(it, ref.end());
        std::multiset<std::string> got;
        for (const auto& v : vals) got.insert(test::bytes_to_string(v));
        EXPECT_EQ(got, it->second);
      });
  EXPECT_EQ(groups, ref.size());
}

TEST(MapReduceRuntimeTest, SecondRunRejected) {
  RuntimeRig r(2u << 20);
  const std::string input = word_input(100, 10, 4);
  const MrSpec spec{.mode = Mode::kMapReduce, .map = map_words,
                    .combine = core::combine_sum_u64};
  (void)r.runtime->run(input, spec);
  EXPECT_THROW((void)r.runtime->run(input, spec), std::logic_error);
}

TEST(MapReduceRuntimeTest, MapReduceNeedsCombine) {
  RuntimeRig r(2u << 20);
  EXPECT_THROW((void)r.runtime->run(
                   "a b\n", {.mode = Mode::kMapReduce, .map = map_words}),
               std::invalid_argument);
}

TEST(MapReduceRuntimeTest, CustomPartitioner) {
  RuntimeRig r(2u << 20);
  // Partition on ';' instead of newline.
  const std::string input = "a b;c a;b b b";
  const RunOutcome out = r.runtime->run(
      input,
      {.mode = Mode::kMapReduce, .map = map_words,
       .combine = core::combine_sum_u64},
      [](std::string_view in) {
        RecordIndex idx;
        std::size_t start = 0;
        while (start < in.size()) {
          std::size_t end = in.find(';', start);
          if (end == std::string_view::npos) end = in.size();
          idx.offsets.push_back(start);
          idx.lengths.push_back(static_cast<std::uint32_t>(end - start));
          start = end + 1;
        }
        return idx;
      });
  EXPECT_EQ(*out.table->lookup_u64("b"), 4u);
  EXPECT_EQ(*out.table->lookup_u64("a"), 2u);
}

// ---- retry hints (SepoEmitter) ----

// A table whose heap holds two pages, so a handful of distinct keys from
// different bucket groups postpones.
struct HintRig {
  HintRig() : rig(1u << 20) {
    core::HashTableConfig cfg;
    cfg.org = core::Organization::kCombining;
    cfg.combiner = core::combine_sum_u64;
    cfg.num_buckets = 1u << 10;
    cfg.buckets_per_group = 128;
    cfg.page_size = 2u << 10;
    cfg.heap_bytes = 4u << 10;
    table = std::make_unique<core::SepoHashTable>(rig.ctx, cfg);
  }

  std::vector<std::uint32_t> accesses() {
    std::vector<std::uint32_t> a;
    for (std::uint32_t b = 0; b < table->store().num_buckets(); ++b)
      a.push_back(table->store().line(b).accesses);
    return a;
  }

  Rig rig;
  std::unique_ptr<core::SepoHashTable> table;
};

std::string hint_key(int i) { return "key-" + std::to_string(i); }

TEST(RetryHintTest, PostponedEmitLeavesItsKeysHash) {
  HintRig r;
  ProgressTracker progress(2, /*multi_emit=*/true);
  SepoEmitter em(*r.table, progress, 1);
  int failed_at = -1;
  for (int i = 0; i < 200 && failed_at < 0; ++i)
    if (em.emit_u64(hint_key(i), 1) == core::Status::kPostpone) failed_at = i;
  ASSERT_GE(failed_at, 0) << "the two-page heap never ran dry";
  EXPECT_EQ(progress.retry_hint(1),
            static_cast<std::uint32_t>(hash_key(hint_key(failed_at))));
  EXPECT_EQ(progress.resume_point(1), static_cast<std::uint32_t>(failed_at));
  EXPECT_EQ(progress.retry_hint(0), 0u);  // record 0 never ran
}

TEST(RetryHintTest, RecordThatNeverPostponesHasNoHint) {
  HintRig r;
  ProgressTracker progress(1, /*multi_emit=*/true);
  SepoEmitter em(*r.table, progress, 0);
  for (int i = 0; i < 3; ++i)  // one key: the two pages never run dry
    ASSERT_EQ(em.emit_u64(hint_key(0), 1), core::Status::kSuccess);
  EXPECT_EQ(progress.retry_hint(0), 0u);
}

TEST(RetryHintTest, ResumedRecordFirstInsertsIntoTheHintedBucket) {
  HintRig r;
  ProgressTracker progress(1, /*multi_emit=*/true);
  std::vector<std::string> keys;
  {
    SepoEmitter em(*r.table, progress, 0);
    for (int i = 0; i < 200; ++i) {
      keys.push_back(hint_key(i));
      if (em.emit_u64(keys.back(), 1) == core::Status::kPostpone) break;
    }
    ASSERT_TRUE(em.failed());
  }
  keys.push_back("after-the-postponed-key");
  const std::uint32_t hint = progress.retry_hint(0);
  ASSERT_NE(hint, 0u);
  r.table->end_iteration();  // frees the heap, as the driver does
  r.table->begin_iteration();

  // Re-execute: the accepted prefix is skipped, and the first emit that
  // reaches the table must take the hinted bucket.
  SepoEmitter em(*r.table, progress, 0);
  std::vector<std::uint32_t> before = r.accesses();
  bool checked = false;
  for (const std::string& k : keys) {
    ASSERT_EQ(em.emit_u64(k, 1), core::Status::kSuccess) << k;
    const std::vector<std::uint32_t> after = r.accesses();
    if (after == before) continue;
    for (std::uint32_t b = 0; b < after.size(); ++b) {
      if (after[b] != before[b]) {
        EXPECT_EQ(b, r.table->store().bucket_of(std::uint64_t{hint}));
      }
    }
    checked = true;
    break;
  }
  EXPECT_TRUE(checked);
}

// ---- Phoenix baseline ----

TEST(PhoenixTest, WordCountMatchesReference) {
  Rig rig(1u << 16, /*workers=*/2);
  baselines::PhoenixRuntime phoenix(rig.pool, rig.stats, {.num_threads = 4});
  const std::string input = word_input(3000, 300, 5);
  const auto table = phoenix.run(
      input, {.mode = Mode::kMapReduce, .map = map_words,
              .combine = core::combine_sum_u64});
  const auto ref = word_reference(input);
  ASSERT_EQ(table->entry_count(), ref.size());
  table->for_each([&](std::string_view k, std::span<const std::byte> v) {
    EXPECT_EQ(as_u64(v), ref.at(std::string(k))) << k;
  });
}

TEST(PhoenixTest, MapGroupKeepsEveryValue) {
  Rig rig(1u << 16, /*workers=*/2);
  baselines::PhoenixRuntime phoenix(rig.pool, rig.stats, {.num_threads = 4});
  std::ostringstream os;
  for (int i = 0; i < 1000; ++i) os << "v" << i << " k" << (i % 7) << "\n";
  const auto table =
      phoenix.run(os.str(), {.mode = Mode::kMapGroup, .map = map_pairs});
  EXPECT_EQ(table->entry_count(), 7u);
  EXPECT_EQ(table->value_count(), 1000u);
}

// ---- MapCG baseline ----

TEST(MapCgTest, WordCountReducesCorrectly) {
  Rig rig(2u << 20);
  baselines::MapCgRuntime mapcg(rig.ctx,
                                {.num_buckets = 1u << 10});
  const std::string input = word_input(1500, 150, 6);
  mapcg.run(input, {.mode = Mode::kMapReduce, .map = map_words,
                    .combine = core::combine_sum_u64});
  const auto ref = word_reference(input);
  EXPECT_EQ(mapcg.key_count(), ref.size());
  std::size_t checked = 0;
  mapcg.for_each([&](std::string_view k, std::span<const std::byte> v) {
    EXPECT_EQ(as_u64(v), ref.at(std::string(k))) << k;
    ++checked;
  });
  EXPECT_EQ(checked, ref.size());
  EXPECT_GT(rig.stats.snapshot().alloc_ops, 0u);
}

TEST(MapCgTest, FailsWhenDeviceMemoryExhausted) {
  Rig rig(96u << 10);  // tiny device
  baselines::MapCgRuntime mapcg(rig.ctx,
                                {.num_buckets = 256});
  const std::string input = word_input(4000, 4000, 7);
  EXPECT_THROW(mapcg.run(input, {.mode = Mode::kMapReduce, .map = map_words,
                                 .combine = core::combine_sum_u64}),
               baselines::MapCgOutOfMemory);
}

// The input fits but the table does not: the arena runs dry mid-map. At one
// worker the failing allocation is a pure function of the input, so every
// allocation attempt up to it is pinned (recorded from the hand-written
// MapCG table the shared chained table replaced). At four workers the
// failure unwinds out of the table's insert on pool threads that hold a
// bucket lock; the run must still surface it as MapCgOutOfMemory.
TEST(MapCgTest, ArenaExhaustionFailsTheRun) {
  const std::string input = word_input(4000, 4000, 7);
  const MrSpec spec{.mode = Mode::kMapReduce, .map = map_words,
                    .combine = core::combine_sum_u64};
  {
    Rig rig(256u << 10, /*workers=*/1);
    baselines::MapCgRuntime mapcg(rig.ctx, {.num_buckets = 256});
    EXPECT_THROW(mapcg.run(input, spec), baselines::MapCgOutOfMemory);
    const gpusim::StatsSnapshot s = rig.stats.snapshot();
    EXPECT_EQ(s.alloc_ops, 4009u);
    EXPECT_EQ(s.alloc_fails, 1u);
    EXPECT_EQ(s.records_processed, 344u);
    EXPECT_EQ(s.inserts_new, 1734u);
    EXPECT_EQ(s.value_appends, 2274u);
  }
  Rig rig(256u << 10, /*workers=*/4);
  baselines::MapCgRuntime mapcg(rig.ctx, {.num_buckets = 256});
  EXPECT_THROW(mapcg.run(input, spec), baselines::MapCgOutOfMemory);
  EXPECT_GE(rig.stats.snapshot().alloc_fails, 1u);
}

TEST(MapCgTest, GroupModeKeepsValueLists) {
  Rig rig(2u << 20);
  baselines::MapCgRuntime mapcg(rig.ctx,
                                {.num_buckets = 256});
  std::ostringstream os;
  for (int i = 0; i < 500; ++i) os << "v" << i << " k" << (i % 5) << "\n";
  const std::string input = os.str();
  mapcg.run(input, {.mode = Mode::kMapGroup, .map = map_pairs});
  EXPECT_EQ(mapcg.key_count(), 5u);
  EXPECT_EQ(mapcg.value_count(), 500u);
  std::size_t values = 0;
  mapcg.for_each_group([&](std::string_view,
                           const std::vector<std::span<const std::byte>>& v) {
    values += v.size();
  });
  EXPECT_EQ(values, 500u);
}

}  // namespace
}  // namespace sepo::mapreduce
