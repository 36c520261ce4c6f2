// Unit tests for the BigKernel-style input pipeline: chunking, staging
// metering, done-chunk skipping, halting.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bigkernel/pipeline.hpp"
#include "test_util.hpp"

namespace sepo::bigkernel {
namespace {

using test::Rig;

std::string lines(int n) {
  std::ostringstream os;
  for (int i = 0; i < n; ++i) os << "record-" << i << "\n";
  return os.str();
}

PipelineConfig small_cfg() {
  PipelineConfig cfg;
  cfg.records_per_chunk = 16;
  cfg.max_chunk_bytes = 1u << 10;
  cfg.num_staging_buffers = 2;
  return cfg;
}

TEST(PipelineTest, ProcessesEveryRecordWithDeviceResidentBodies) {
  Rig rig(1u << 20);
  InputPipeline pipe(rig.ctx, small_cfg());
  const std::string input = lines(100);
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size());
  std::atomic<int> bodies_ok{0};
  const PassResult res = pipe.run_pass(
      input, idx, progress, [&](std::size_t rec, std::string_view body) {
        if (body == "record-" + std::to_string(rec)) bodies_ok.fetch_add(1);
        return core::Status::kSuccess;
      });
  EXPECT_EQ(bodies_ok.load(), 100);
  EXPECT_TRUE(progress.all_done());
  EXPECT_EQ(res.chunks_staged, 7u);  // ceil(100/16)
  EXPECT_EQ(res.chunks_skipped, 0u);
  // Staged bytes cover every record body (newlines between chunks are not
  // re-staged).
  std::size_t body_bytes = 0;
  for (const auto len : idx.lengths) body_bytes += len;
  EXPECT_GE(res.bytes_staged, body_bytes);
  EXPECT_LE(res.bytes_staged, input.size());
}

TEST(PipelineTest, StagingIsMeteredOnTheBus) {
  Rig rig(1u << 20);
  InputPipeline pipe(rig.ctx, small_cfg());
  const std::string input = lines(64);
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size());
  (void)pipe.run_pass(input, idx, progress,
                      [](std::size_t, std::string_view) {
                        return core::Status::kSuccess;
                      });
  const auto p = rig.dev.bus().snapshot();
  EXPECT_EQ(p.h2d_txns, 4u);  // 64/16 chunks
  EXPECT_GT(p.h2d_bytes, 0u);
}

TEST(PipelineTest, FullyDoneChunksAreSkippedWithoutStaging) {
  Rig rig(1u << 20);
  InputPipeline pipe(rig.ctx, small_cfg());
  const std::string input = lines(64);
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size());
  // First pass: accept only records >= 32 (the last two chunks).
  (void)pipe.run_pass(input, idx, progress,
                      [](std::size_t rec, std::string_view) {
                        return rec >= 32 ? core::Status::kSuccess
                                         : core::Status::kPostpone;
                      });
  const auto bus_after_pass1 = rig.dev.bus().snapshot();
  EXPECT_EQ(bus_after_pass1.h2d_txns, 4u);
  // Second pass: the done chunks must not be re-staged.
  const PassResult res2 = pipe.run_pass(
      input, idx, progress, [](std::size_t, std::string_view) {
        return core::Status::kSuccess;
      });
  EXPECT_EQ(res2.chunks_skipped, 2u);
  EXPECT_EQ(res2.chunks_staged, 2u);
  EXPECT_EQ(rig.dev.bus().snapshot().h2d_txns, 6u);
  EXPECT_TRUE(progress.all_done());
}

TEST(PipelineTest, HaltStopsIssuingNewChunks) {
  Rig rig(1u << 20);
  InputPipeline pipe(rig.ctx, small_cfg());
  const std::string input = lines(160);  // 10 chunks
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size());
  std::atomic<int> processed{0};
  const PassResult res = pipe.run_pass(
      input, idx, progress,
      [&](std::size_t, std::string_view) {
        processed.fetch_add(1);
        return core::Status::kSuccess;
      },
      /*halted=*/[&] { return processed.load() >= 40; });
  EXPECT_TRUE(res.halted);
  EXPECT_LT(res.chunks_staged, 10u);
  EXPECT_FALSE(progress.all_done());
}

TEST(PipelineTest, PostponedRecordsStayPending) {
  Rig rig(1u << 20);
  InputPipeline pipe(rig.ctx, small_cfg());
  const std::string input = lines(32);
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size());
  (void)pipe.run_pass(input, idx, progress,
                      [](std::size_t rec, std::string_view) {
                        return rec % 2 == 0 ? core::Status::kSuccess
                                            : core::Status::kPostpone;
                      });
  EXPECT_EQ(progress.done_count(), 16u);
  const auto s = rig.stats.snapshot();
  EXPECT_EQ(s.records_processed, 16u);
  EXPECT_EQ(s.records_postponed, 16u);
}

// ---- retry prefetch ----

// Records 0..63: every third is already done, every even one carries a
// retry hint naming it (0x1000 + rec). Done records with hints stand for
// stale hints and must never be prefetched.
struct PrefetchSetup {
  static constexpr std::size_t kRecords = 64;
  static bool done(std::size_t r) { return r % 3 == 0; }
  static std::uint32_t hint(std::size_t r) {
    return r % 2 == 0 ? static_cast<std::uint32_t>(0x1000 + r) : 0;
  }
  static bool eligible(std::size_t r) { return !done(r) && hint(r) != 0; }

  PrefetchSetup() : progress(kRecords, /*multi_emit=*/true) {
    for (std::size_t r = 0; r < kRecords; ++r) {
      if (done(r)) progress.mark_done(r);
      progress.set_retry_hint(r, hint(r));
    }
  }

  // Runs one pass (odd records postpone) with `prefetch`, returning its
  // result and the counters it produced.
  std::pair<PassResult, gpusim::StatsSnapshot> run(std::size_t workers,
                                                   const PrefetchFn& prefetch) {
    Rig rig(1u << 20, workers);
    InputPipeline pipe(rig.ctx, small_cfg());
    const PassResult res = pipe.run_pass(
        input, idx, progress,
        [](std::size_t rec, std::string_view) {
          return rec % 2 == 0 ? core::Status::kSuccess
                              : core::Status::kPostpone;
        },
        {}, prefetch);
    EXPECT_EQ(rig.dev.bus().snapshot().h2d_txns, res.chunks_staged);
    return {res, rig.stats.snapshot()};
  }

  std::string input = lines(kRecords);
  RecordIndex idx = index_lines(input);
  ProgressTracker progress;
};

TEST(PipelinePrefetchTest, CalledAheadOnlyForPendingHintedRecords) {
  // One worker runs a chunk's records in order, so the calls are exact:
  // record r warms the line of r + 8 and the chain head of r + 4, within
  // its chunk, when that record is pending and hinted.
  PrefetchSetup setup;
  std::vector<std::pair<PrefetchStage, std::uint32_t>> calls;
  (void)setup.run(1, [&](PrefetchStage stage, std::uint32_t hint) {
    calls.emplace_back(stage, hint);
  });
  std::vector<std::pair<PrefetchStage, std::uint32_t>> want;
  const std::size_t chunk = small_cfg().records_per_chunk;
  for (std::size_t lo = 0; lo < PrefetchSetup::kRecords; lo += chunk) {
    bool pending = false;
    for (std::size_t r = lo; r < lo + chunk; ++r)
      pending |= !PrefetchSetup::done(r);
    if (!pending) continue;  // a skipped chunk runs no kernel
    for (std::size_t r = lo; r < lo + chunk; ++r) {
      if (r + kPrefetchLineAhead < lo + chunk &&
          PrefetchSetup::eligible(r + kPrefetchLineAhead))
        want.emplace_back(PrefetchStage::kBucketLine,
                          PrefetchSetup::hint(r + kPrefetchLineAhead));
      if (r + kPrefetchHeadAhead < lo + chunk &&
          PrefetchSetup::eligible(r + kPrefetchHeadAhead))
        want.emplace_back(PrefetchStage::kChainHead,
                          PrefetchSetup::hint(r + kPrefetchHeadAhead));
    }
  }
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(calls, want);
}

TEST(PipelinePrefetchTest, ResultsAndCountersIgnoreThePrefetcher) {
  for (const std::size_t workers : {1u, 4u}) {
    PrefetchSetup with, without;
    std::mutex mu;
    std::set<std::uint32_t> hints;
    const auto [res, stats] =
        with.run(workers, [&](PrefetchStage, std::uint32_t hint) {
          const std::lock_guard<std::mutex> lk(mu);
          hints.insert(hint);
        });
    const auto [base_res, base_stats] = without.run(workers, {});
    EXPECT_EQ(res.chunks_staged, base_res.chunks_staged);
    EXPECT_EQ(res.chunks_skipped, base_res.chunks_skipped);
    EXPECT_EQ(res.bytes_staged, base_res.bytes_staged);
    EXPECT_EQ(res.halted, base_res.halted);
    EXPECT_EQ(stats, base_stats);
    for (std::size_t r = 0; r < PrefetchSetup::kRecords; ++r)
      EXPECT_EQ(with.progress.is_done(r), without.progress.is_done(r)) << r;
    // Whatever the interleaving, no done (stale) or unhinted record was
    // prefetched.
    EXPECT_FALSE(hints.empty());
    for (const std::uint32_t h : hints)
      EXPECT_TRUE(PrefetchSetup::eligible(h - 0x1000)) << h;
  }
}

TEST(PipelineTest, OversizedChunkThrows) {
  Rig rig(1u << 20);
  PipelineConfig cfg = small_cfg();
  cfg.max_chunk_bytes = 8;  // smaller than one record
  InputPipeline pipe(rig.ctx, cfg);
  const std::string input = lines(4);
  const RecordIndex idx = index_lines(input);
  ProgressTracker progress(idx.size());
  EXPECT_THROW((void)pipe.run_pass(input, idx, progress,
                                   [](std::size_t, std::string_view) {
                                     return core::Status::kSuccess;
                                   }),
               std::runtime_error);
}

TEST(PipelineTest, RejectsInvalidConfig) {
  Rig rig(1u << 20);
  PipelineConfig cfg;
  cfg.records_per_chunk = 0;
  EXPECT_THROW(InputPipeline(rig.ctx, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace sepo::bigkernel
