// Unit tests for ProgressTracker — per-task completion plus the multi-emit
// resume counters used by re-executed map instances.
#include <gtest/gtest.h>

#include "common/progress.hpp"

namespace sepo {
namespace {

TEST(ProgressTest, SingleEmitActsLikeBitmap) {
  ProgressTracker p(100);
  EXPECT_FALSE(p.is_done(5));
  EXPECT_TRUE(p.mark_done(5));
  EXPECT_FALSE(p.mark_done(5));
  EXPECT_TRUE(p.is_done(5));
  EXPECT_EQ(p.done_count(), 1u);
  EXPECT_FALSE(p.all_done());
}

TEST(ProgressTest, ResumePointZeroWithoutMultiEmit) {
  ProgressTracker p(10, /*multi_emit=*/false);
  p.advance(3, 7);  // no-op
  EXPECT_EQ(p.resume_point(3), 0u);
}

TEST(ProgressTest, ResumeAdvancesWithEmissions) {
  ProgressTracker p(10, /*multi_emit=*/true);
  EXPECT_EQ(p.resume_point(2), 0u);
  p.advance(2, 0);
  p.advance(2, 1);
  p.advance(2, 2);
  EXPECT_EQ(p.resume_point(2), 3u);
  // Other tasks unaffected.
  EXPECT_EQ(p.resume_point(3), 0u);
}

TEST(ProgressTest, ReExecutionSkipsAcceptedPrefix) {
  // Simulates the SepoEmitter protocol: first execution accepts emissions
  // 0..2 then fails; re-execution must skip exactly 3.
  ProgressTracker p(4, /*multi_emit=*/true);
  const std::size_t rec = 1;
  for (std::uint32_t e = 0; e < 3; ++e) p.advance(rec, e);
  // record NOT marked done (emission 3 postponed)
  EXPECT_FALSE(p.is_done(rec));
  const std::uint32_t resume = p.resume_point(rec);
  EXPECT_EQ(resume, 3u);
  // second execution: emissions 0,1,2 skipped; 3 succeeds; mark done.
  p.advance(rec, 3);
  EXPECT_TRUE(p.mark_done(rec));
  EXPECT_EQ(p.resume_point(rec), 4u);
}

TEST(ProgressTest, FirstPendingFromSkipsDone) {
  ProgressTracker p(10);
  for (std::size_t i = 0; i < 5; ++i) p.mark_done(i);
  EXPECT_EQ(p.first_pending_from(0), 5u);
  p.mark_done(5);
  EXPECT_EQ(p.first_pending_from(3), 6u);
}

TEST(ProgressTest, AllDoneAfterEveryTask) {
  ProgressTracker p(17, /*multi_emit=*/true);
  for (std::size_t i = 0; i < 17; ++i) p.mark_done(i);
  EXPECT_TRUE(p.all_done());
  EXPECT_EQ(p.done_count(), 17u);
}

TEST(ProgressTest, ResetClearsState) {
  ProgressTracker p(5, /*multi_emit=*/true);
  p.advance(0, 0);
  p.mark_done(0);
  p.reset(8, /*multi_emit=*/true);
  EXPECT_EQ(p.num_tasks(), 8u);
  EXPECT_FALSE(p.is_done(0));
  EXPECT_EQ(p.resume_point(0), 0u);
}

TEST(ProgressTest, RetryHintKeepsLowHashBits) {
  ProgressTracker p(4, /*multi_emit=*/true);
  EXPECT_EQ(p.retry_hint(2), 0u);  // never postponed: no hint
  p.set_retry_hint(2, 0x1234'5678'9abc'def0ULL);
  EXPECT_EQ(p.retry_hint(2), 0x9abc'def0u);
  // The hint shares the resume slot but not its value.
  p.advance(2, 0);
  EXPECT_EQ(p.resume_point(2), 1u);
  EXPECT_EQ(p.retry_hint(2), 0x9abc'def0u);
  // A later postponement of the same record overwrites it.
  p.set_retry_hint(2, 0x42);
  EXPECT_EQ(p.retry_hint(2), 0x42u);
  EXPECT_EQ(p.retry_hint(1), 0u);
  EXPECT_EQ(p.retry_hint(3), 0u);
}

TEST(ProgressTest, SingleEmitTrackerKeepsNoHints) {
  ProgressTracker p(4, /*multi_emit=*/false);
  p.set_retry_hint(1, 0xabcd);  // no-op
  EXPECT_EQ(p.retry_hint(1), 0u);
}

TEST(ProgressTest, ResetClearsRetryHints) {
  ProgressTracker p(5, /*multi_emit=*/true);
  p.set_retry_hint(0, 7);
  p.set_retry_hint(4, 9);
  p.reset(5, /*multi_emit=*/true);
  for (std::size_t t = 0; t < 5; ++t) EXPECT_EQ(p.retry_hint(t), 0u) << t;
}

}  // namespace
}  // namespace sepo
