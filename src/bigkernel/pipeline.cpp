#include "bigkernel/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>

namespace sepo::bigkernel {

InputPipeline::InputPipeline(gpusim::ExecContext& ctx, PipelineConfig cfg)
    : ctx_(ctx), cfg_(cfg) {
  if (cfg_.records_per_chunk == 0 || cfg_.num_staging_buffers == 0)
    throw std::invalid_argument("invalid pipeline configuration");
  staging_.reserve(cfg_.num_staging_buffers);
  for (std::size_t i = 0; i < cfg_.num_staging_buffers; ++i)
    staging_.push_back(ctx_.device().alloc_static(cfg_.max_chunk_bytes, 64));
  last_use_.resize(cfg_.num_staging_buffers);
}

PassResult InputPipeline::run_pass(std::string_view input,
                                   const RecordIndex& index,
                                   ProgressTracker& progress,
                                   const TaskFn& task,
                                   const std::function<bool()>& halted,
                                   const PrefetchFn& prefetch) {
  PassResult result;
  const std::size_t n = index.size();
  assert(progress.num_tasks() == n);
  gpusim::Device& dev = ctx_.device();
  gpusim::RunStats& stats = ctx_.stats();
  // Warms record `rec`'s retry target, if it has one (see PrefetchFn).
  const auto warm = [&](std::size_t rec, PrefetchStage stage) {
    if (progress.is_done(rec)) return;
    if (const std::uint32_t hint = progress.retry_hint(rec); hint != 0)
      prefetch(stage, hint);
  };

  std::size_t ring = 0;
  for (std::size_t lo = 0; lo < n; lo += cfg_.records_per_chunk) {
    if (halted && halted()) {
      result.halted = true;
      break;
    }
    const std::size_t hi = std::min(lo + cfg_.records_per_chunk, n);

    // Skip fully-processed chunks: no staging transfer, no kernel.
    if (progress.first_pending_from(lo) >= hi) {
      ++result.chunks_skipped;
      continue;
    }

    // Stage the chunk's raw byte range into the next ring buffer. The
    // transfer cannot start before the kernel that last read this slot has
    // finished — the ring depth is what bounds transfer/compute overlap.
    const std::uint64_t chunk_base = index.offsets[lo];
    const std::uint64_t chunk_end =
        index.offsets[hi - 1] + index.lengths[hi - 1];
    const std::uint64_t chunk_bytes = chunk_end - chunk_base;
    if (chunk_bytes > cfg_.max_chunk_bytes)
      throw std::runtime_error("chunk exceeds staging buffer size");
    const gpusim::DevPtr buf = staging_[ring];
    const gpusim::Event staged = ctx_.stage_h2d(
        buf, input.data() + chunk_base, chunk_bytes, last_use_[ring]);
    ++result.chunks_staged;
    result.bytes_staged += chunk_bytes;

    // Kernel over the chunk's records, dependent on the chunk's staging
    // event. Records read their bodies from the device-resident buffer.
    last_use_[ring] = ctx_.launch(
        hi - lo,
        [&](std::size_t i) {
          const std::size_t rec = lo + i;
          if (prefetch) {
            if (rec + kPrefetchLineAhead < hi)
              warm(rec + kPrefetchLineAhead, PrefetchStage::kBucketLine);
            if (rec + kPrefetchHeadAhead < hi)
              warm(rec + kPrefetchHeadAhead, PrefetchStage::kChainHead);
          }
          stats.add_records_scanned();
          if (progress.is_done(rec)) return;
          if (halted && halted()) return;
          const std::uint64_t off = index.offsets[rec] - chunk_base;
          const std::string_view body{
              reinterpret_cast<const char*>(dev.ptr(buf + off)),
              index.lengths[rec]};
          stats.add_work_units(body.size());
          if (task(rec, body) == core::Status::kSuccess) {
            progress.mark_done(rec);
            stats.add_records_processed();
          } else {
            stats.add_records_postponed();
          }
        },
        {.grid_threads = cfg_.grid_threads}, staged);
    ring = (ring + 1) % staging_.size();
  }
  if (!result.halted && halted && halted()) result.halted = true;
  return result;
}

}  // namespace sepo::bigkernel
