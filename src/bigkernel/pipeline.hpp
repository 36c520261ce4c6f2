// BigKernel-style input pipeline (reproduction of the substrate the paper
// depends on, [10] Mokhtari & Stumm, IPDPS'14).
//
// The raw input lives in host memory. It is cut into chunks of consecutive
// records; each chunk is staged into one of a small ring of device-resident
// input buffers (a metered host-to-device transfer) and then processed by a
// kernel over the chunk's records. The pipeline enqueues both onto the
// ExecContext's streams: the kernel for chunk k waits on chunk k's staging
// event, and staging into a ring slot waits on the event of the kernel that
// last read that slot. The ring is therefore real double-buffering — with
// N staging buffers at most N transfers can run ahead of compute, and with
// one buffer staging and compute fully serialize (DESIGN.md §5).
//
// Under SEPO the same input may be staged multiple times — once per
// iteration — but chunks whose records have all been processed are skipped,
// and a pass can be cut short by a halt predicate (Basic organization's 50%
// rule). This is the "reorganizes the computation so as to minimize CPU-GPU
// data transfers" part of the paper's §I.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "bigkernel/staging_totals.hpp"
#include "common/progress.hpp"
#include "common/strings.hpp"
#include "core/sepo.hpp"
#include "gpusim/exec_context.hpp"

namespace sepo::bigkernel {

struct PipelineConfig {
  std::size_t records_per_chunk = 4096;
  std::size_t num_staging_buffers = 4;  // ring of device input buffers
  std::size_t max_chunk_bytes = 1u << 20;
  std::size_t grid_threads = 0;  // 0 = one virtual thread per record
};

// A task processes one input record (device-resident view) and reports
// SUCCESS or POSTPONE (paper §III-B).
using TaskFn = std::function<core::Status(std::size_t rec_id,
                                          std::string_view body)>;

// Retry prefetch (DESIGN.md §5a): before a kernel runs record r it asks the
// table to warm what a postponed record's re-execution touches first — for
// record r + kPrefetchLineAhead the bucket line its retry hint names, and
// for record r + kPrefetchHeadAhead (whose line is cached by then) the head
// entry of that bucket's chain. Only records that are not done and carry a
// hint (ProgressTracker::retry_hint) are prefetched.
enum class PrefetchStage { kBucketLine, kChainHead };
inline constexpr std::size_t kPrefetchLineAhead = 8;
inline constexpr std::size_t kPrefetchHeadAhead = 4;
// Must touch no simulated state: counters, journal, locks or table data.
using PrefetchFn = std::function<void(PrefetchStage, std::uint32_t hint)>;

struct PassResult : StagingTotals {
  bool halted = false;
};

class InputPipeline {
 public:
  // Allocates the staging ring in device memory (static allocation: the
  // staging buffers are among the "other data structures" that shrink what
  // the heap may claim, §IV-A).
  InputPipeline(gpusim::ExecContext& ctx, PipelineConfig cfg);

  // One pass over all records not yet marked done in `progress`:
  // stages pending chunks and runs `task` on each pending record; marks
  // records done on SUCCESS. `halted` is polled between records; when it
  // returns true the pass stops issuing new tasks (Figure 5 (a)).
  // `prefetch`, when set, warms the host cache for records ahead of the one
  // running (see PrefetchFn); results and RunStats do not depend on it.
  PassResult run_pass(std::string_view input, const RecordIndex& index,
                      ProgressTracker& progress, const TaskFn& task,
                      const std::function<bool()>& halted = {},
                      const PrefetchFn& prefetch = {});

  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] gpusim::ExecContext& ctx() noexcept { return ctx_; }

  // Staging-ring state for the occupancy sampler (gpusim::OccupancySample):
  // slot count, and how many slots are still owned by a kernel whose
  // simulated completion lies after `now`.
  [[nodiscard]] std::uint32_t staging_slot_count() const noexcept {
    return static_cast<std::uint32_t>(staging_.size());
  }
  [[nodiscard]] std::uint32_t staging_busy(double now) const noexcept {
    std::uint32_t n = 0;
    for (const gpusim::Event& e : last_use_)
      if (e.at > now) ++n;
    return n;
  }

 private:
  gpusim::ExecContext& ctx_;
  PipelineConfig cfg_;
  std::vector<gpusim::DevPtr> staging_;  // ring buffers in device memory
  // Completion event of the kernel that last read each ring slot; restaging
  // the slot waits on it. Persists across passes: an iteration's first
  // transfer still contends with the tail of the previous pass.
  std::vector<gpusim::Event> last_use_;
};

}  // namespace sepo::bigkernel
