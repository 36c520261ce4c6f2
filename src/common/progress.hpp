// Per-task progress tracking for the SEPO model.
//
// The paper's applications emit exactly one KV pair per input record, so a
// one-bit-per-record bitmap suffices (§III-B). Our MapReduce runtime also
// supports map functions that emit several pairs per record; for those, a
// record is "done" only when all of its emissions have been accepted, and a
// per-record resume counter remembers how many leading emissions already
// succeeded so re-execution (the SEPO re-issue) skips them instead of
// double-inserting. See DESIGN.md §2 (mapreduce).
//
// The same per-record slot keeps a retry hint: the low 32 bits of the hash
// of the key whose insert postponed the record. A re-execution's first
// insert is exactly that emission, so the pipeline can warm its bucket
// before the record runs again (DESIGN.md §5a). 0 means "no hint"; a key
// whose hash has 32 low zero bits simply goes without one.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/bitmap.hpp"

namespace sepo {

class ProgressTracker {
 public:
  ProgressTracker() = default;

  explicit ProgressTracker(std::size_t num_tasks, bool multi_emit = false) {
    reset(num_tasks, multi_emit);
  }

  void reset(std::size_t num_tasks, bool multi_emit = false) {
    done_.reset(num_tasks);
    multi_emit_ = multi_emit;
    if (multi_emit) {
      slots_.assign(num_tasks, Slot{});
    } else {
      slots_.clear();
    }
  }

  [[nodiscard]] std::size_t num_tasks() const noexcept { return done_.size(); }

  [[nodiscard]] bool is_done(std::size_t task) const noexcept {
    return done_.test(task);
  }

  // Marks `task` fully processed. Returns true if it was not done before.
  bool mark_done(std::size_t task) noexcept { return done_.set(task); }

  // How many leading emissions of `task` have already been accepted.
  [[nodiscard]] std::uint32_t resume_point(std::size_t task) const noexcept {
    return multi_emit_ ? slots_[task].resume.load(std::memory_order_acquire)
                       : 0;
  }

  // Records that emission index `idx` of `task` succeeded. Emissions succeed
  // in order within one (re-)execution of the task, so a simple store of
  // idx+1 is correct: only the single virtual thread executing the task
  // writes its counter.
  void advance(std::size_t task, std::uint32_t idx) noexcept {
    if (multi_emit_)
      slots_[task].resume.store(idx + 1, std::memory_order_release);
  }

  // The retry hint of `task` (see above); 0 when it has none. Trackers
  // without resume slots (multi_emit == false) keep no hints.
  [[nodiscard]] std::uint32_t retry_hint(std::size_t task) const noexcept {
    return multi_emit_ ? slots_[task].hint.load(std::memory_order_relaxed)
                       : 0;
  }

  // Records that `task` postponed on an insert of a key with hash `hash`.
  // Written only by the virtual thread executing the task; read by the
  // prefetcher of other tasks, for which any value is harmless.
  void set_retry_hint(std::size_t task, std::uint64_t hash) noexcept {
    if (multi_emit_)
      slots_[task].hint.store(static_cast<std::uint32_t>(hash),
                               std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t done_count() const noexcept { return done_.count(); }
  [[nodiscard]] bool all_done() const noexcept { return done_.all(); }

  [[nodiscard]] std::size_t first_pending_from(std::size_t from) const noexcept {
    return done_.first_unset_from(from);
  }

  [[nodiscard]] const AtomicBitmap& bitmap() const noexcept { return done_; }

 private:
  struct Slot {
    std::atomic<std::uint32_t> resume{0};
    std::atomic<std::uint32_t> hint{0};
    Slot() = default;
    Slot(const Slot& o)
        : resume(o.resume.load(std::memory_order_relaxed)),
          hint(o.hint.load(std::memory_order_relaxed)) {}
    Slot& operator=(const Slot& o) {
      resume.store(o.resume.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
      hint.store(o.hint.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      return *this;
    }
  };

  AtomicBitmap done_;
  std::vector<Slot> slots_;
  bool multi_emit_ = false;
};

}  // namespace sepo
