// Per-worker combining buffer for the batched insert pipeline (DESIGN.md
// §5d "Batched inserts and software combining").
//
// A CombineBuffer is a fixed-capacity, open-addressed scratch table private
// to one pool worker. Inserts land here first — no bucket lock, no shared
// cache line — and reach the shared BucketChainStore only when the buffer
// drains (buffer full, or the iteration/finalize boundary). The buffer:
//
//   * memoizes the 64-bit FNV-1a/avalanche hash per record, so neither the
//     scratch probe, the bucket selection, nor the drain rehashes the key;
//   * pre-combines values for the combining organization when the combiner
//     is declared associative+commutative (HashTableConfig
//     ::combiner_assoc_comm) — N records of one hot key become one store
//     operation;
//   * pre-groups records by key for the other organizations (and for
//     non-assoc combiners, whose applications must stay in arrival order),
//     so the drain probes each distinct key's chain once and charges the
//     remaining probes what the first one cost.
//
// Layout is SoA-ish and cache-line friendly: a flat pow2 index of slot ids
// keyed by hash, a dense slot array, a dense arrival log, and one byte arena
// holding key bytes, per-slot combined values, and per-record original
// values. The original value of every record is retained even when it was
// pre-combined: a drain that hits kPostpone re-queues the *original*
// records (RequeuedRecord) for the next SEPO iteration, preserving the
// paper's postponement semantics exactly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/entry_layout.hpp"

namespace sepo::core {

// Default per-worker capacity (records) used when the batch-insert knob is
// switched on without an explicit size (`--batch-insert on`).
inline constexpr std::uint32_t kDefaultBatchInsertCapacity = 4096;

// A record a drain could not place (allocator returned kPostpone). Owned
// copies: the caller's key/value views die with the kernel that emitted
// them, but the record must survive into the next SEPO iteration.
struct RequeuedRecord {
  std::string key;
  std::vector<std::byte> value;
  std::uint64_t hash = 0;  // memoized — the retry does not rehash
};

// Add-time counters, harvested into the table-level totals at drain.
struct CombineBufferStats {
  std::uint64_t scratch_hits = 0;         // adds that hit an existing slot
  std::uint64_t precombined_records = 0;  // values merged in scratch (assoc)
};

// Lifetime totals of the batched insert pipeline, kept by SepoHashTable.
// These describe *real* work the batching saved or moved, and are
// deliberately kept out of RunStats: the simulated counters must stay
// bit-identical between scalar and batched runs (they feed the cost model),
// while this object is reported separately in the metrics JSON
// (`combine_buffer`, schema v5).
struct CombineBufferTotals {
  bool enabled = false;                    // batch_insert_capacity > 0
  std::uint64_t scratch_hits = 0;          // adds that hit an existing slot
  std::uint64_t precombined_records = 0;   // values merged at add time
  std::uint64_t lock_acquires_saved = 0;   // scalar acquires minus real ones
  std::uint64_t drain_flushes = 0;         // drains that moved >= 1 record
  std::uint64_t drained_records = 0;       // records replayed into the store
  std::uint64_t requeued_records = 0;      // drain-time kPostpone re-queues
};

class CombineBuffer {
 public:
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t bucket = 0;
    std::uint32_t key_off = 0;
    std::uint32_t key_len = 0;
    // Pre-combined value (assoc+comm combining only; else unused).
    std::uint32_t val_off = 0;
    std::uint32_t val_len = 0;
    std::uint32_t hits = 0;  // records folded into this slot

    // --- drain-time resolution state (scratch pad for the drain) ---
    // 0 = unresolved, 1 = resolved to a chain entry. Allocation failure
    // leaves the slot at 0 on purpose: every further record of this key
    // then replays the scalar retry (real probe + real alloc attempt,
    // which fails the same way) so the mirrored counters stay exact.
    std::uint8_t state = 0;
    DevPtr entry = 0;            // resolved chain entry (KvEntry / KeyEntry)
    std::uint32_t depth_links = 0;   // probe charge to reach `entry` ...
    std::uint64_t depth_bytes = 0;   // ... and compare bytes, at resolution
    std::uint32_t dense = 0;         // bucket's index in the drain's sorted
                                     // distinct-bucket set (DrainScratch)
  };

  // Reusable drain-side working set, owned by the buffer so that
  // buffer-full drains (which run concurrently on their worker threads)
  // never share scratch memory and steady-state drains never allocate.
  // `locked` holds the batch's distinct bucket ids, sorted ascending — a
  // bucket's index in it is its *dense id* for the per-bucket arrays.
  // The counter accumulators exist because a kernel-exit drain runs on the
  // submitting thread, outside any worker shard — per-record adds would hit
  // the shared RunStats atomics; summing locally and flushing once per
  // drain lands the identical totals inside the same priced launch window.
  struct DrainScratch {
    std::vector<std::uint32_t> locked;
    std::vector<std::uint32_t> accesses;  // per dense id, record counts
    std::uint64_t chain_links = 0;
    std::uint64_t key_compare_bytes = 0;

    [[nodiscard]] std::uint32_t dense_of(std::uint32_t b) const noexcept {
      return static_cast<std::uint32_t>(
          std::lower_bound(locked.begin(), locked.end(), b) - locked.begin());
    }

    // Accumulates the probe charge the scalar path would pay to reach slot
    // `s`'s resolved entry again in this launch: exactly what resolving it
    // cost. The probe rule (BucketChainStore::find_in_chain) charges a hit
    // independently of later prepends to the bucket, so the chain need not
    // be walked again.
    void charge_repeat(const Slot& s) noexcept {
      chain_links += s.depth_links;
      key_compare_bytes += s.depth_bytes;
    }
  };

  // One arrival-ordered record. Drains replay the log, not the slots: the
  // log is what makes the mirrored counters (and non-assoc combiner
  // application order) match the scalar path record for record.
  struct LogEntry {
    std::uint32_t slot = 0;
    std::uint32_t val_off = 0;  // original (un-combined) value bytes
    std::uint32_t val_len = 0;
  };

  // `dedup` selects scratch behaviour: kBasic keeps one slot per record
  // (grouping only); combining/multi-valued dedup by key. `precombine`
  // additionally merges values at add time (assoc+comm combining only).
  CombineBuffer(Organization org, std::uint32_t capacity, bool precombine,
                CombineFn combiner);

  // Buffers one record. Returns false when the buffer is full — the caller
  // must drain and retry (the retry is guaranteed to succeed on an empty
  // buffer). Never touches shared state.
  [[nodiscard]] bool add(std::uint32_t bucket, std::uint64_t hash,
                         std::string_view key, std::span<const std::byte> value);

  [[nodiscard]] bool empty() const noexcept { return log_.size() == 0; }
  [[nodiscard]] std::size_t record_count() const noexcept {
    return log_.size();
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool precombine() const noexcept { return precombine_; }

  // Drain-side accessors. Slots are mutable: the drain stores its
  // resolution bookkeeping in them.
  [[nodiscard]] std::span<Slot> slots() noexcept { return slots_; }
  [[nodiscard]] DrainScratch& drain_scratch() noexcept {
    return drain_scratch_;
  }
  [[nodiscard]] std::span<const LogEntry> log() const noexcept { return log_; }
  [[nodiscard]] std::string_view slot_key(const Slot& s) const noexcept {
    return {reinterpret_cast<const char*>(arena_.data()) + s.key_off,
            s.key_len};
  }
  [[nodiscard]] std::span<const std::byte> slot_value(
      const Slot& s) const noexcept {
    return {arena_.data() + s.val_off, s.val_len};
  }
  [[nodiscard]] std::span<const std::byte> log_value(
      const LogEntry& e) const noexcept {
    return {arena_.data() + e.val_off, e.val_len};
  }

  // Harvests and resets the add-time counters (called once per drain).
  [[nodiscard]] CombineBufferStats take_stats() noexcept {
    const CombineBufferStats s = stats_;
    stats_ = {};
    return s;
  }

  // Resets the buffer to empty (after a drain). Keeps the arena capacity.
  void clear() noexcept;

 private:
  [[nodiscard]] std::uint32_t push_arena(const void* data, std::size_t n);

  Organization org_;
  std::uint32_t capacity_;
  bool precombine_;
  CombineFn combiner_;

  // Open-addressed index: pow2-sized table of slot-id+1 (0 = empty),
  // linear probing keyed by the memoized hash. Unused for kBasic.
  std::vector<std::uint32_t> index_;
  std::uint32_t index_mask_ = 0;

  std::vector<Slot> slots_;
  std::vector<LogEntry> log_;
  // Bump-allocated byte arena: arena_used_ tracks the live prefix; the
  // vector's size is its capacity (push_arena grows it geometrically).
  std::vector<std::byte> arena_;
  std::size_t arena_used_ = 0;
  CombineBufferStats stats_;
  DrainScratch drain_scratch_;
};

}  // namespace sepo::core
