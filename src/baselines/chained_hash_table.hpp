// The host-memory chained hash table behind the CPU, Phoenix and pinned
// baselines (paper §VI-B, §VI-D).
//
// §VI-B: "The CPU-based versions use a hash table design similar to our
// GPU-based hash table design except that they do not use the SEPO model of
// computation given that the entire hash table fits in CPU memory."
// §VI-D: "We modified our dynamic memory allocator to pre-allocate its heap
// as a pinned CPU memory region ... Everything else is kept in GPU memory for
// higher memory performance (e.g. locks)."
//
// So both are one table: closed addressing, separate chaining, per-bucket
// locks and the three bucket organizations, with native-pointer entries.
// Only where the entries live differs, and that is the `Memory` policy (the
// storage-as-template-parameter idiom of WarpCore's
// BucketListHashTable<..., BucketListStore<...>>):
//   * HostArena    — per-thread bump arenas standing in for TCMalloc's
//                    thread cache (§VI-B: "all CPU implementations that
//                    require dynamic memory allocation use TCMalloc"); no bus.
//   * PinnedRegion — one lock-guarded bump heap in pinned CPU memory; the
//                    bucket array and locks are device-resident, and every
//                    entry access from a kernel is one small metered PCIe
//                    transaction — the "many small PCIe transactions" whose
//                    cost §VI-D demonstrates.
// All operations record events into a RunStats so the cost model can price
// the run. Inserts never fail: CPU memory is unbounded in this model, which is
// the pinned design's selling point and its performance trap.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/entry_layout.hpp"
#include "core/sepo.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/launch.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::baselines {

using core::CombineFn;
using core::Organization;

// --- Native-pointer entry layouts: header, key bytes padded to 8, value ---

// Basic / combining entry.
struct HostKvEntry {
  HostKvEntry* next;
  std::uint32_t key_len, val_len;

  [[nodiscard]] static std::size_t byte_size(std::size_t key_len,
                                             std::size_t val_len) noexcept {
    return sizeof(HostKvEntry) +
           core::pad8(static_cast<std::uint32_t>(key_len)) +
           core::pad8(static_cast<std::uint32_t>(val_len));
  }
  // Writes the header and payload into `mem` (byte_size(key, value) bytes).
  static HostKvEntry* emplace(void* mem, std::string_view key,
                              std::span<const std::byte> value) noexcept;

  [[nodiscard]] std::string_view key() const noexcept {
    return {reinterpret_cast<const char*>(this + 1), key_len};
  }
  [[nodiscard]] std::byte* value_data() noexcept {
    return reinterpret_cast<std::byte*>(this + 1) + core::pad8(key_len);
  }
  [[nodiscard]] std::span<const std::byte> value() const noexcept {
    return {reinterpret_cast<const std::byte*>(this + 1) + core::pad8(key_len),
            val_len};
  }
};

// One value of a multi-valued key.
struct HostValueEntry {
  HostValueEntry* next;
  std::uint32_t val_len, pad_;

  [[nodiscard]] std::span<const std::byte> value() const noexcept {
    return {reinterpret_cast<const std::byte*>(this + 1), val_len};
  }
};

// Multi-valued key entry: heads its own value list.
struct HostKeyEntry {
  HostKeyEntry* next;
  HostValueEntry* vhead;
  std::uint32_t key_len, pad_;

  [[nodiscard]] std::string_view key() const noexcept {
    return {reinterpret_cast<const char*>(this + 1), key_len};
  }
};

// --- Memory policies ---
//
// A policy supplies: `Context` (what the table is built on), the stats the
// table meters into, `place_bucket_array` (charges the bucket array and
// locks to wherever they live), `alloc` (counts one alloc_op), `remote`
// (meters one kernel access to entry memory) and `allocated_bytes`.

class HostArena {
 public:
  using Context = gpusim::RunStats;

  explicit HostArena(gpusim::RunStats& stats);

  [[nodiscard]] gpusim::RunStats& stats() const noexcept { return stats_; }
  void place_bucket_array(std::uint32_t) noexcept {}
  // Bump-allocates from worker `tid`'s arena.
  void* alloc(std::uint32_t tid, std::size_t bytes);
  void remote(std::size_t) noexcept {}
  [[nodiscard]] std::size_t allocated_bytes() const noexcept;

 private:
  static constexpr std::size_t kChunkBytes = 256u << 10;
  static constexpr std::uint32_t kArenas = 64;

  struct Arena {
    std::vector<std::unique_ptr<std::byte[]>> chunks;
    std::size_t used_in_chunk = 0;
    std::size_t total_used = 0;
  };

  gpusim::RunStats& stats_;
  std::vector<Arena> arenas_;
};

class PinnedRegion {
 public:
  using Context = gpusim::ExecContext;

  // The context's device hosts the bucket array and supplies the bus to
  // meter; remote traffic lands on the context's timeline via the kernels
  // that issue it (ExecContext::launch).
  explicit PinnedRegion(gpusim::ExecContext& ctx);

  [[nodiscard]] gpusim::RunStats& stats() const noexcept { return stats_; }
  // Bucket heads + locks are device-resident.
  void place_bucket_array(std::uint32_t num_buckets);
  // One heap shared by every device thread, guarded by a device lock.
  void* alloc(std::uint32_t tid, std::size_t bytes);
  void remote(std::size_t bytes) noexcept { dev_.bus().remote(bytes); }
  [[nodiscard]] std::size_t allocated_bytes() const noexcept;

 private:
  static constexpr std::size_t kChunkBytes = 1u << 20;  // growth step

  gpusim::Device& dev_;
  gpusim::RunStats& stats_;
  gpusim::DeviceLock lock_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t used_in_chunk_ = 0;
  std::size_t total_used_ = 0;
};

struct ChainedTableConfig {
  Organization org = Organization::kCombining;
  std::uint32_t num_buckets = 1u << 15;  // power of two
  CombineFn combiner = nullptr;
};

template <typename Memory>
class ChainedHashTable {
 public:
  ChainedHashTable(typename Memory::Context& ctx, ChainedTableConfig cfg);

  ChainedHashTable(const ChainedHashTable&) = delete;
  ChainedHashTable& operator=(const ChainedHashTable&) = delete;

  // Inserts from worker thread `tid` (selects the HostArena arena).
  void insert(std::uint32_t tid, std::string_view key,
              std::span<const std::byte> value);

  void insert_u64(std::uint32_t tid, std::string_view key, std::uint64_t v) {
    insert(tid, key, std::as_bytes(std::span{&v, 1}));
  }

  // --- host-side queries (single-threaded, after population; no bus cost:
  // the data already lives in CPU memory) ---
  [[nodiscard]] std::optional<std::span<const std::byte>> lookup(
      std::string_view key) const;
  [[nodiscard]] std::vector<std::span<const std::byte>> lookup_all(
      std::string_view key) const;
  [[nodiscard]] std::optional<std::vector<std::span<const std::byte>>>
  lookup_group(std::string_view key) const;

  void for_each(
      const std::function<void(std::string_view, std::span<const std::byte>)>&
          fn) const;
  void for_each_group(
      const std::function<void(std::string_view,
                               const std::vector<std::span<const std::byte>>&)>&
          fn) const;

  [[nodiscard]] std::size_t entry_count() const noexcept {
    return entry_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t value_count() const noexcept {
    return value_count_.load(std::memory_order_relaxed);
  }
  // Total entry bytes handed out (table memory footprint).
  [[nodiscard]] std::size_t allocated_bytes() const noexcept {
    return mem_.allocated_bytes();
  }
  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return gpusim::bucket_load(locks_);
  }

 private:
  [[nodiscard]] std::uint32_t bucket_of(std::string_view key) const noexcept;
  template <typename Entry>
  [[nodiscard]] Entry* head(std::uint32_t b) const noexcept {
    return static_cast<Entry*>(heads_[b].load(std::memory_order_acquire));
  }
  // Publishes `e` as bucket b's new chain head (caller holds the lock).
  template <typename Entry>
  void push(std::uint32_t b, Entry* e) noexcept;
  // Walks bucket b's chain for `key`, metering every probed link.
  template <typename Entry>
  Entry* probe(std::uint32_t b, std::string_view key);

  void insert_basic(std::uint32_t tid, std::uint32_t b, std::string_view key,
                    std::span<const std::byte> value);
  void insert_combining(std::uint32_t tid, std::uint32_t b,
                        std::string_view key,
                        std::span<const std::byte> value);
  void insert_multivalued(std::uint32_t tid, std::uint32_t b,
                          std::string_view key,
                          std::span<const std::byte> value);

  Memory mem_;
  gpusim::RunStats& stats_;
  ChainedTableConfig cfg_;
  std::uint32_t bucket_mask_;
  std::vector<std::atomic<void*>> heads_;
  // Lock + access tally per bucket on private cache lines
  // (gpusim::PaddedBucketLock); accesses incremented under the bucket lock.
  std::vector<gpusim::PaddedBucketLock> locks_;
  std::atomic<std::size_t> entry_count_{0};
  std::atomic<std::size_t> value_count_{0};
};

extern template class ChainedHashTable<HostArena>;
extern template class ChainedHashTable<PinnedRegion>;

// Emitter into a ChainedHashTable from worker `tid`. The table holds every
// pair it is given, so emit never postpones.
template <typename Memory>
class TableEmitter final : public mapreduce::Emitter {
 public:
  explicit TableEmitter(ChainedHashTable<Memory>& t,
                        std::uint32_t tid = 0) noexcept
      : t_(t), tid_(tid) {}
  core::Status emit(std::string_view key,
                    std::span<const std::byte> value) override {
    t_.insert(tid_, key, value);
    return core::Status::kSuccess;
  }

 private:
  ChainedHashTable<Memory>& t_;
  std::uint32_t tid_;
};

}  // namespace sepo::baselines
