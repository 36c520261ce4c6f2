// Bucket/chain storage layer of the SEPO hash table (DESIGN.md §2).
//
// BucketChainStore owns everything *structural*: the bucket array and its
// per-bucket locks, the device page pool, the host mirror heap, the
// bucket-group allocator, chain probing, and the flush machinery (page
// copies metered on the d2h engine). It deliberately knows nothing about
// *when* to flush, postpone, or keep pages resident — those Figure-5
// decisions live in the OrganizationPolicy (organization_policy.hpp);
// SepoHashTable (hash_table.hpp) composes the two under the unchanged
// public API.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "alloc/bucket_group_allocator.hpp"
#include "alloc/host_heap.hpp"
#include "alloc/page_pool.hpp"
#include "core/entry_layout.hpp"
#include "gpusim/device.hpp"
#include "gpusim/exec_context.hpp"
#include "gpusim/launch.hpp"

namespace sepo::core {

struct HashTableConfig {
  Organization org = Organization::kCombining;
  std::uint32_t num_buckets = 1u << 14;     // power of two
  // §IV-A trade-off knob. Keep groups x page-classes x page_size well below
  // the heap: every group holds partially-filled active pages, and too many
  // groups strand the heap in fragmentation (more SEPO iterations).
  std::uint32_t buckets_per_group = 512;
  std::size_t page_size = 8u << 10;
  CombineFn combiner = nullptr;             // required for kCombining
  // Declares the combiner associative AND commutative (e.g. u64 sum, OR,
  // max). Only then may the batched insert pipeline pre-apply it inside a
  // per-worker CombineBuffer; order-sensitive combiners (f64 sum) are
  // pre-grouped but applied in arrival order at drain, so final digests
  // stay bit-identical to the scalar path either way.
  bool combiner_assoc_comm = false;
  // Batched insert pipeline (DESIGN.md §5d): records per worker
  // CombineBuffer. 0 (the default) keeps the scalar one-record-at-a-time
  // insert path.
  std::uint32_t batch_insert_capacity = 0;
  // Heap size: 0 = take all remaining device memory (paper §IV-A).
  std::size_t heap_bytes = 0;
  // Multi-valued livelock valve (see DESIGN.md "resident-key cap"): when
  // key pages kept resident for pending values exceed this fraction of the
  // pool, they are flushed anyway. Retried records then materialize a
  // duplicate key entry in the same bucket; HostTable merges duplicates at
  // read time.
  double max_resident_key_frac = 0.5;
};

struct HashTableStats {
  std::uint64_t resident_entry_bytes = 0;  // bytes currently in device pages
  std::uint64_t flushed_bytes = 0;         // total bytes ever flushed to host
  std::uint64_t flush_pages = 0;           // pages flushed
  std::uint64_t table_bytes = 0;           // flushed + resident (table size)
};

class BucketChainStore {
 public:
  // Everything an insert touches in one bucket before it reaches the chain,
  // on one private cache line: the lock, the access tally, the chain-order
  // bookkeeping and both chain heads. An insert therefore misses on one
  // line, not on a lock line and a separate head array, and neighbouring
  // buckets never false-share. Every field but the lock is guarded by it.
  //
  // Device chain order (DESIGN.md §5d "Probe charge"): the first `fresh`
  // entries of the device chain were prepended during launch `fresh_epoch`,
  // in arrival order; the entries after them are in canonical order — by
  // the launch that prepended them, newest first, and by key within one
  // launch.
  struct alignas(gpusim::kCacheLineBytes) BucketLine {
    gpusim::DeviceLock lock;
    std::uint32_t accesses = 0;  // read when quiescent (bucket_load)
    std::uint32_t fresh = 0;
    std::uint64_t fresh_epoch = 0;
    // Atomic: the prefetcher reads it without the lock.
    std::atomic<DevPtr> head_dev{gpusim::kDevNull};
    HostPtr head_host = alloc::kHostNull;
  };

  // Device memory one bucket is charged: its two chain heads and a 4-byte
  // lock word. The rest of BucketLine (tally, chain-order bookkeeping,
  // padding) is host-side simulator state, so the simulated heap does not
  // shrink for it.
  static constexpr std::size_t kBucketDeviceBytes =
      sizeof(DevPtr) + sizeof(HostPtr) + 4;

  BucketChainStore(gpusim::ExecContext& ctx, HashTableConfig cfg);

  BucketChainStore(const BucketChainStore&) = delete;
  BucketChainStore& operator=(const BucketChainStore&) = delete;

  [[nodiscard]] const HashTableConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint32_t num_buckets() const noexcept {
    return cfg_.num_buckets;
  }
  [[nodiscard]] std::uint32_t bucket_of(std::string_view key) const noexcept;
  // Memoized-hash overload: callers that already computed hash_key(key)
  // (batched inserts, requeued records, lookup engines) must route through
  // this instead of rehashing.
  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::uint32_t>(hash) & bucket_mask_;
  }
  [[nodiscard]] std::uint32_t group_of(std::uint32_t bucket) const noexcept {
    return bucket / cfg_.buckets_per_group;
  }

  [[nodiscard]] BucketLine& line(std::uint32_t b) noexcept { return lines_[b]; }
  [[nodiscard]] const BucketLine& line(std::uint32_t b) const noexcept {
    return lines_[b];
  }

  // Host-side cache warming for an insert that will land in bucket `b`
  // (SepoHashTable::prefetch_bucket_line, prefetch_chain_head). Neither
  // touches RunStats, a lock or any table state, so simulated results
  // cannot depend on them.
  // Fetches the bucket's line with write intent (the insert takes its lock).
  void prefetch_line(std::uint32_t b) const noexcept;
  // Reads the device chain head from the bucket's line (fetched earlier by
  // prefetch_line) and fetches the head entry, where every probe starts.
  void prefetch_chain_head(std::uint32_t b) const noexcept;

  // Probe work charged for one chain lookup. The batched drain records it
  // per distinct key so that repeat probes cost what the first one did.
  struct ProbeCost {
    std::uint32_t links = 0;
    std::uint64_t bytes = 0;
  };

  // Looks `key` up in the device chain of bucket `b`; returns the entry's
  // dev ptr or null. Caller holds the bucket lock. The charge follows one
  // rule whose per-launch totals do not depend on the order in which
  // workers reach the bucket (DESIGN.md §5d "Probe charge"):
  //  * entries the bucket held when the current launch began are taken in
  //    canonical order — by the launch that prepended them, newest first
  //    (as prepend-at-head leaves them), then by key — and a hit pays one
  //    link (and its compare bytes) for each entry ahead of its own, plus
  //    its own; a miss pays for all of them;
  //  * a miss also pays for every entry this launch already prepended to
  //    the bucket, and a hit on such an entry pays as a head hit (1 link).
  // The first touch of a bucket in a later launch sorts the entries an
  // earlier launch prepended by key, so the device chain is in canonical
  // order and a hit walks exactly the links it is charged for. The
  // ProbeCost overloads report the charge to the caller WITHOUT touching
  // RunStats — the batched drain folds many probes into one counter add
  // per drain. The plain overloads charge RunStats, as the scalar path
  // expects.
  [[nodiscard]] DevPtr find_in_chain(std::uint32_t b, std::string_view key) {
    ProbeCost cost;
    const DevPtr p = find_in_chain(b, key, cost);
    stats_.add_chain_links(cost.links);
    stats_.add_key_compare_bytes(cost.bytes);
    return p;
  }
  [[nodiscard]] DevPtr find_in_chain(std::uint32_t b, std::string_view key,
                                     ProbeCost& cost);
  [[nodiscard]] DevPtr find_key_entry(std::uint32_t b, std::string_view key) {
    ProbeCost cost;
    const DevPtr p = find_key_entry(b, key, cost);
    stats_.add_chain_links(cost.links);
    stats_.add_key_compare_bytes(cost.bytes);
    return p;
  }
  [[nodiscard]] DevPtr find_key_entry(std::uint32_t b, std::string_view key,
                                      ProbeCost& cost);

  // Links the freshly allocated entry at `dev`/`host` (a KvEntry, or a
  // KeyEntry in a multi-valued table) in as the head of both chains of
  // bucket `b` ("new KV pairs are always inserted at the head", §III-B)
  // and counts it as prepended in the current launch. Caller holds the
  // bucket lock.
  void prepend(std::uint32_t b, DevPtr dev, HostPtr host);

  // Re-links the resident KeyEntry at `dev` into the device chain of bucket
  // `b` only (multi-valued chain rebuild; its host chain is complete). It
  // counts as prepended in the rebuild launch, so the next launch to touch
  // the bucket sorts the rebuilt entries by key. Caller holds the bucket
  // lock.
  void relink_resident(std::uint32_t b, DevPtr dev);

  // Resets every bucket's device head to null. Used after the flushed pages
  // leave the device: the chains then point into freed memory. Host chains
  // are complete and untouched.
  void clear_device_chains();

  // Copies each page's used bytes into the host mirror heap and returns the
  // pages to the pool. Every non-empty page crosses the bus as its own
  // transaction, and the whole flush is one d2h barrier command priced from
  // its totals (ExecContext::flush_d2h) — flushes halt computation, §IV-C.
  void flush_pages(const std::vector<std::uint32_t>& pages);

  // Copies the bucket heads' host pointers back (one bulk transfer) for
  // HostTable construction. Call once, after the final flush.
  [[nodiscard]] std::vector<HostPtr> take_host_heads();

  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return gpusim::bucket_load(lines_);
  }
  [[nodiscard]] HashTableStats table_stats() const noexcept;

  [[nodiscard]] gpusim::ExecContext& ctx() noexcept { return ctx_; }
  [[nodiscard]] gpusim::Device& device() noexcept { return dev_; }
  [[nodiscard]] const gpusim::Device& device() const noexcept { return dev_; }
  [[nodiscard]] gpusim::RunStats& stats() const noexcept { return stats_; }
  [[nodiscard]] alloc::PagePool& pool() noexcept { return *pool_pages_; }
  [[nodiscard]] const alloc::PagePool& pool() const noexcept {
    return *pool_pages_;
  }
  [[nodiscard]] alloc::HostHeap& host_heap() noexcept { return *host_heap_; }
  [[nodiscard]] alloc::BucketGroupAllocator& allocator() noexcept {
    return *allocator_;
  }
  [[nodiscard]] const alloc::BucketGroupAllocator& allocator() const noexcept {
    return *allocator_;
  }

 private:
  gpusim::ExecContext& ctx_;
  gpusim::Device& dev_;
  gpusim::RunStats& stats_;
  HashTableConfig cfg_;
  std::uint32_t bucket_mask_;

  template <typename Entry>
  [[nodiscard]] DevPtr probe(std::uint32_t b, std::string_view key,
                             ProbeCost& cost);
  // Relinks the entries an earlier launch prepended to bucket `b` in
  // canonical key order.
  template <typename Entry>
  void sort_fresh(std::uint32_t b);
  // Makes `dev` the head of the device chain of `b`, counted as prepended
  // in the current launch.
  template <typename Entry>
  void link_head(std::uint32_t b, DevPtr dev);
  template <typename Entry>
  void prepend_as(std::uint32_t b, DevPtr dev, HostPtr host);

  std::unique_ptr<alloc::PagePool> pool_pages_;
  std::unique_ptr<alloc::HostHeap> host_heap_;
  std::unique_ptr<alloc::BucketGroupAllocator> allocator_;

  std::vector<BucketLine> lines_;

  std::uint64_t flushed_bytes_ = 0;
  std::uint64_t flush_pages_ = 0;
};

}  // namespace sepo::core
