#include "core/bucket_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hashing.hpp"
#include "common/prefetch.hpp"
#include "gpusim/trace_hook.hpp"

namespace sepo::core {

namespace {
constexpr bool is_pow2(std::uint64_t v) { return v && (v & (v - 1)) == 0; }

// Shortlex order (length first, then bytes): the canonical order of the
// entries one launch prepended to a bucket.
int canonical_compare(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return a.compare(b);
}
}  // namespace

BucketChainStore::BucketChainStore(gpusim::ExecContext& ctx,
                                   HashTableConfig cfg)
    : ctx_(ctx), dev_(ctx.device()), stats_(ctx.stats()), cfg_(cfg) {
  if (!is_pow2(cfg_.num_buckets))
    throw std::invalid_argument("num_buckets must be a power of two");
  if (cfg_.buckets_per_group == 0 || cfg_.buckets_per_group > cfg_.num_buckets)
    throw std::invalid_argument("invalid buckets_per_group");
  if (cfg_.org == Organization::kCombining && cfg_.combiner == nullptr)
    throw std::invalid_argument("combining organization requires a combiner");
  bucket_mask_ = cfg_.num_buckets - 1;

  // The bucket array and its locks live in device memory: reserve their
  // footprint there so the heap gets only what genuinely remains (§IV-A).
  // Charged at the compact device layout (kBucketDeviceBytes), NOT at
  // sizeof(BucketLine): the line's padding and host-side bookkeeping must
  // not shrink the simulated heap.
  dev_.alloc_static(static_cast<std::size_t>(cfg_.num_buckets) *
                    kBucketDeviceBytes);
  lines_ = std::vector<BucketLine>(cfg_.num_buckets);

  const std::size_t heap_bytes =
      cfg_.heap_bytes == 0 ? dev_.mem_free() : cfg_.heap_bytes;
  // A device too small to hold even one heap page is a capacity failure,
  // not a caller mistake: surface it as the typed OOM so run paths fold it
  // into RunError::kDeviceOutOfMemory instead of letting it escape.
  if (heap_bytes < cfg_.page_size)
    throw gpusim::DeviceOutOfMemory(cfg_.page_size, dev_.static_used(),
                                    dev_.capacity());
  pool_pages_ =
      std::make_unique<alloc::PagePool>(dev_, heap_bytes, cfg_.page_size);
  pool_pages_->set_journal(ctx_.journal());
  host_heap_ = std::make_unique<alloc::HostHeap>(cfg_.page_size);

  const std::uint32_t groups =
      (cfg_.num_buckets + cfg_.buckets_per_group - 1) / cfg_.buckets_per_group;
  const std::uint32_t classes =
      cfg_.org == Organization::kMultiValued ? 3u : 1u;
  allocator_ = std::make_unique<alloc::BucketGroupAllocator>(
      *pool_pages_, *host_heap_, groups, classes);
}

std::uint32_t BucketChainStore::bucket_of(std::string_view key) const noexcept {
  return bucket_of(hash_key(key));
}

template <typename Entry>
void BucketChainStore::sort_fresh(std::uint32_t b) {
  // The earlier launch's prepends sit at the head in arrival order: relink
  // them in key order, still ahead of every entry from before that launch.
  BucketLine& line = lines_[b];
  thread_local std::vector<DevPtr> group;
  group.clear();
  DevPtr rest = line.head_dev.load(std::memory_order_relaxed);
  for (std::uint32_t n = line.fresh; n > 0 && rest != gpusim::kDevNull; --n) {
    group.push_back(rest);
    rest = dev_.ptr<Entry>(rest)->next_dev;
  }
  std::sort(group.begin(), group.end(), [this](DevPtr x, DevPtr y) {
    return canonical_compare(dev_.ptr<Entry>(x)->key(),
                             dev_.ptr<Entry>(y)->key()) < 0;
  });
  for (auto it = group.rbegin(); it != group.rend(); ++it) {
    dev_.ptr<Entry>(*it)->next_dev = rest;
    rest = *it;
  }
  line.head_dev.store(rest, std::memory_order_relaxed);
  line.fresh = 0;
}

template <typename Entry>
DevPtr BucketChainStore::probe(std::uint32_t b, std::string_view key,
                               ProbeCost& cost) {
  const BucketLine& line = lines_[b];
  if (line.fresh > 0 && line.fresh_epoch != stats_.launch_epoch())
    sort_fresh<Entry>(b);
  const std::uint64_t key_len = key.size();
  DevPtr p = line.head_dev.load(std::memory_order_relaxed);

  // This launch's prepends sit at the head: a hit on one is a head hit,
  // and only a miss pays for walking them.
  ProbeCost fresh_walked;
  for (std::uint32_t n = line.fresh; n > 0 && p != gpusim::kDevNull; --n) {
    const auto* e = dev_.ptr<Entry>(p);
    if (e->key() == key) {
      ++cost.links;
      cost.bytes += key_len;
      return p;
    }
    ++fresh_walked.links;
    fresh_walked.bytes += std::min<std::uint64_t>(e->key_len, key_len);
    p = e->next_dev;
  }

  // Older entries are in canonical order, so the physical walk is the
  // charge: a hit pays for the entries ahead of it plus its own.
  for (; p != gpusim::kDevNull;) {
    const auto* e = dev_.ptr<Entry>(p);
    ++cost.links;
    cost.bytes += std::min<std::uint64_t>(e->key_len, key_len);
    if (e->key() == key) return p;
    p = e->next_dev;
  }
  cost.links += fresh_walked.links;
  cost.bytes += fresh_walked.bytes;
  return gpusim::kDevNull;
}

DevPtr BucketChainStore::find_in_chain(std::uint32_t b, std::string_view key,
                                       ProbeCost& cost) {
  return probe<KvEntry>(b, key, cost);
}

DevPtr BucketChainStore::find_key_entry(std::uint32_t b, std::string_view key,
                                        ProbeCost& cost) {
  return probe<KeyEntry>(b, key, cost);
}

void BucketChainStore::prepend(std::uint32_t b, DevPtr dev, HostPtr host) {
  if (cfg_.org == Organization::kMultiValued)
    prepend_as<KeyEntry>(b, dev, host);
  else
    prepend_as<KvEntry>(b, dev, host);
}

template <typename Entry>
void BucketChainStore::prepend_as(std::uint32_t b, DevPtr dev, HostPtr host) {
  link_head<Entry>(b, dev);
  BucketLine& line = lines_[b];
  dev_.ptr<Entry>(dev)->next_host = line.head_host;
  line.head_host = host;
}

void BucketChainStore::relink_resident(std::uint32_t b, DevPtr dev) {
  link_head<KeyEntry>(b, dev);
}

template <typename Entry>
void BucketChainStore::link_head(std::uint32_t b, DevPtr dev) {
  BucketLine& line = lines_[b];
  const std::uint64_t epoch = stats_.launch_epoch();
  if (line.fresh_epoch != epoch) {
    if (line.fresh > 0) sort_fresh<Entry>(b);
    line.fresh_epoch = epoch;
  }
  ++line.fresh;
  dev_.ptr<Entry>(dev)->next_dev = line.head_dev.load(std::memory_order_relaxed);
  line.head_dev.store(dev, std::memory_order_release);
}

void BucketChainStore::prefetch_line(std::uint32_t b) const noexcept {
  prefetch_for_write(&lines_[b]);
}

void BucketChainStore::prefetch_chain_head(std::uint32_t b) const noexcept {
  // A relaxed read without the lock: a stale head only warms the wrong line.
  const DevPtr head = lines_[b].head_dev.load(std::memory_order_relaxed);
  if (head != gpusim::kDevNull) prefetch_for_read(dev_.ptr(head));
}

void BucketChainStore::clear_device_chains() {
  for (BucketLine& line : lines_) {
    line.head_dev.store(gpusim::kDevNull, std::memory_order_relaxed);
    line.fresh = 0;
  }
}

void BucketChainStore::flush_pages(const std::vector<std::uint32_t>& pages) {
  std::uint64_t flushed_pages = 0, flushed_bytes = 0;
  for (const std::uint32_t p : pages) {
    auto& meta = pool_pages_->meta(p);
    const std::uint32_t used = meta.used.load(std::memory_order_relaxed);
    const std::uint64_t slot = meta.host_slot.load(std::memory_order_relaxed);
    if (used > 0) {
      host_heap_->store_page(slot, dev_.ptr(pool_pages_->page_base(p)), used);
      dev_.bus().d2h(used);
      ++flushed_pages;
      flushed_bytes += used;
    }
    pool_pages_->release(p, &stats_);
  }
  if (flushed_pages == 0) return;
  // Priced from the flush's totals, not page by page: which entries share a
  // page follows arrival order, the page count and byte total do not.
  ctx_.flush_d2h(flushed_bytes, flushed_pages);
  flushed_bytes_ += flushed_bytes;
  flush_pages_ += flushed_pages;
  if (auto* hook = stats_.trace_hook())
    hook->on_flush(flushed_pages, flushed_bytes);
}

std::vector<HostPtr> BucketChainStore::take_host_heads() {
  std::vector<HostPtr> heads(lines_.size());
  for (std::size_t i = 0; i < lines_.size(); ++i) heads[i] = lines_[i].head_host;
  dev_.bus().d2h(lines_.size() * sizeof(HostPtr));
  ctx_.flush_d2h(lines_.size() * sizeof(HostPtr));
  return heads;
}

HashTableStats BucketChainStore::table_stats() const noexcept {
  HashTableStats s;
  s.flushed_bytes = flushed_bytes_;
  s.flush_pages = flush_pages_;
  // Resident bytes: pages currently out of the pool.
  for (std::uint32_t p = 0; p < pool_pages_->page_count(); ++p) {
    const auto& m = pool_pages_->meta(p);
    if (!m.in_pool.load(std::memory_order_relaxed))
      s.resident_entry_bytes += m.used.load(std::memory_order_relaxed);
  }
  s.table_bytes = s.flushed_bytes + s.resident_entry_bytes;
  return s;
}

}  // namespace sepo::core
