#include "baselines/chained_hash_table.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/hashing.hpp"

namespace sepo::baselines {

namespace {

[[nodiscard]] constexpr std::size_t round8(std::size_t bytes) noexcept {
  return (bytes + 7u) & ~std::size_t{7};
}

}  // namespace

HostKvEntry* HostKvEntry::emplace(void* mem, std::string_view key,
                                  std::span<const std::byte> value) noexcept {
  auto* e = static_cast<HostKvEntry*>(mem);
  e->key_len = static_cast<std::uint32_t>(key.size());
  e->val_len = static_cast<std::uint32_t>(value.size());
  std::memcpy(e + 1, key.data(), key.size());
  if (!value.empty()) std::memcpy(e->value_data(), value.data(), value.size());
  return e;
}

// ------------------------------------------------------------- HostArena

HostArena::HostArena(gpusim::RunStats& stats)
    : stats_(stats), arenas_(kArenas) {}

void* HostArena::alloc(std::uint32_t tid, std::size_t bytes) {
  bytes = round8(bytes);
  assert(bytes <= kChunkBytes);
  Arena& a = arenas_[tid % kArenas];
  stats_.add_alloc_ops();
  if (a.chunks.empty() || a.used_in_chunk + bytes > kChunkBytes) {
    a.chunks.push_back(std::make_unique<std::byte[]>(kChunkBytes));
    a.used_in_chunk = 0;
  }
  void* p = a.chunks.back().get() + a.used_in_chunk;
  a.used_in_chunk += bytes;
  a.total_used += bytes;
  return p;
}

std::size_t HostArena::allocated_bytes() const noexcept {
  std::size_t n = 0;
  for (const Arena& a : arenas_) n += a.total_used;
  return n;
}

// ---------------------------------------------------------- PinnedRegion

PinnedRegion::PinnedRegion(gpusim::ExecContext& ctx)
    : dev_(ctx.device()), stats_(ctx.stats()) {}

void PinnedRegion::place_bucket_array(std::uint32_t num_buckets) {
  dev_.alloc_static(static_cast<std::size_t>(num_buckets) * 12);
}

void* PinnedRegion::alloc(std::uint32_t, std::size_t bytes) {
  bytes = round8(bytes);
  assert(bytes <= kChunkBytes);
  stats_.add_alloc_ops();
  gpusim::DeviceLockGuard guard(lock_, stats_);
  if (chunks_.empty() || used_in_chunk_ + bytes > kChunkBytes) {
    chunks_.push_back(std::make_unique<std::byte[]>(kChunkBytes));
    used_in_chunk_ = 0;
  }
  void* p = chunks_.back().get() + used_in_chunk_;
  used_in_chunk_ += bytes;
  total_used_ += bytes;
  return p;
}

std::size_t PinnedRegion::allocated_bytes() const noexcept {
  return total_used_;
}

// ----------------------------------------------------------- DeviceArena

DeviceArena::DeviceArena(gpusim::ExecContext& ctx)
    : dev_(ctx.device()), stats_(ctx.stats()) {}

void DeviceArena::place_bucket_array(std::uint32_t num_buckets) {
  dev_.alloc_static(static_cast<std::size_t>(num_buckets) * 12);
}

void DeviceArena::claim_rest_of_device() {
  size_ = dev_.mem_free();
  base_ = dev_.alloc_static(size_, 64);
}

void* DeviceArena::alloc(std::uint32_t, std::size_t bytes) {
  bytes = round8(bytes);
  stats_.add_alloc_ops();
  const std::uint64_t off = used_.fetch_add(bytes, std::memory_order_relaxed);
  if (off + bytes > size_) {
    stats_.add_alloc_fails();
    throw MapCgOutOfMemory();
  }
  return dev_.ptr(base_ + off);
}

std::size_t DeviceArena::allocated_bytes() const noexcept {
  return std::min<std::size_t>(used_.load(std::memory_order_relaxed), size_);
}

// ------------------------------------------------------ ChainedHashTable

template <typename Memory>
ChainedHashTable<Memory>::ChainedHashTable(typename Memory::Context& ctx,
                                           ChainedTableConfig cfg)
    : mem_(ctx), stats_(mem_.stats()), cfg_(cfg) {
  if (cfg_.num_buckets == 0 || (cfg_.num_buckets & (cfg_.num_buckets - 1)))
    throw std::invalid_argument("num_buckets must be a power of two");
  if (cfg_.org == Organization::kCombining && cfg_.combiner == nullptr)
    throw std::invalid_argument("combining organization requires a combiner");
  bucket_mask_ = cfg_.num_buckets - 1;
  mem_.place_bucket_array(cfg_.num_buckets);
  heads_ = std::vector<std::atomic<void*>>(cfg_.num_buckets);
  for (auto& h : heads_) h.store(nullptr, std::memory_order_relaxed);
  locks_ = std::vector<gpusim::PaddedBucketLock>(cfg_.num_buckets);
}

template <typename Memory>
std::uint32_t ChainedHashTable<Memory>::bucket_of(
    std::string_view key) const noexcept {
  return static_cast<std::uint32_t>(hash_key(key)) & bucket_mask_;
}

template <typename Memory>
template <typename Entry>
void ChainedHashTable<Memory>::push(std::uint32_t b, Entry* e) noexcept {
  e->next = static_cast<Entry*>(heads_[b].load(std::memory_order_relaxed));
  heads_[b].store(e, std::memory_order_release);
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  stats_.add_inserts_new();
}

template <typename Memory>
template <typename Entry>
Entry* ChainedHashTable<Memory>::probe(std::uint32_t b,
                                       std::string_view key) {
  for (Entry* e = head<Entry>(b); e != nullptr; e = e->next) {
    stats_.add_chain_links();
    // Each probe reads the entry header + key.
    mem_.remote(sizeof(Entry) + e->key_len);
    stats_.add_key_compare_bytes(std::min<std::size_t>(e->key_len, key.size()));
    if (e->key() == key) return e;
  }
  return nullptr;
}

template <typename Memory>
void ChainedHashTable<Memory>::insert(std::uint32_t tid, std::string_view key,
                                      std::span<const std::byte> value) {
  stats_.add_hash_ops();
  const std::uint32_t b = bucket_of(key);
  switch (cfg_.org) {
    case Organization::kBasic:
      insert_basic(tid, b, key, value);
      return;
    case Organization::kCombining:
      insert_combining(tid, b, key, value);
      return;
    case Organization::kMultiValued:
      insert_multivalued(tid, b, key, value);
      return;
  }
}

template <typename Memory>
void ChainedHashTable<Memory>::insert_basic(std::uint32_t tid, std::uint32_t b,
                                            std::string_view key,
                                            std::span<const std::byte> value) {
  const std::size_t sz = HostKvEntry::byte_size(key.size(), value.size());
  HostKvEntry* e = HostKvEntry::emplace(mem_.alloc(tid, sz), key, value);
  mem_.remote(sz);  // entry materialized
  gpusim::DeviceLockGuard guard(locks_[b].lock, stats_);
  ++locks_[b].accesses;
  push(b, e);
}

template <typename Memory>
void ChainedHashTable<Memory>::insert_combining(
    std::uint32_t tid, std::uint32_t b, std::string_view key,
    std::span<const std::byte> value) {
  gpusim::DeviceLockGuard guard(locks_[b].lock, stats_);
  ++locks_[b].accesses;
  if (HostKvEntry* e = probe<HostKvEntry>(b, key)) {
    cfg_.combiner(e->value_data(), value.data(),
                  std::min<std::uint32_t>(
                      e->val_len, static_cast<std::uint32_t>(value.size())));
    mem_.remote(2 * e->val_len);  // read-modify-write of the value
    stats_.add_combines();
    return;
  }
  const std::size_t sz = HostKvEntry::byte_size(key.size(), value.size());
  HostKvEntry* e = HostKvEntry::emplace(mem_.alloc(tid, sz), key, value);
  mem_.remote(sz);
  push(b, e);
}

template <typename Memory>
void ChainedHashTable<Memory>::insert_multivalued(
    std::uint32_t tid, std::uint32_t b, std::string_view key,
    std::span<const std::byte> value) {
  gpusim::DeviceLockGuard guard(locks_[b].lock, stats_);
  ++locks_[b].accesses;
  HostKeyEntry* ke = probe<HostKeyEntry>(b, key);
  if (ke == nullptr) {
    const auto key_len = static_cast<std::uint32_t>(key.size());
    const std::size_t ksz = sizeof(HostKeyEntry) + core::pad8(key_len);
    ke = static_cast<HostKeyEntry*>(mem_.alloc(tid, ksz));
    ke->vhead = nullptr;
    ke->key_len = key_len;
    ke->pad_ = 0;
    std::memcpy(ke + 1, key.data(), key_len);
    mem_.remote(ksz);
    push(b, ke);
  }
  const auto val_len = static_cast<std::uint32_t>(value.size());
  const std::size_t vsz = sizeof(HostValueEntry) + core::pad8(val_len);
  auto* ve = static_cast<HostValueEntry*>(mem_.alloc(tid, vsz));
  ve->val_len = val_len;
  ve->pad_ = 0;
  if (val_len) std::memcpy(ve + 1, value.data(), val_len);
  ve->next = ke->vhead;
  // Write the value entry and update the key's list head.
  mem_.remote(vsz + sizeof(void*));
  ke->vhead = ve;
  value_count_.fetch_add(1, std::memory_order_relaxed);
  stats_.add_value_appends();
}

template <typename Memory>
void ChainedHashTable<Memory>::fold_values(std::uint32_t b,
                                           CombineFn combine) {
  for (HostKeyEntry* e = head<HostKeyEntry>(b); e != nullptr; e = e->next) {
    HostValueEntry* first = e->vhead;
    if (first == nullptr) continue;
    for (const HostValueEntry* v = first->next; v != nullptr; v = v->next) {
      stats_.add_chain_links();
      combine(first->value_data(), v->value().data(),
              std::min(first->val_len, v->val_len));
      stats_.add_combines();
    }
  }
}

template <typename Memory>
std::optional<std::span<const std::byte>> ChainedHashTable<Memory>::lookup(
    std::string_view key) const {
  for (const auto* e = head<HostKvEntry>(bucket_of(key)); e != nullptr;
       e = e->next)
    if (e->key() == key) return e->value();
  return std::nullopt;
}

template <typename Memory>
std::vector<std::span<const std::byte>> ChainedHashTable<Memory>::lookup_all(
    std::string_view key) const {
  std::vector<std::span<const std::byte>> out;
  for (const auto* e = head<HostKvEntry>(bucket_of(key)); e != nullptr;
       e = e->next)
    if (e->key() == key) out.push_back(e->value());
  return out;
}

template <typename Memory>
std::optional<std::vector<std::span<const std::byte>>>
ChainedHashTable<Memory>::lookup_group(std::string_view key) const {
  for (const auto* e = head<HostKeyEntry>(bucket_of(key)); e != nullptr;
       e = e->next) {
    if (e->key() != key) continue;
    std::vector<std::span<const std::byte>> vals;
    for (const auto* v = e->vhead; v != nullptr; v = v->next)
      vals.push_back(v->value());
    return vals;
  }
  return std::nullopt;
}

template <typename Memory>
void ChainedHashTable<Memory>::for_each(
    const std::function<void(std::string_view, std::span<const std::byte>)>&
        fn) const {
  for (std::uint32_t b = 0; b < heads_.size(); ++b)
    for (const auto* e = head<HostKvEntry>(b); e != nullptr; e = e->next)
      fn(e->key(), e->value());
}

template <typename Memory>
void ChainedHashTable<Memory>::for_each_group(
    const std::function<void(std::string_view,
                             const std::vector<std::span<const std::byte>>&)>&
        fn) const {
  std::vector<std::span<const std::byte>> vals;
  for (std::uint32_t b = 0; b < heads_.size(); ++b) {
    for (const auto* e = head<HostKeyEntry>(b); e != nullptr; e = e->next) {
      vals.clear();
      for (const auto* v = e->vhead; v != nullptr; v = v->next)
        vals.push_back(v->value());
      fn(e->key(), vals);
    }
  }
}

template class ChainedHashTable<HostArena>;
template class ChainedHashTable<PinnedRegion>;
template class ChainedHashTable<DeviceArena>;

}  // namespace sepo::baselines
