#include "alloc/bucket_group_allocator.hpp"

#include <cassert>

namespace sepo::alloc {

BucketGroupAllocator::BucketGroupAllocator(PagePool& pool, HostHeap& host_heap,
                                           std::uint32_t num_groups,
                                           std::uint32_t num_classes)
    : pool_(pool),
      host_heap_(host_heap),
      num_groups_(num_groups),
      num_classes_(num_classes),
      slots_(static_cast<std::size_t>(num_groups) * num_classes),
      group_postponed_(num_groups) {
  assert(num_groups > 0 && num_classes >= 1 && num_classes <= 3);
  for (auto& f : group_postponed_) f.store(0, std::memory_order_relaxed);
}

Allocation BucketGroupAllocator::alloc(std::uint32_t group, PageClass cls,
                                       std::uint32_t bytes,
                                       gpusim::RunStats& stats) noexcept {
  stats.add_alloc_ops();
  bytes = (bytes + 7u) & ~7u;
  // A request that can never fit in a page can never be serviced, in this
  // or any later iteration; fail it without burning a page.
  if (bytes == 0 || bytes > pool_.page_size()) {
    mark_postponed(group);
    stats.add_alloc_fails();
    return {};
  }

  Slot& s = slot(group, cls);
  const auto page_size = static_cast<std::uint32_t>(pool_.page_size());

  // Dry-pool failure without the slot lock. Within a kernel launch no page
  // returns to the pool (flushes, pressure releases and postpone resets all
  // run between launches) and a page's bump offset only grows. So once the
  // pool is seen dry, no slot can install another page (that takes a
  // successful acquire), and an active page that cannot fit the request
  // never will: the locked path would fail too. The lock must be seen free,
  // because a holder may have taken the last page without installing it
  // yet; a free lock (an acquire load) shows the page its last holder
  // installed. The failure is charged exactly as the locked path's.
  if (pool_.dry() && !s.lock.held()) {
    const std::uint32_t page = s.page.load(std::memory_order_relaxed);
    if (page == kInvalidPage ||
        pool_.meta(page).used.load(std::memory_order_relaxed) + bytes >
            page_size) {
      stats.add_lock_acquires();
      mark_postponed(group);
      stats.add_alloc_fails();
      return {};
    }
  }

  gpusim::DeviceLockGuard guard(s.lock, stats);
  const std::uint32_t page = s.page.load(std::memory_order_relaxed);

  if (page != kInvalidPage) {
    auto& m = pool_.meta(page);
    const std::uint32_t off = m.used.load(std::memory_order_relaxed);
    if (off + bytes <= page_size) {
      m.used.store(off + bytes, std::memory_order_relaxed);
      const std::uint64_t slot_id = m.host_slot.load(std::memory_order_relaxed);
      return {pool_.page_base(page) + off, host_heap_.addr(slot_id, off), page};
    }
  }

  // Active page missing or full: acquire a fresh page from the pool.
  const std::uint32_t fresh = pool_.acquire(stats);
  if (fresh == kInvalidPage) {
    mark_postponed(group);
    stats.add_alloc_fails();
    return {};
  }
  if (page != kInvalidPage) retire(page, cls);
  auto& m = pool_.meta(fresh);
  m.cls = cls;
  m.owner_group = group;
  m.host_slot.store(host_heap_.reserve_slot(), std::memory_order_relaxed);
  m.used.store(bytes, std::memory_order_relaxed);
  s.page.store(fresh, std::memory_order_relaxed);
  const std::uint64_t slot_id = m.host_slot.load(std::memory_order_relaxed);
  return {pool_.page_base(fresh), host_heap_.addr(slot_id, 0), fresh};
}

void BucketGroupAllocator::mark_postponed(std::uint32_t group) noexcept {
  // Most failed allocs hit a group already marked this interval: a plain
  // load keeps them off the locked RMW, and the exchange still elects one
  // winner among racing first markers.
  std::atomic<std::uint8_t>& flag = group_postponed_[group];
  if (flag.load(std::memory_order_relaxed) == 0 &&
      flag.exchange(1, std::memory_order_relaxed) == 0)
    postponed_groups_.fetch_add(1, std::memory_order_relaxed);
}

void BucketGroupAllocator::reset_postponed() noexcept {
  for (auto& f : group_postponed_) f.store(0, std::memory_order_relaxed);
  postponed_groups_.store(0, std::memory_order_relaxed);
}

void BucketGroupAllocator::detach_active_pages(std::vector<std::uint32_t>& out) {
  for (auto& s : slots_) {
    const std::uint32_t page = s.page.exchange(kInvalidPage,
                                               std::memory_order_relaxed);
    if (page != kInvalidPage) out.push_back(page);
  }
}

void BucketGroupAllocator::detach_active_pages(PageClass cls,
                                               std::vector<std::uint32_t>& out) {
  for (std::uint32_t g = 0; g < num_groups_; ++g) {
    const std::uint32_t page =
        slot(g, cls).page.exchange(kInvalidPage, std::memory_order_relaxed);
    if (page != kInvalidPage) out.push_back(page);
  }
}

void BucketGroupAllocator::retire(std::uint32_t page, PageClass cls) noexcept {
  // Rare event (once per page fill); a short critical section is fine.
  while (!retired_lock_.try_lock()) {
  }
  retired_[static_cast<std::uint32_t>(cls)].push_back(page);
  retired_lock_.unlock();
}

void BucketGroupAllocator::take_retired_pages(std::vector<std::uint32_t>& out) {
  while (!retired_lock_.try_lock()) {
  }
  for (auto& list : retired_) {
    out.insert(out.end(), list.begin(), list.end());
    list.clear();
  }
  retired_lock_.unlock();
}

void BucketGroupAllocator::take_retired_pages(PageClass cls,
                                              std::vector<std::uint32_t>& out) {
  while (!retired_lock_.try_lock()) {
  }
  auto& list = retired_[static_cast<std::uint32_t>(cls)];
  out.insert(out.end(), list.begin(), list.end());
  list.clear();
  retired_lock_.unlock();
}

}  // namespace sepo::alloc
