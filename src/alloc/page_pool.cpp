#include "alloc/page_pool.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

namespace sepo::alloc {

namespace {
constexpr std::uint64_t pack(std::uint32_t tag, std::uint32_t page) {
  return (static_cast<std::uint64_t>(tag) << 32) | page;
}
constexpr std::uint32_t head_page(std::uint64_t h) {
  return static_cast<std::uint32_t>(h & 0xffffffffu);
}
constexpr std::uint32_t head_tag(std::uint64_t h) {
  return static_cast<std::uint32_t>(h >> 32);
}
}  // namespace

PagePool::PagePool(gpusim::Device& dev, std::size_t heap_bytes,
                   std::size_t page_size)
    : page_size_(page_size) {
  if (page_size < 64 || (page_size & (page_size - 1)) != 0)
    throw std::invalid_argument(
        "PagePool: page_size must be a power of two >= 64, got " +
        std::to_string(page_size));
  const std::size_t n = heap_bytes / page_size;
  heap_base_ = dev.alloc_static(n * page_size, /*align=*/64);
  pages_ = std::vector<PageMeta>(n);
  next_ = std::vector<std::atomic<std::uint32_t>>(n);
  // Thread all pages onto the free stack: 0 -> 1 -> ... -> n-1 -> invalid.
  for (std::size_t i = 0; i < n; ++i)
    next_[i].store(i + 1 < n ? static_cast<std::uint32_t>(i + 1) : kInvalidPage,
                   std::memory_order_relaxed);
  head_.store(pack(0, n > 0 ? 0 : kInvalidPage), std::memory_order_relaxed);
  free_count_.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
}

std::uint32_t PagePool::acquire(gpusim::RunStats& stats) noexcept {
  std::uint64_t h = head_.load(std::memory_order_acquire);
  while (true) {
    const std::uint32_t page = head_page(h);
    if (page == kInvalidPage) return kInvalidPage;
    const std::uint32_t nxt = next_[page].load(std::memory_order_relaxed);
    const std::uint64_t want = pack(head_tag(h) + 1, nxt);
    if (head_.compare_exchange_weak(h, want, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      const std::uint32_t left =
          free_count_.fetch_sub(1, std::memory_order_relaxed) - 1;
      stats.add_page_acquires();
      if (journal_ != nullptr)
        journal_->record(gpusim::JournalEventKind::kPageAcquire, page, left);
      PageMeta& m = pages_[page];
      const bool was_in_pool = m.in_pool.exchange(false, std::memory_order_relaxed);
      assert(was_in_pool);
      (void)was_in_pool;
      m.used.store(0, std::memory_order_relaxed);
      m.pending_keys.store(0, std::memory_order_relaxed);
      return page;
    }
  }
}

bool PagePool::release(std::uint32_t page, gpusim::RunStats* stats) noexcept {
  PageMeta& m = pages_[page];
  // Claim the release with one atomic swap: of two racing (or sequential)
  // releases of the same page, exactly one sees in_pool == false and pushes;
  // the other is rejected instead of corrupting the free stack.
  if (m.in_pool.exchange(true, std::memory_order_acq_rel)) {
    if (stats != nullptr) stats->add_page_double_releases();
    if (journal_ != nullptr)
      journal_->record(gpusim::JournalEventKind::kPageDoubleRelease, page);
    return false;
  }
  m.host_slot.store(0, std::memory_order_relaxed);
  std::uint64_t h = head_.load(std::memory_order_acquire);
  while (true) {
    next_[page].store(head_page(h), std::memory_order_relaxed);
    const std::uint64_t want = pack(head_tag(h) + 1, page);
    if (head_.compare_exchange_weak(h, want, std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      const std::uint32_t now_free =
          free_count_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (journal_ != nullptr)
        journal_->record(gpusim::JournalEventKind::kPageRelease, page,
                         now_free);
      return true;
    }
  }
}

}  // namespace sepo::alloc
