#include "core/hash_table.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "common/hashing.hpp"
#include "gpusim/fault.hpp"
#include "gpusim/journal.hpp"
#include "gpusim/worker_id.hpp"

namespace sepo::core {

SepoHashTable::SepoHashTable(gpusim::ExecContext& ctx, HashTableConfig cfg)
    : ctx_(ctx),
      stats_(ctx.stats()),
      store_(ctx, cfg),
      policy_(make_policy(store_.config())) {
  const HashTableConfig& c = store_.config();
  if (c.batch_insert_capacity > 0) {
    const std::size_t workers = ctx_.pool().worker_count();
    buffers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      buffers_.push_back(std::make_unique<CombineBuffer>(
          c.org, c.batch_insert_capacity, c.combiner_assoc_comm, c.combiner));
    // Drain at every kernel exit, inside the priced launch window, so the
    // deferred store work lands in the same timeline command where the
    // scalar path would have performed it (ExecContext::set_launch_epilogue).
    ctx_.set_launch_epilogue([this] { drain_batches(); });
  }
}

SepoHashTable::~SepoHashTable() {
  if (!buffers_.empty()) ctx_.set_launch_epilogue({});
}

Status SepoHashTable::insert(std::uint64_t h, std::string_view key,
                             std::span<const std::byte> value) {
  assert(!finalized_);
  assert(h == hash_key(key));
  // Hash memoization: one FNV-1a/avalanche per record, threaded through
  // bucket selection, the scratch probe, and the eventual drain.
  stats_.add_hash_ops();
  const std::uint32_t b = store_.bucket_of(h);
  if (buffers_.empty()) return policy_->insert(store_, b, key, value);
  CombineBuffer& buf = worker_buffer();
  if (!buf.add(b, h, key, value)) {
    drain_buffer(buf);
    const bool readded = buf.add(b, h, key, value);
    assert(readded);
    (void)readded;
  }
  return Status::kSuccess;
}

CombineBuffer& SepoHashTable::worker_buffer() noexcept {
  const std::size_t w = gpusim::current_worker_index();
  return *buffers_[w < buffers_.size() ? w : buffers_.size() - 1];
}

void SepoHashTable::drain_buffer(CombineBuffer& buf) {
  if (buf.empty()) return;
  const CombineBufferStats add = buf.take_stats();
  std::vector<RequeuedRecord> requeued;
  const DrainOutcome out = policy_->drain_batch(store_, buf, requeued);
  cb_scratch_hits_.fetch_add(add.scratch_hits, std::memory_order_relaxed);
  cb_precombined_.fetch_add(add.precombined_records, std::memory_order_relaxed);
  cb_lock_saved_.fetch_add(out.lock_acquires_saved, std::memory_order_relaxed);
  cb_drains_.fetch_add(1, std::memory_order_relaxed);
  cb_records_.fetch_add(out.records, std::memory_order_relaxed);
  cb_requeued_.fetch_add(out.requeued, std::memory_order_relaxed);
  if (gpusim::EventJournal* j = ctx_.journal(); j != nullptr)
    j->record(gpusim::JournalEventKind::kBatchDrain, out.records, out.requeued);
  if (!requeued.empty()) {
    const std::lock_guard<std::mutex> lk(requeue_mu_);
    for (RequeuedRecord& r : requeued) requeue_.push_back(std::move(r));
  }
}

void SepoHashTable::drain_batches() {
  for (const std::unique_ptr<CombineBuffer>& b : buffers_) drain_buffer(*b);
}

void SepoHashTable::retry_requeued() {
  std::vector<RequeuedRecord> pending;
  {
    const std::lock_guard<std::mutex> lk(requeue_mu_);
    pending.swap(requeue_);
  }
  if (pending.empty()) return;
  std::vector<RequeuedRecord> still;
  for (RequeuedRecord& r : pending) {
    // A retry is a fresh insert attempt, exactly as if the record had been
    // re-issued by its kernel (one hash op — the hash itself is memoized).
    stats_.add_hash_ops();
    const std::uint32_t b = store_.bucket_of(r.hash);
    if (policy_->insert(store_, b, r.key, r.value) != Status::kSuccess)
      still.push_back(std::move(r));
  }
  if (!still.empty()) {
    const std::lock_guard<std::mutex> lk(requeue_mu_);
    for (RequeuedRecord& r : still) requeue_.push_back(std::move(r));
  }
}

std::size_t SepoHashTable::pending_batched_inserts() const noexcept {
  std::size_t n = 0;
  for (const std::unique_ptr<CombineBuffer>& b : buffers_)
    n += b->record_count();
  const std::lock_guard<std::mutex> lk(requeue_mu_);
  return n + requeue_.size();
}

CombineBufferTotals SepoHashTable::combine_buffer_totals() const noexcept {
  CombineBufferTotals t;
  t.enabled = !buffers_.empty();
  t.scratch_hits = cb_scratch_hits_.load(std::memory_order_relaxed);
  t.precombined_records = cb_precombined_.load(std::memory_order_relaxed);
  t.lock_acquires_saved = cb_lock_saved_.load(std::memory_order_relaxed);
  t.drain_flushes = cb_drains_.load(std::memory_order_relaxed);
  t.drained_records = cb_records_.load(std::memory_order_relaxed);
  t.requeued_records = cb_requeued_.load(std::memory_order_relaxed);
  return t;
}

const KvEntry* SepoHashTable::find_resident(std::string_view key) {
  stats_.add_hash_ops();
  const DevPtr p = store_.find_in_chain(store_.bucket_of(key), key);
  return p == gpusim::kDevNull ? nullptr : store_.device().ptr<KvEntry>(p);
}

void SepoHashTable::apply_pressure() {
  gpusim::FaultInjector* const f = ctx_.faults();
  if (f == nullptr || f->config().pressure_rate <= 0) return;
  alloc::PagePool& pool = store_.pool();
  bool new_spike = false;
  const std::uint32_t target = f->pressure_target(pool.page_count(), new_spike);
  if (new_spike) stats_.add_pressure_spikes();
  gpusim::EventJournal* const journal = ctx_.journal();
  if (new_spike && journal != nullptr)
    journal->record(gpusim::JournalEventKind::kPressureBegin, target);
  const std::size_t held_before = pressure_pages_.size();
  // Seize pages straight from the pool (they count as page_acquires — the
  // spike is indistinguishable from another tenant grabbing memory). If the
  // pool runs dry mid-seize the spike simply holds less than it wanted.
  while (pressure_pages_.size() < target) {
    const std::uint32_t p = pool.acquire(stats_);
    if (p == alloc::kInvalidPage) break;
    pressure_pages_.push_back(p);
  }
  while (pressure_pages_.size() > target) {
    pool.release(pressure_pages_.back(), &stats_);
    pressure_pages_.pop_back();
  }
  if (held_before > 0 && pressure_pages_.empty() && journal != nullptr)
    journal->record(gpusim::JournalEventKind::kPressureEnd, held_before);
}

bool SepoHashTable::should_halt(double halt_frac) const noexcept {
  return store_.allocator().postponed_groups() >=
         static_cast<std::uint32_t>(halt_frac * store_.allocator().num_groups());
}

void SepoHashTable::begin_iteration() {
  stats_.add_iterations();
  store_.allocator().reset_postponed();
  apply_pressure();
  policy_->begin_iteration(store_);
  // Retry drain-postponed records now that flushed pages are back in the
  // pool (and, multi-valued, the device chains are rebuilt) — the batched
  // equivalent of the scalar path's re-issued records.
  if (!buffers_.empty()) retry_requeued();
}

void SepoHashTable::end_iteration() {
  // Safety net for inserts issued outside kernel launches (direct API use):
  // kernels already drained at their exit epilogue.
  if (!buffers_.empty()) drain_batches();
  std::vector<std::uint32_t> to_flush;
  policy_->collect_end_of_iteration(store_, to_flush);
  store_.flush_pages(to_flush);
}

HostTable SepoHashTable::finalize() {
  assert(!finalized_);
  if (!buffers_.empty()) {
    // Flush the pipeline completely: every buffered record must be durable
    // before the host view is built. Each round frees device pages exactly
    // like an iteration boundary, then replays the queue; a round that
    // fails to shrink it cannot ever make progress (the pool only grows at
    // boundaries), so give up loudly instead of spinning.
    drain_batches();
    std::size_t last = std::numeric_limits<std::size_t>::max();
    while (true) {
      std::size_t pending;
      {
        const std::lock_guard<std::mutex> lk(requeue_mu_);
        pending = requeue_.size();
      }
      if (pending == 0) break;
      if (pending >= last)
        throw std::runtime_error(
            "batched insert pipeline cannot place re-queued records at "
            "finalize: a record may exceed the heap size");
      last = pending;
      std::vector<std::uint32_t> to_flush;
      policy_->collect_end_of_iteration(store_, to_flush);
      store_.flush_pages(to_flush);
      policy_->begin_iteration(store_);
      retry_requeued();
    }
  }
  // Return any pages an injected pressure spike still holds.
  for (const std::uint32_t p : pressure_pages_)
    store_.pool().release(p, &stats_);
  pressure_pages_.clear();
  // Flush whatever is still resident (multi-valued key pages included).
  std::vector<std::uint32_t> to_flush;
  policy_->collect_final(store_, to_flush);
  store_.flush_pages(to_flush);
  finalized_ = true;

  return HostTable(store_.config().org, store_.take_host_heads(),
                   store_.host_heap(), store_.config().combiner);
}

std::vector<std::uint64_t> SepoHashTable::resident_chain_histogram(
    std::size_t max_len) const {
  std::vector<std::uint64_t> hist(max_len + 1, 0);
  for (std::uint32_t i = 0; i < store_.num_buckets(); ++i) {
    std::size_t len = 0;
    for (DevPtr p = store_.line(i).head_dev.load(std::memory_order_relaxed);
         p != gpusim::kDevNull; ++len)
      p = policy_->chain_next(store_.device(), p);
    ++hist[std::min(len, max_len)];
  }
  return hist;
}

}  // namespace sepo::core
