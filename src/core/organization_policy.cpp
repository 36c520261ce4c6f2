#include "core/organization_policy.hpp"

#include <algorithm>
#include <cstring>

#include "gpusim/launch.hpp"

namespace sepo::core {

void OrganizationPolicy::begin_iteration(BucketChainStore&) {}

void OrganizationPolicy::collect_end_of_iteration(
    BucketChainStore& store, std::vector<std::uint32_t>& to_flush) {
  // Basic and Combining flush the entire heap (Figure 5 (a), (c)). The
  // device chains now point into freed pages: reset them. Host chains are
  // complete and untouched.
  store.allocator().detach_active_pages(to_flush);
  store.allocator().take_retired_pages(to_flush);
  store.clear_device_chains();
}

void OrganizationPolicy::collect_final(BucketChainStore& store,
                                       std::vector<std::uint32_t>& to_flush) {
  store.allocator().detach_active_pages(to_flush);
  store.allocator().take_retired_pages(to_flush);
}

DevPtr OrganizationPolicy::chain_next(const gpusim::Device& dev,
                                      DevPtr p) const {
  return dev.ptr<KvEntry>(p)->next_dev;
}

namespace {

// Allocates a fresh KvEntry for <key, value> and prepends it to bucket `b`
// ("new KV pairs are always inserted at the head of the bucket linked
// list", §III-B). Caller holds the bucket lock.
Status insert_new_kv(BucketChainStore& store, std::uint32_t b,
                     std::string_view key, std::span<const std::byte> value) {
  const auto key_len = static_cast<std::uint32_t>(key.size());
  const auto val_len = static_cast<std::uint32_t>(value.size());
  const std::uint32_t sz = KvEntry::byte_size(key_len, val_len);
  const alloc::Allocation a = store.allocator().alloc(
      store.group_of(b), alloc::PageClass::kGeneric, sz, store.stats());
  if (!a.ok()) return Status::kPostpone;

  auto* e = store.device().ptr<KvEntry>(a.dev);
  e->key_len = key_len;
  e->val_len = val_len;
  std::memcpy(e->key_data(), key.data(), key_len);
  if (val_len) std::memcpy(e->value_data(), value.data(), val_len);
  store.prepend(b, a.dev, a.host);
  store.stats().add_inserts_new();
  return Status::kSuccess;
}

void requeue_record(std::vector<RequeuedRecord>& requeue, std::string_view key,
                    std::span<const std::byte> value, std::uint64_t hash) {
  RequeuedRecord r;
  r.key.assign(key.data(), key.size());
  r.value.assign(value.begin(), value.end());
  r.hash = hash;
  requeue.push_back(std::move(r));
}

using DrainCtx = CombineBuffer::DrainScratch;

// The shared bucket-run drain skeleton. Sorts the batch's bucket ids and
// acquires each distinct bucket's lock exactly once, in
// ascending bucket order — a canonical order, so concurrent drains holding
// overlapping lock sets cannot deadlock. With every lock held it replays
// the log in *arrival* order: the global sequence of allocator (and page
// pool) requests is then bit-identical to the scalar path, which matters
// because the pool is a shared resource — when it runs dry mid-batch,
// request order decides which record postpones. `process(e, ctx)` performs
// one record's store operation and returns true when the record was
// re-queued.
template <typename ProcessFn>
DrainOutcome drain_runs(BucketChainStore& store, CombineBuffer& buf,
                        const ProcessFn& process) {
  DrainOutcome out;
  const std::span<const CombineBuffer::LogEntry> log = buf.log();
  if (log.empty()) {
    buf.clear();
    return out;
  }
  out.records = log.size();
  const std::span<CombineBuffer::Slot> slots = buf.slots();

  DrainCtx& ctx = buf.drain_scratch();
  ctx.locked.clear();
  for (const CombineBuffer::Slot& s : slots) ctx.locked.push_back(s.bucket);
  std::sort(ctx.locked.begin(), ctx.locked.end());
  ctx.locked.erase(std::unique(ctx.locked.begin(), ctx.locked.end()),
                   ctx.locked.end());
  const std::size_t n = ctx.locked.size();
  ctx.accesses.assign(n, 0);
  ctx.chain_links = 0;
  ctx.key_compare_bytes = 0;

  for (const std::uint32_t b : ctx.locked)
    store.line(b).lock.lock(store.stats());
  // Mirror the scalar path's one-acquire-per-record count; the loop above
  // already recorded one real acquire per distinct bucket.
  const std::uint64_t saved = log.size() - n;
  store.stats().add_lock_acquires(saved);
  out.lock_acquires_saved = saved;

  for (const CombineBuffer::LogEntry& e : log)
    if (process(e, ctx)) ++out.requeued;

  for (std::size_t i = 0; i < n; ++i)
    store.line(ctx.locked[i]).accesses += ctx.accesses[i];
  if (ctx.chain_links) store.stats().add_chain_links(ctx.chain_links);
  if (ctx.key_compare_bytes)
    store.stats().add_key_compare_bytes(ctx.key_compare_bytes);

  for (auto it = ctx.locked.rbegin(); it != ctx.locked.rend(); ++it)
    store.line(*it).lock.unlock();
  buf.clear();
  return out;
}

class BasicPolicy final : public OrganizationPolicy {
 public:
  Status insert(BucketChainStore& store, std::uint32_t b, std::string_view key,
                std::span<const std::byte> value) override {
    // Duplicate keys are kept as separate entries, so no chain probe is
    // needed — allocate and prepend.
    gpusim::DeviceLockGuard guard(store.line(b).lock, store.stats());
    ++store.line(b).accesses;
    return insert_new_kv(store, b, key, value);
  }

  DrainOutcome drain_batch(BucketChainStore& store, CombineBuffer& buf,
                           std::vector<RequeuedRecord>& requeue) override {
    const std::span<CombineBuffer::Slot> slots = buf.slots();
    return drain_runs(
        store, buf, [&](const CombineBuffer::LogEntry& e, DrainCtx& ctx) {
          // Basic keeps one slot per record and every record allocates, so
          // there is nothing to amortize beyond the lock runs; count the
          // access directly.
          (void)ctx;
          const CombineBuffer::Slot& s = slots[e.slot];
          ++store.line(s.bucket).accesses;
          if (insert_new_kv(store, s.bucket, buf.slot_key(s),
                            buf.log_value(e)) != Status::kSuccess) {
            requeue_record(requeue, buf.slot_key(s), buf.log_value(e), s.hash);
            return true;
          }
          return false;
        });
  }
};

class CombiningPolicy final : public OrganizationPolicy {
 public:
  Status insert(BucketChainStore& store, std::uint32_t b, std::string_view key,
                std::span<const std::byte> value) override {
    const auto val_len = static_cast<std::uint32_t>(value.size());
    gpusim::DeviceLockGuard guard(store.line(b).lock, store.stats());
    ++store.line(b).accesses;
    const DevPtr existing = store.find_in_chain(b, key);
    if (existing != gpusim::kDevNull) {
      auto* e = store.device().ptr<KvEntry>(existing);
      store.config().combiner(e->value_data(), value.data(),
                              std::min(e->val_len, val_len));
      store.stats().add_combines();
      return Status::kSuccess;
    }
    return insert_new_kv(store, b, key, value);
  }

  DrainOutcome drain_batch(BucketChainStore& store, CombineBuffer& buf,
                           std::vector<RequeuedRecord>& requeue) override {
    const std::span<CombineBuffer::Slot> slots = buf.slots();
    const bool precombined = buf.precombine();
    const CombineFn combiner = store.config().combiner;
    std::uint64_t combines = 0;

    const DrainOutcome out = drain_runs(
        store, buf, [&](const CombineBuffer::LogEntry& e, DrainCtx& ctx) {
          CombineBuffer::Slot& s = slots[e.slot];

          if (s.state == 1) {
            // Repeat record of an already-resolved key: charge the probe
            // the scalar path would have paid, then combine. This is the
            // hot path for skewed keys — everything accumulates locally.
            ++ctx.accesses[s.dense];
            ctx.charge_repeat(s);
            ++combines;
            if (!precombined) {
              auto* kv = store.device().ptr<KvEntry>(s.entry);
              combiner(kv->value_data(), buf.log_value(e).data(),
                       std::min(kv->val_len, e.val_len));
            }
            return false;
          }

          // First record of this key in the batch (or a key whose
          // allocation failed before — re-attempt exactly like a scalar
          // retry would).
          const std::uint32_t b = s.bucket;
          s.dense = ctx.dense_of(b);
          ++ctx.accesses[s.dense];
          BucketChainStore::ProbeCost cost;
          const DevPtr existing =
              store.find_in_chain(b, buf.slot_key(s), cost);
          if (existing != gpusim::kDevNull) {
            auto* kv = store.device().ptr<KvEntry>(existing);
            const std::span<const std::byte> v =
                precombined ? buf.slot_value(s) : buf.log_value(e);
            combiner(kv->value_data(), v.data(),
                     std::min<std::uint32_t>(
                         kv->val_len, static_cast<std::uint32_t>(v.size())));
            ++combines;
            ctx.chain_links += cost.links;
            ctx.key_compare_bytes += cost.bytes;
            s.entry = existing;
            s.depth_links = cost.links;
            s.depth_bytes = cost.bytes;
            s.state = 1;
            return false;
          }
          ctx.chain_links += cost.links;
          ctx.key_compare_bytes += cost.bytes;
          const std::span<const std::byte> v =
              precombined ? buf.slot_value(s) : buf.log_value(e);
          if (insert_new_kv(store, b, buf.slot_key(s), v) !=
              Status::kSuccess) {
            // Leave the slot unresolved: every further record of this key
            // replays the scalar retry (real probe + real alloc attempt)
            // and re-queues.
            requeue_record(requeue, buf.slot_key(s), buf.log_value(e), s.hash);
            return true;
          }
          s.entry = store.line(b).head_dev.load(std::memory_order_relaxed);
          s.depth_links = 1;  // prepended in this launch: a head hit
          s.depth_bytes = s.key_len;
          s.state = 1;
          return false;
        });
    if (combines) store.stats().add_combines(combines);
    return out;
  }
};

class MultiValuedPolicy final : public OrganizationPolicy {
 public:
  Status insert(BucketChainStore& store, std::uint32_t b, std::string_view key,
                std::span<const std::byte> value) override {
    const auto key_len = static_cast<std::uint32_t>(key.size());
    const std::uint32_t g = store.group_of(b);

    gpusim::DeviceLockGuard guard(store.line(b).lock, store.stats());
    ++store.line(b).accesses;
    DevPtr kp = store.find_key_entry(b, key);

    if (kp == gpusim::kDevNull) {
      kp = insert_key_entry(store, b, g, key, key_len);
      if (kp == gpusim::kDevNull) return Status::kPostpone;
    }
    return append_value(store, g, kp, value);
  }

  DrainOutcome drain_batch(BucketChainStore& store, CombineBuffer& buf,
                           std::vector<RequeuedRecord>& requeue) override {
    const std::span<CombineBuffer::Slot> slots = buf.slots();
    return drain_runs(
        store, buf, [&](const CombineBuffer::LogEntry& e, DrainCtx& ctx) {
          CombineBuffer::Slot& s = slots[e.slot];
          const std::uint32_t b = s.bucket;
          const std::uint32_t g = store.group_of(b);

          DevPtr kp;
          if (s.state == 1) {
            // Key already resolved by this batch: charge the probe, reuse
            // the cached KeyEntry.
            ++ctx.accesses[s.dense];
            ctx.charge_repeat(s);
            kp = s.entry;
          } else {
            s.dense = ctx.dense_of(b);
            ++ctx.accesses[s.dense];
            BucketChainStore::ProbeCost cost;
            kp = store.find_key_entry(b, buf.slot_key(s), cost);
            ctx.chain_links += cost.links;
            ctx.key_compare_bytes += cost.bytes;
            if (kp == gpusim::kDevNull) {
              kp = insert_key_entry(store, b, g, buf.slot_key(s), s.key_len);
              if (kp == gpusim::kDevNull) {
                requeue_record(requeue, buf.slot_key(s), buf.log_value(e),
                               s.hash);
                return true;
              }
              s.depth_links = 1;  // prepended in this launch: a head hit
              s.depth_bytes = s.key_len;
            } else {
              s.depth_links = cost.links;
              s.depth_bytes = cost.bytes;
            }
            s.entry = kp;
            s.state = 1;
          }
          if (append_value(store, g, kp, buf.log_value(e)) !=
              Status::kSuccess) {
            requeue_record(requeue, buf.slot_key(s), buf.log_value(e), s.hash);
            return true;
          }
          return false;
        });
  }

  void begin_iteration(BucketChainStore& store) override {
    for (const std::uint32_t p : resident_key_pages_)
      store.pool().meta(p).pending_keys.store(0, std::memory_order_relaxed);
    rebuild_device_chains(store);
  }

  void collect_end_of_iteration(BucketChainStore& store,
                                std::vector<std::uint32_t>& to_flush) override {
    // Flush all value pages plus key pages with no pending keys; key pages
    // with pending keys stay resident (Figure 5 (b)).
    store.allocator().detach_active_pages(alloc::PageClass::kValue, to_flush);
    store.allocator().take_retired_pages(alloc::PageClass::kValue, to_flush);

    std::vector<std::uint32_t> key_pages;
    store.allocator().detach_active_pages(alloc::PageClass::kKey, key_pages);
    store.allocator().take_retired_pages(alloc::PageClass::kKey, key_pages);
    key_pages.insert(key_pages.end(), resident_key_pages_.begin(),
                     resident_key_pages_.end());
    resident_key_pages_.clear();
    for (const std::uint32_t p : key_pages) {
      if (store.pool().meta(p).pending_keys.load(std::memory_order_relaxed) >
          0)
        resident_key_pages_.push_back(p);
      else
        to_flush.push_back(p);
    }
    // Livelock valve: if pending key pages would starve the pool (every page
    // resident, nothing left for values — a failure mode the paper's flush
    // rule does not address), flush them too. Their pending keys will be
    // re-materialized as duplicate entries that HostTable merges on read.
    const auto cap = static_cast<std::size_t>(
        store.config().max_resident_key_frac * store.pool().page_count());
    if (resident_key_pages_.size() > cap) {
      to_flush.insert(to_flush.end(), resident_key_pages_.begin(),
                      resident_key_pages_.end());
      resident_key_pages_.clear();
    }
  }

  void collect_final(BucketChainStore& store,
                     std::vector<std::uint32_t>& to_flush) override {
    // At completion no resident key has pending values, but flushing is
    // unconditional.
    OrganizationPolicy::collect_final(store, to_flush);
    to_flush.insert(to_flush.end(), resident_key_pages_.begin(),
                    resident_key_pages_.end());
    resident_key_pages_.clear();
  }

  [[nodiscard]] DevPtr chain_next(const gpusim::Device& dev,
                                  DevPtr p) const override {
    return dev.ptr<KeyEntry>(p)->next_dev;
  }

 private:
  // Allocates and prepends a KeyEntry for `key`; returns its dev ptr, or
  // kDevNull on allocation failure. Caller holds the bucket lock.
  static DevPtr insert_key_entry(BucketChainStore& store, std::uint32_t b,
                                 std::uint32_t g, std::string_view key,
                                 std::uint32_t key_len) {
    const alloc::Allocation ka = store.allocator().alloc(
        g, alloc::PageClass::kKey, KeyEntry::byte_size(key_len),
        store.stats());
    if (!ka.ok()) return gpusim::kDevNull;
    auto* ke = store.device().ptr<KeyEntry>(ka.dev);
    ke->vhead_dev = gpusim::kDevNull;
    ke->vhead_host = alloc::kHostNull;
    ke->key_len = key_len;
    ke->page = ka.page;
    std::memcpy(ke->key_data(), key.data(), key_len);
    store.prepend(b, ka.dev, ka.host);
    store.stats().add_inserts_new();
    return ka.dev;
  }

  // Allocates a ValueEntry and links it to the key at `kp`. On failure the
  // key's page is marked pending so the Figure-5 flush rule keeps it
  // resident for the retried record.
  static Status append_value(BucketChainStore& store, std::uint32_t g,
                             DevPtr kp, std::span<const std::byte> value) {
    const auto val_len = static_cast<std::uint32_t>(value.size());
    auto* ke = store.device().ptr<KeyEntry>(kp);
    const alloc::Allocation va = store.allocator().alloc(
        g, alloc::PageClass::kValue, ValueEntry::byte_size(val_len),
        store.stats());
    if (!va.ok()) {
      store.pool().meta(ke->page).pending_keys.fetch_add(
          1, std::memory_order_relaxed);
      return Status::kPostpone;
    }
    auto* ve = store.device().ptr<ValueEntry>(va.dev);
    ve->next_dev = ke->vhead_dev;
    ve->next_host = ke->vhead_host;
    ve->val_len = val_len;
    ve->pad_ = 0;
    if (val_len) std::memcpy(ve->value_data(), value.data(), val_len);
    ke->vhead_dev = va.dev;
    ke->vhead_host = va.host;
    store.stats().add_value_appends();
    return Status::kSuccess;
  }

  void rebuild_device_chains(BucketChainStore& store) {
    // The device chains contain pointers into pages that were flushed at the
    // end of the previous iteration; reset them and re-link only the entries
    // on resident key pages. Host chains are untouched — they are complete.
    store.clear_device_chains();

    // One kernel over resident pages: each page is walked linearly (entries
    // are contiguous and self-sizing). Scheduled through the context so the
    // rebuild shows up on the compute timeline like any other kernel.
    store.ctx().launch(resident_key_pages_.size(), [&](std::size_t i) {
      const std::uint32_t page = resident_key_pages_[i];
      const auto& meta = store.pool().meta(page);
      const std::uint32_t used = meta.used.load(std::memory_order_relaxed);
      const DevPtr base = store.pool().page_base(page);
      std::uint32_t off = 0;
      while (off < used) {
        const DevPtr ep = base + off;
        auto* ke = store.device().ptr<KeyEntry>(ep);
        // The only hash recomputation left on the insert side: entries do
        // not carry their hash (the paper-fixed layout spends its header
        // bytes on the dual dev/host pointers), so re-linking a resident
        // page must rehash each key once per iteration.
        const std::uint32_t b = store.bucket_of(ke->key());
        ke->vhead_dev = gpusim::kDevNull;  // all value pages were flushed
        gpusim::DeviceLockGuard guard(store.line(b).lock, store.stats());
        store.relink_resident(b, ep);
        store.stats().add_chain_links();
        off += ke->byte_size();
      }
    });
  }

  // Key pages kept resident across iterations because some of their keys
  // still await values (paper §IV-C).
  std::vector<std::uint32_t> resident_key_pages_;
};

}  // namespace

std::unique_ptr<OrganizationPolicy> make_policy(const HashTableConfig& cfg) {
  switch (cfg.org) {
    case Organization::kBasic:
      return std::make_unique<BasicPolicy>();
    case Organization::kCombining:
      return std::make_unique<CombiningPolicy>();
    case Organization::kMultiValued:
      return std::make_unique<MultiValuedPolicy>();
  }
  return std::make_unique<BasicPolicy>();
}

}  // namespace sepo::core
