// PCIe bus model.
//
// The paper's headline comparisons (SEPO vs pinned-in-CPU-memory vs demand
// paging, §VI-D) are decided by how many bytes cross the bus in how many
// transactions: "the data is transferred over many small PCIe transactions,
// which is much costlier than a few bulky PCIe transactions". We therefore
// meter every transfer as (transaction count, byte count). The Timeline
// (stream.hpp) converts them to time with the latency + bandwidth model of
// PcieParams (Timeline::price_copy / price_remote), the arithmetic the paper
// uses to compute Table III's lower bounds.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpusim/trace_hook.hpp"
#include "gpusim/worker_id.hpp"

namespace sepo::gpusim {

struct PcieParams {
  // Effective host<->device bandwidth for bulk copies. PCIe Gen3 x16 is
  // 15.75 GB/s raw; ~12 GB/s is a typical achieved figure.
  double bandwidth_bytes_per_s = 12.0e9;
  // Per-transaction setup latency (driver + DMA descriptor + link).
  double latency_s = 1.3e-6;
  // Small remote accesses (a GPU thread dereferencing pinned CPU memory)
  // pay a round-trip and achieve very poor effective bandwidth.
  double remote_roundtrip_s = 0.9e-6;
  double remote_bandwidth_bytes_per_s = 0.8e9;
};

struct PcieSnapshot {
  std::uint64_t h2d_bytes = 0, h2d_txns = 0;
  std::uint64_t d2h_bytes = 0, d2h_txns = 0;
  std::uint64_t remote_bytes = 0, remote_txns = 0;

  PcieSnapshot& operator+=(const PcieSnapshot& o) {
    h2d_bytes += o.h2d_bytes;
    h2d_txns += o.h2d_txns;
    d2h_bytes += o.d2h_bytes;
    d2h_txns += o.d2h_txns;
    remote_bytes += o.remote_bytes;
    remote_txns += o.remote_txns;
    return *this;
  }
};

class PcieBus {
 public:
  explicit PcieBus(PcieParams params = {}) : params_(params) {}

  // Bulk host-to-device copy (input staging).
  void h2d(std::uint64_t bytes) noexcept {
    h2d_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    h2d_txns_.fetch_add(1, std::memory_order_relaxed);
    if (trace_hook_) trace_hook_->on_h2d(bytes);
  }

  // Bulk device-to-host copy (heap flushes).
  void d2h(std::uint64_t bytes) noexcept {
    d2h_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    d2h_txns_.fetch_add(1, std::memory_order_relaxed);
    if (trace_hook_) trace_hook_->on_d2h(bytes);
  }

  // Small remote access from a device thread to pinned host memory. Inside
  // a kernel (ExecContext::launch shards the bus) it is two plain additions
  // to the calling worker's shard; elsewhere two relaxed fetch_adds.
  void remote(std::uint64_t bytes) noexcept {
    if (RemoteShard* shards = remote_shards_) {
      RemoteShard& s = shards[current_worker_index()];
      s.bytes += bytes;
      ++s.txns;
    } else {
      remote_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      remote_txns_.fetch_add(1, std::memory_order_relaxed);
    }
    if (trace_hook_) trace_hook_->on_remote(bytes);
  }

  // --- sharded remote metering (the RunStats protocol, for remote()) ---
  // Install from the host while the workers are quiescent, before the
  // kernel's pool job is published; end_sharding folds the shards into the
  // atomics (idempotent) before anything reads a snapshot. Sums commute, so
  // snapshots are bit-identical to the unsharded path.
  void begin_sharding(std::size_t workers) {
    assert(remote_shards_ == nullptr && "shard scopes do not nest");
    if (remote_shard_storage_.size() < workers)
      remote_shard_storage_.resize(workers);
    std::fill_n(remote_shard_storage_.begin(), workers, RemoteShard{});
    n_remote_shards_ = workers;
    remote_shards_ = remote_shard_storage_.data();
  }

  void end_sharding() noexcept {
    RemoteShard* const shards = remote_shards_;
    if (shards == nullptr) return;
    remote_shards_ = nullptr;
    for (std::size_t w = 0; w < n_remote_shards_; ++w) {
      if (shards[w].txns == 0) continue;
      remote_bytes_.fetch_add(shards[w].bytes, std::memory_order_relaxed);
      remote_txns_.fetch_add(shards[w].txns, std::memory_order_relaxed);
    }
  }

  // Telemetry hook (obs::TraceRecorder). Install from the host before the
  // run; null keeps the metering paths hook-free apart from one branch.
  void set_trace_hook(TraceHook* hook) noexcept { trace_hook_ = hook; }
  [[nodiscard]] TraceHook* trace_hook() const noexcept { return trace_hook_; }

  [[nodiscard]] PcieSnapshot snapshot() const noexcept {
    PcieSnapshot s;
    s.h2d_bytes = h2d_bytes_.load(std::memory_order_relaxed);
    s.h2d_txns = h2d_txns_.load(std::memory_order_relaxed);
    s.d2h_bytes = d2h_bytes_.load(std::memory_order_relaxed);
    s.d2h_txns = d2h_txns_.load(std::memory_order_relaxed);
    s.remote_bytes = remote_bytes_.load(std::memory_order_relaxed);
    s.remote_txns = remote_txns_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() noexcept {
    h2d_bytes_ = h2d_txns_ = d2h_bytes_ = d2h_txns_ = remote_bytes_ =
        remote_txns_ = 0;
  }

  [[nodiscard]] const PcieParams& params() const noexcept { return params_; }

 private:
  // One worker's remote meter on its own cache line.
  struct alignas(kCacheLineBytes) RemoteShard {
    std::uint64_t bytes = 0, txns = 0;
  };

  PcieParams params_;
  TraceHook* trace_hook_ = nullptr;
  std::atomic<std::uint64_t> h2d_bytes_{0}, h2d_txns_{0};
  std::atomic<std::uint64_t> d2h_bytes_{0}, d2h_txns_{0};
  std::atomic<std::uint64_t> remote_bytes_{0}, remote_txns_{0};
  RemoteShard* remote_shards_ = nullptr;  // non-null only inside a kernel
  std::size_t n_remote_shards_ = 0;
  std::vector<RemoteShard> remote_shard_storage_;
};

}  // namespace sepo::gpusim
