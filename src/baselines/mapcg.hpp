// MapCG-style GPU MapReduce baseline (paper §VI-C; [7] Hong et al. 2010).
//
// Modelled from MapCG's published design, with the properties the paper's
// comparison turns on:
//   * the whole input is copied to device memory up front (no pipelining);
//   * KV pairs go into a device hash table whose entries come from ONE
//     global bump allocator (a single atomically-incremented offset — the
//     serialization the distributed bucket-group allocator of §IV-A avoids);
//   * duplicate keys are NOT combined on the fly: every emission allocates a
//     value node, and kMapReduce needs a separate reduce pass afterwards;
//   * there is no SEPO: when device memory runs out, the run FAILS
//     ("the execution fails when there is no more free memory to store newly
//     inserted KV pairs", §VI-C).
// The table is the baselines' shared multi-valued ChainedHashTable on a
// DeviceArena (baselines/chained_hash_table.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "baselines/chained_hash_table.hpp"
#include "gpusim/exec_context.hpp"
#include "mapreduce/spec.hpp"

namespace sepo::baselines {

struct MapCgConfig {
  std::uint32_t num_buckets = 1u << 15;  // power of two
  std::size_t grid_threads = 0;
};

class MapCgRuntime {
 public:
  explicit MapCgRuntime(gpusim::ExecContext& ctx, MapCgConfig cfg = {});

  // Runs map over all records; throws MapCgOutOfMemory when the device
  // cannot hold input + table. For kMapReduce a separate reduce pass folds
  // each key's value list with spec.combine.
  void run(std::string_view input, const mapreduce::MrSpec& spec);

  // --- result access (valid after run) ---

  // kMapReduce results: fn(key, reduced_value).
  void for_each(
      const std::function<void(std::string_view, std::span<const std::byte>)>&
          fn) const;

  // kMapGroup results: fn(key, values).
  void for_each_group(
      const std::function<void(std::string_view,
                               const std::vector<std::span<const std::byte>>&)>&
          fn) const {
    table_.for_each_group(fn);
  }

  [[nodiscard]] std::size_t key_count() const noexcept {
    return table_.entry_count();
  }
  [[nodiscard]] std::size_t value_count() const noexcept {
    return table_.value_count();
  }
  [[nodiscard]] gpusim::BucketLoad bucket_load() const noexcept {
    return table_.bucket_load();
  }

 private:
  gpusim::ExecContext& ctx_;
  MapCgConfig cfg_;
  ChainedHashTable<DeviceArena> table_;
};

}  // namespace sepo::baselines
