#include "baselines/mapcg.hpp"

#include <atomic>
#include <stdexcept>

#include "common/strings.hpp"

namespace sepo::baselines {

MapCgRuntime::MapCgRuntime(gpusim::ExecContext& ctx, MapCgConfig cfg)
    : ctx_(ctx),
      cfg_(cfg),
      table_(ctx, {.org = Organization::kMultiValued,
                   .num_buckets = cfg.num_buckets}) {}

void MapCgRuntime::run(std::string_view input, const mapreduce::MrSpec& spec) {
  if (!spec.map) throw std::invalid_argument("spec.map is required");
  if (spec.mode == mapreduce::Mode::kMapReduce && spec.combine == nullptr)
    throw std::invalid_argument("MAP_REDUCE mode requires spec.combine");

  // MapCG copies the entire input to device memory up front; input and
  // table share what the device has. Fail early if the input alone does
  // not fit.
  gpusim::Device& dev = ctx_.device();
  if (input.size() + (64u << 10) > dev.mem_free())
    throw MapCgOutOfMemory("MapCG: input does not fit in device memory");
  const gpusim::DevPtr dev_input = dev.alloc_static(input.size(), 64);
  // MapCG has no pipelining: the upfront copy must complete before the map
  // kernel starts (honestly serial on the timeline, unlike BigKernel).
  const gpusim::Event input_staged =
      ctx_.stage_h2d(dev_input, input.data(), input.size());
  table_.memory().claim_rest_of_device();

  const RecordIndex index = index_lines(input);
  gpusim::RunStats& stats = ctx_.stats();
  // Exceptions must not escape a pool worker; an out-of-memory emit sets a
  // flag and the failure is rethrown on the host thread after the kernel.
  std::atomic<bool> oom{false};
  ctx_.launch(
      index.size(),
      [&](std::size_t r) {
        if (oom.load(std::memory_order_relaxed)) return;
        const std::string_view body{
            reinterpret_cast<const char*>(
                dev.ptr(dev_input + index.offsets[r])),
            index.lengths[r]};
        stats.add_work_units(body.size());
        TableEmitter<DeviceArena> em(table_);
        try {
          spec.map(body, em);
        } catch (const MapCgOutOfMemory&) {
          oom.store(true, std::memory_order_relaxed);
          return;
        }
        stats.add_records_processed();
      },
      {.grid_threads = cfg_.grid_threads}, input_staged);
  if (oom.load(std::memory_order_relaxed)) throw MapCgOutOfMemory();

  // Separate reduce phase ("grouping is postponed to a later stage", the
  // overhead the paper's on-the-fly combining avoids): fold each key's
  // value list into its first value node.
  if (spec.mode == mapreduce::Mode::kMapReduce)
    ctx_.launch(cfg_.num_buckets, [&](std::size_t b) {
      table_.fold_values(static_cast<std::uint32_t>(b), spec.combine);
    });

  // Results are copied back to host in one bulk transfer.
  const std::size_t result_bytes = table_.allocated_bytes();
  dev.bus().d2h(result_bytes);
  ctx_.flush_d2h(result_bytes);
}

void MapCgRuntime::for_each(
    const std::function<void(std::string_view, std::span<const std::byte>)>&
        fn) const {
  table_.for_each_group(
      [&](std::string_view key,
          const std::vector<std::span<const std::byte>>& vals) {
        if (!vals.empty()) fn(key, vals.front());
      });
}

}  // namespace sepo::baselines
