// All registered apps and engines (see engine.hpp for why this is one TU).
#include "apps/engine.hpp"

#include <algorithm>
#include <new>
#include <optional>
#include <unordered_map>

#include "baselines/paging_sim.hpp"
#include "baselines/stadium_hash_table.hpp"
#include "gpusim/launch.hpp"
#include "gpusim/pcie.hpp"

namespace sepo::apps {

namespace {

// ---------------------------------------------------------------- engines

class SepoGpuEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "sepo-gpu"; }
  const char* describe() const noexcept override {
    return "SEPO hash table on the virtual GPU: BigKernel staging + SEPO "
           "iterations (the paper's system)";
  }
  Caps caps() const noexcept override {
    return {.standalone = true,
            .simulated_device = true,
            .trace = true,
            .journal = true,
            .faults = true};
  }
  RunResult run(const AppInfo& app, std::string_view input,
                const EngineConfig& cfg) const override {
    return app.standalone->run_gpu(input, cfg.gpu);
  }
};

class SepoMrEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "sepo-mr"; }
  const char* describe() const noexcept override {
    return "SEPO-based MapReduce runtime on the virtual GPU (paper §V)";
  }
  Caps caps() const noexcept override {
    return {.mapreduce = true,
            .simulated_device = true,
            .trace = true,
            .journal = true,
            .faults = true};
  }
  RunResult run(const AppInfo& app, std::string_view input,
                const EngineConfig& cfg) const override {
    return run_mr_sepo(*app.mr, input, cfg.gpu);
  }
};

class CpuEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "cpu"; }
  const char* describe() const noexcept override {
    return "multi-threaded CPU baseline table (the Figure 6 reference)";
  }
  Caps caps() const noexcept override { return {.standalone = true}; }
  RunResult run(const AppInfo& app, std::string_view input,
                const EngineConfig& cfg) const override {
    return app.standalone->run_cpu(input, cfg.cpu);
  }
};

class PhoenixEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "phoenix"; }
  const char* describe() const noexcept override {
    return "Phoenix++-style CPU MapReduce runtime (the Figure 6 reference)";
  }
  Caps caps() const noexcept override { return {.mapreduce = true}; }
  RunResult run(const AppInfo& app, std::string_view input,
                const EngineConfig& cfg) const override {
    return run_mr_phoenix(*app.mr, input, cfg.cpu);
  }
};

class PinnedEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "pinned"; }
  const char* describe() const noexcept override {
    return "heap pinned in CPU memory, chains walked over PCIe (§VI-D)";
  }
  Caps caps() const noexcept override {
    return {.standalone = true,
            .simulated_device = true,
            .trace = true,
            .journal = true,
            .faults = true};
  }
  RunResult run(const AppInfo& app, std::string_view input,
                const EngineConfig& cfg) const override {
    return app.standalone->run_pinned(input, cfg.gpu);
  }
};

class MapCgEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "mapcg"; }
  const char* describe() const noexcept override {
    return "MapCG-style GPU runtime, whole input + table in a device arena "
           "(the Table II comparator; fails structurally when it outgrows "
           "the device)";
  }
  Caps caps() const noexcept override {
    return {.mapreduce = true,
            .simulated_device = true,
            .trace = true,
            .journal = true,
            .faults = true};
  }
  RunResult run(const AppInfo& app, std::string_view input,
                const EngineConfig& cfg) const override {
    return run_mr_mapcg(*app.mr, input, cfg.gpu);
  }
};

// ------------------------------------------------------- stadium baseline

class StadiumEmitter final : public mapreduce::Emitter {
 public:
  explicit StadiumEmitter(baselines::StadiumHashTable& t) noexcept : t_(t) {}
  core::Status emit(std::string_view key,
                    std::span<const std::byte> value) override {
    t_.insert(key, value);
    return core::Status::kSuccess;
  }

 private:
  baselines::StadiumHashTable& t_;
};

// Stadium stores every duplicate pair (the paper's §VII critique), so its
// digest needs the host-side post-pass the design itself lacks: merge the
// raw pairs under the app's organization semantics, then digest exactly
// like digest_kv / digest_groups. keys = distinct keys after the merge;
// stats.inserts_new keeps the raw stored-pair count.
void digest_stadium(const AppInfo& app,
                    const baselines::StadiumHashTable& table, RunResult& r) {
  switch (app.standalone->organization()) {
    case core::Organization::kBasic: {
      std::uint64_t sum = 0, pairs = 0;
      table.for_each([&](std::string_view k, std::span<const std::byte> v) {
        sum += checksum_kv_bytes(k, v.data(), v.size());
        ++pairs;
      });
      r.checksum = sum;
      r.keys = pairs;  // basic keeps duplicates everywhere
      return;
    }
    case core::Organization::kCombining: {
      const core::CombineFn combine = app.standalone->combiner();
      std::unordered_map<std::string, std::vector<std::byte>> merged;
      table.for_each([&](std::string_view k, std::span<const std::byte> v) {
        auto [it, fresh] = merged.try_emplace(std::string(k), v.begin(),
                                              v.end());
        if (!fresh)
          combine(it->second.data(), v.data(),
                  static_cast<std::uint32_t>(
                      std::min(it->second.size(), v.size())));
      });
      std::uint64_t sum = 0;
      for (const auto& [k, v] : merged)
        sum += checksum_kv_bytes(k, v.data(), v.size());
      r.checksum = sum;
      r.keys = merged.size();
      return;
    }
    case core::Organization::kMultiValued: {
      std::unordered_map<std::string, std::uint64_t> vsums;
      table.for_each([&](std::string_view k, std::span<const std::byte> v) {
        vsums[std::string(k)] +=
            hash_bytes(reinterpret_cast<const char*>(v.data()), v.size());
      });
      std::uint64_t sum = 0;
      for (const auto& [k, vsum] : vsums)
        sum += hash_combine(hash_key(k), mix64(vsum));
      r.checksum = sum;
      r.keys = vsums.size();
      return;
    }
  }
}

class StadiumEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "stadium"; }
  const char* describe() const noexcept override {
    return "Stadium-hashing baseline (§VII): entries in pinned CPU memory "
           "behind a device-resident fingerprint index; duplicates stored "
           "as separate pairs, merged host-side only for the digest";
  }
  Caps caps() const noexcept override {
    // Inserts meter the raw PCIe bus (one remote txn per pair) and the run is
    // priced as one pass afterwards, not through the fault-priced
    // ExecContext launches, so fault injection does not apply. The pass's
    // timeline commands reach a trace recorder like any other run's.
    return {.standalone = true, .simulated_device = true, .trace = true};
  }
  RunResult run(const AppInfo& app, std::string_view input,
                const EngineConfig& cfg) const override {
    SimRun sim(cfg.gpu);
    const RecordIndex idx = index_lines(input);
    RunResult r;
    r.impl = name();
    // Input still streams through staged chunks; meter it as one bulk pass.
    sim.dev.bus().h2d(input.size());
    // Constructed inside the try: the bucket array's static allocation can
    // itself exceed a small device, and that too must surface as a typed
    // RunError rather than a raw exception.
    std::optional<baselines::StadiumHashTable> table;
    try {
      table.emplace(sim.ctx,
                    baselines::StadiumConfig{.num_buckets = cfg.gpu.num_buckets});
      StadiumEmitter em(*table);
      // Serial, so metered through a one-worker shard scope.
      gpusim::run_serial(sim.stats, [&] {
        for (std::size_t i = 0; i < idx.size(); ++i) {
          const std::string_view body = idx.record(input.data(), i);
          sim.stats.add_work_units(body.size());
          app.standalone->map_record(body, em);
          sim.stats.add_records_processed();
        }
      });
    } catch (const std::bad_alloc& e) {
      // The fingerprint index outgrew the device: Stadium has no SEPO, so
      // the run fails structurally rather than returning a partial table.
      r.error = run_error_from(e);
    }
    const auto load = table ? table->bucket_load()
                            : gpusim::BucketLoad{};
    r.stats = sim.stats.snapshot();
    r.pcie = sim.dev.bus().snapshot();
    r.serial = {.total_lock_ops = load.total_accesses,
                .max_same_lock_ops = load.max_bucket_accesses,
                .serial_atomic_ops = 0};
    r.iterations = 1;
    if (!r.error) digest_stadium(app, *table, r);
    // The whole run is priced as one pass on the timeline: the input's
    // staging overlaps the insert kernel (the kernel does not wait for it),
    // and the per-pair remote writes, metered on the bus, serialize after
    // both. Makespan: max(compute, h2d) + remote.
    gpusim::ExecContext& ctx = sim.ctx;
    const gpusim::Event staged = ctx.copy_stream().h2d(input.size());
    ctx.compute_stream().kernel(r.stats, idx.size());
    ctx.compute_stream().wait(staged);
    ctx.compute_stream().remote(r.pcie.remote_bytes, r.pcie.remote_txns);
    fill_gpu_times(r, ctx, sim.dev.bus());
    r.wall_seconds = sim.timer.seconds();
    return r;
  }
};

// ------------------------------------------------ demand-paging lower bound

class TraceEmitter final : public mapreduce::Emitter {
 public:
  explicit TraceEmitter(baselines::TracedCombiningTable& t) noexcept : t_(t) {}
  core::Status emit(std::string_view key,
                    std::span<const std::byte>) override {
    t_.insert_count(key);
    return core::Status::kSuccess;
  }

 private:
  baselines::TracedCombiningTable& t_;
};

class PagingSimEngine final : public Engine {
 public:
  const char* name() const noexcept override { return "paging-sim"; }
  const char* describe() const noexcept override {
    return "demand-paging lower bound (§VI-D): replays the table access "
           "trace through an LRU page cache; sim time is the bandwidth-only "
           "transfer bound (0 when the table fits in memory). "
           "Count-combining apps only (PVC)";
  }
  Caps caps() const noexcept override { return {.standalone = true}; }
  bool supports(const AppInfo& app) const override {
    // The traced table models <key, +1> combining inserts, so only apps
    // with exactly that shape replay faithfully.
    return !app.is_mapreduce() &&
           app.standalone->organization() == core::Organization::kCombining &&
           app.standalone->combiner() == core::combine_sum_u64;
  }
  RunResult run(const AppInfo& app, std::string_view input,
                const EngineConfig& cfg) const override {
    WallTimer timer;
    baselines::TracedCombiningTable traced(cfg.gpu.num_buckets);
    TraceEmitter em(traced);
    const RecordIndex idx = index_lines(input);
    for (std::size_t i = 0; i < idx.size(); ++i)
      app.standalone->map_record(idx.record(input.data(), i), em);

    const std::uint64_t mem_bytes =
        cfg.gpu.heap_bytes ? cfg.gpu.heap_bytes : cfg.gpu.device_bytes;
    const auto res =
        baselines::simulate_lru(traced.trace(), cfg.gpu.page_size, mem_bytes);
    const gpusim::PcieBus bus;  // same PCIe model used everywhere

    RunResult r;
    r.impl = name();
    r.iterations = 1;
    r.table_bytes = traced.table_bytes();
    r.heap_bytes = mem_bytes;
    r.keys = traced.entry_count();
    std::uint64_t sum = 0;
    traced.for_each_count([&](std::string_view k, std::uint64_t count) {
      sum += checksum_kv_bytes(
          k, reinterpret_cast<const std::byte*>(&count), sizeof(count));
    });
    r.checksum = sum;
    r.pcie.d2h_bytes = res.bytes_transferred;  // replacement traffic
    r.sim_seconds = static_cast<double>(res.bytes_transferred) /
                    bus.params().bandwidth_bytes_per_s;
    r.wall_seconds = timer.seconds();
    return r;
  }
};

}  // namespace

// ---------------------------------------------------------------- registry

const std::vector<const AppInfo*>& all_apps() {
  static const PageViewCountApp pvc;
  static const InvertedIndexApp ii;
  static const DnaAssemblyApp dna;
  static const NetflixApp netflix;
  static const AppInfo infos[] = {
      {.key = "pvc", .title = pvc.name(), .standalone = &pvc},
      {.key = "ii", .title = ii.name(), .standalone = &ii},
      {.key = "dna", .title = dna.name(), .standalone = &dna},
      {.key = "netflix", .title = netflix.name(), .standalone = &netflix},
      {.key = "wc", .title = word_count_app().name, .mr = &word_count_app()},
      {.key = "pc",
       .title = patent_citation_app().name,
       .mr = &patent_citation_app()},
      {.key = "geo",
       .title = geo_location_app().name,
       .mr = &geo_location_app()},
  };
  static const std::vector<const AppInfo*> list = [] {
    std::vector<const AppInfo*> v;
    for (const AppInfo& i : infos) v.push_back(&i);
    return v;
  }();
  return list;
}

const AppInfo* find_app(std::string_view key) {
  for (const AppInfo* a : all_apps())
    if (key == a->key) return a;
  return nullptr;
}

const std::vector<const Engine*>& all_engines() {
  static const SepoGpuEngine sepo_gpu;
  static const SepoMrEngine sepo_mr;
  static const CpuEngine cpu;
  static const PhoenixEngine phoenix;
  static const PinnedEngine pinned;
  static const MapCgEngine mapcg;
  static const StadiumEngine stadium;
  static const PagingSimEngine paging;
  static const std::vector<const Engine*> list = {
      &sepo_gpu, &sepo_mr, &cpu, &phoenix, &pinned, &mapcg, &stadium, &paging};
  return list;
}

const Engine* find_engine(std::string_view name) {
  for (const Engine* e : all_engines())
    if (name == e->name()) return e;
  return nullptr;
}

const Engine* resolve_engine(std::string_view name, const AppInfo& app) {
  // Historical aliases: "gpu" has always meant "the SEPO engine for this
  // app's kind", "mr" the MapReduce one.
  if (name == "gpu")
    return find_engine(app.is_mapreduce() ? "sepo-mr" : "sepo-gpu");
  if (name == "mr") return find_engine("sepo-mr");
  return find_engine(name);
}

const Engine* baseline_engine(const AppInfo& app) {
  return find_engine(app.is_mapreduce() ? "phoenix" : "cpu");
}

}  // namespace sepo::apps
