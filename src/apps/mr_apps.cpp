#include "apps/mr_apps.hpp"

#include <new>
#include <optional>

#include "apps/datagen.hpp"
#include "baselines/mapcg.hpp"
#include "baselines/phoenix.hpp"
#include "common/timer.hpp"
#include "gpusim/device.hpp"
#include "mapreduce/runtime.hpp"

namespace sepo::apps {

namespace {

void map_word_count(std::string_view record, mapreduce::Emitter& em) {
  std::size_t start = 0;
  while (start < record.size()) {
    std::size_t end = record.find(' ', start);
    if (end == std::string_view::npos) end = record.size();
    if (end > start) {
      if (em.emit_u64(record.substr(start, end - start), 1) ==
          core::Status::kPostpone)
        return;
    }
    start = end + 1;
  }
}

void map_geo_location(std::string_view record, mapreduce::Emitter& em) {
  // <articleId>\t<geo cell string>  ->  <cell, articleId>
  const std::size_t tab = record.find('\t');
  if (tab == std::string_view::npos) return;
  const std::string_view id = record.substr(0, tab);
  const std::string_view cell = record.substr(tab + 1);
  em.emit(cell, std::as_bytes(std::span{id.data(), id.size()}));
}

void map_patent_citation(std::string_view record, mapreduce::Emitter& em) {
  // "C<citing> P<cited>"  ->  <cited, citing>
  const std::size_t sp = record.find(' ');
  if (sp == std::string_view::npos) return;
  const std::string_view citing = record.substr(0, sp);
  const std::string_view cited = record.substr(sp + 1);
  em.emit(cited, std::as_bytes(std::span{citing.data(), citing.size()}));
}

std::string gen_wc(std::size_t bytes, std::uint64_t seed) {
  return gen_text({.target_bytes = bytes, .seed = seed});
}
std::string gen_geo(std::size_t bytes, std::uint64_t seed) {
  // Mild skew: geotag cells are many and no single cell dominates.
  return gen_geo_articles({.target_bytes = bytes, .seed = seed},
                          /*cells=*/40000, /*zipf_s=*/0.5);
}
std::string gen_pc(std::size_t bytes, std::uint64_t seed) {
  return gen_patents({.target_bytes = bytes, .seed = seed},
                     /*patents=*/60000, /*zipf_s=*/0.4);
}

}  // namespace

const MrApp& word_count_app() {
  static const MrApp app{.name = "Word Count",
                         .table1_key = "wc",
                         .mode = mapreduce::Mode::kMapReduce,
                         .generate = gen_wc,
                         .map = map_word_count,
                         .combine = core::combine_sum_u64,
                         .combine_assoc_comm = true};
  return app;
}

const MrApp& geo_location_app() {
  static const MrApp app{.name = "Geo Location",
                         .table1_key = "geo",
                         .mode = mapreduce::Mode::kMapGroup,
                         .generate = gen_geo,
                         .map = map_geo_location,
                         .combine = nullptr};
  return app;
}

const MrApp& patent_citation_app() {
  static const MrApp app{.name = "Patent Citation",
                         .table1_key = "pc",
                         .mode = mapreduce::Mode::kMapGroup,
                         .generate = gen_pc,
                         .map = map_patent_citation,
                         .combine = nullptr};
  return app;
}

RunResult run_mr_sepo(const MrApp& app, std::string_view input,
                      const GpuConfig& cfg) {
  SimRun sim(cfg);
  gpusim::Device& dev = sim.dev;
  gpusim::RunStats& stats = sim.stats;
  gpusim::ExecContext& ctx = sim.ctx;

  mapreduce::RuntimeConfig rcfg;
  rcfg.table.num_buckets = cfg.num_buckets;
  rcfg.table.buckets_per_group = cfg.buckets_per_group;
  rcfg.table.page_size = cfg.page_size;
  rcfg.table.batch_insert_capacity = cfg.batch_insert;
  const RecordIndex index = index_lines(input);
  choose_chunking(index, cfg, rcfg.pipeline);

  // Constructed inside the try: the runtime's table can already exceed the
  // device (typed DeviceOutOfMemory), and like any other structural failure
  // that must surface as a RunError, not a raw exception.
  std::optional<mapreduce::MapReduceRuntime> runtime;
  const auto fail = [&](const std::exception& e) {
    RunResult r;
    r.impl = "sepo-mr";
    r.stats = stats.snapshot();
    r.pcie = dev.bus().snapshot();
    r.error = run_error_from(e);
    fill_gpu_times(r, ctx, dev.bus());
    r.wall_seconds = sim.timer.seconds();
    return r;
  };

  mapreduce::RunOutcome out;
  try {
    runtime.emplace(ctx, rcfg);
    out = runtime->run(input, app.spec(), index);
  } catch (const gpusim::FaultError& e) {
    return fail(e);
  } catch (const std::bad_alloc& e) {
    return fail(e);
  } catch (const std::runtime_error& e) {
    // Driver stall (iteration cap / zero progress) — typed kNoProgress.
    return fail(e);
  }

  RunResult r;
  r.impl = "sepo-mr";
  r.stats = stats.snapshot();
  r.pcie = dev.bus().snapshot();
  const auto load = runtime->table()->bucket_load();
  r.serial = {.total_lock_ops = load.total_accesses,
              .max_same_lock_ops = load.max_bucket_accesses,
              .serial_atomic_ops = 0};
  r.iterations = out.driver.iterations;
  r.table_bytes = runtime->table()->table_stats().table_bytes;
  r.heap_bytes = runtime->table()->page_pool().heap_bytes();
  r.keys = out.table->entry_count();
  r.checksum = app.mode == mapreduce::Mode::kMapGroup
                   ? digest_groups(*out.table)
                   : digest_kv(*out.table);
  r.iteration_profiles = out.driver.profiles;
  r.timeseries = out.driver.timeseries;
  r.bucket_histogram = out.table->occupancy_histogram();
  r.combine_buffer = runtime->table()->combine_buffer_totals();
  fill_gpu_times(r, ctx, dev.bus());
  r.wall_seconds = sim.timer.seconds();
  return r;
}

RunResult run_mr_phoenix(const MrApp& app, std::string_view input,
                         const CpuConfig& cfg) {
  WallTimer timer;
  gpusim::ThreadPool pool(cfg.pool_workers);
  gpusim::RunStats stats;

  baselines::PhoenixConfig pcfg;
  pcfg.num_threads = cfg.num_threads;
  pcfg.merged_table_buckets = cfg.num_buckets;
  baselines::PhoenixRuntime phoenix(pool, stats, pcfg);
  const auto table = phoenix.run(input, app.spec());

  RunResult r;
  r.impl = "phoenix";
  r.stats = stats.snapshot();
  r.serial = {.total_lock_ops = 0,  // private containers: no shared locks
              .max_same_lock_ops = 0,
              .serial_atomic_ops = 0};
  r.iterations = 1;
  r.table_bytes = table->allocated_bytes();
  r.keys = table->entry_count();
  r.checksum = app.mode == mapreduce::Mode::kMapGroup ? digest_groups(*table)
                                                      : digest_kv(*table);
  r.sim_seconds = cpu_sim_seconds(r.stats, r.serial);
  r.wall_seconds = timer.seconds();
  return r;
}

RunResult run_mr_mapcg(const MrApp& app, std::string_view input,
                       const GpuConfig& cfg) {
  SimRun sim(cfg);
  gpusim::Device& dev = sim.dev;
  gpusim::RunStats& stats = sim.stats;
  gpusim::ExecContext& ctx = sim.ctx;

  baselines::MapCgConfig mcfg;
  mcfg.num_buckets = cfg.num_buckets;
  baselines::MapCgRuntime mapcg(ctx, mcfg);

  RunResult r;
  r.impl = "mapcg";
  try {
    mapcg.run(input, app.spec());
  } catch (const baselines::MapCgOutOfMemory& e) {
    // MapCG has no SEPO: a table that outgrows the device arena is a
    // structural failure of the whole run (paper §II).
    r.error = run_error_from(e);
  } catch (const gpusim::FaultError& e) {
    r.error = run_error_from(e);
  } catch (const std::bad_alloc& e) {
    r.error = run_error_from(e);
  }

  r.stats = stats.snapshot();
  r.pcie = dev.bus().snapshot();
  const auto load = mapcg.bucket_load();
  r.serial = {.total_lock_ops = load.total_accesses,
              .max_same_lock_ops = load.max_bucket_accesses,
              // Every allocation bumps MapCG's one global offset.
              .serial_atomic_ops = r.stats.alloc_ops};
  r.iterations = 1;
  if (!r.error) {
    r.keys = mapcg.key_count();
    r.checksum = app.mode == mapreduce::Mode::kMapGroup
                     ? digest_groups(mapcg)
                     : digest_kv(mapcg);
  }
  fill_gpu_times(r, ctx, dev.bus());
  r.wall_seconds = sim.timer.seconds();
  return r;
}

}  // namespace sepo::apps
