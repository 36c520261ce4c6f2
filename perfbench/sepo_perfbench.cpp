// The repository's benchmark: whole runs of the SEPO system and its
// comparators through apps::Engine::run on seeded inputs, timed in CPU
// seconds on one pinned CPU and scaled by a host-speed probe, with the
// simulated clock read straight from RunResult.
//
//   sepo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale F]
//
// Closed loop: one caller in one process runs the workload's engines back
// to back, each run starting after the previous one returned. Engines run
// with pool_workers = kPoolWorkers, all on the one CPU. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set. perfbench/README.md
// lists both and explains how they relate.
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "bigkernel/pipeline.hpp"
#include "common/hashing.hpp"
#include "common/progress.hpp"
#include "common/strings.hpp"
#include "core/hash_table.hpp"
#include "core/sepo_driver.hpp"
#include "gpusim/cost_model.hpp"
#include "layer_trace.hpp"
#include "mapreduce/runtime.hpp"
#include "mapreduce/sepo_emitter.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using sepo::apps::AppInfo;
using sepo::apps::Engine;
using sepo::apps::EngineConfig;
using sepo::apps::RunResult;

constexpr std::size_t kPoolWorkers = 4;
constexpr int kMinRounds = 3;
// Host-time metrics are CPU seconds scaled by kProbeRefSeconds over the
// median probe_seconds() of the same process: seconds on a host on which the
// probe takes kProbeRefSeconds. 10 ms is a round figure near the probe's
// median on the 4-vCPU Xeon VM the bounds were set on.
constexpr double kProbeRefSeconds = 0.010;

// One workload: an app, its input size and simulated device, the SEPO
// engine, and the comparators. The first comparator is the reference the
// digests are checked against and sim_speedup is taken from.
struct Workload {
  const char* name;
  const char* app;
  std::size_t bytes;
  std::size_t device_bytes;
  const char* sepo;
  std::vector<const char*> comparators;
};

// Why these three, and the layer each one loads, is in README.md.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"wc-hot-fit", "wc", 16u << 20, 4u << 20, "sepo-mr", {"phoenix"}},
      {"pvc-spill",
       "pvc",
       16u << 20,
       2u << 20,
       "sepo-gpu",
       {"cpu", "pinned", "stadium", "paging-sim"}},
      {"pc-group-spill",
       "pc",
       sepo::apps::table1_bytes("pc", 4),
       4u << 20,
       "sepo-mr",
       {"phoenix"}},
  };
  return list;
}

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// (max - min) / median, in percent.
double spread_pct(const std::vector<double>& v) {
  const double m = median(v);
  if (v.empty() || m == 0) return 0;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return (*hi - *lo) / m * 100.0;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------- output

// Metrics in print order. Timings carry their samples so the human-readable
// line can show the sample count and a high percentile.
class Report {
 public:
  void add(std::string name, double value, std::string unit,
           std::vector<double> samples = {}) {
    rows_.push_back({std::move(name), value, std::move(unit),
                     std::move(samples)});
  }

  void print_lines() const {
    for (const Row& r : rows_) {
      std::printf("metric %-36s %.9g %s", r.name.c_str(), r.value,
                  r.unit.c_str());
      if (!r.samples.empty()) {
        std::printf("  (median of n=%zu", r.samples.size());
        // The highest percentile with at least ten samples beyond it.
        for (const double p : {99.0, 95.0, 90.0, 75.0}) {
          if (static_cast<double>(r.samples.size()) * (1 - p / 100) >= 10) {
            std::printf(", p%.0f=%.9g", p, percentile(r.samples, p));
            break;
          }
        }
        std::printf(")");
      }
      std::printf("\n");
    }
  }

  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit.c_str());
    std::printf("}}\n");
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::vector<double> samples;
  };
  std::vector<Row> rows_;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        for (char& c : m)
          if (c == '"' || c == '\\') c = ' ';
        return m;
      }
    }
  }
  return "unknown";
}

// The host a result came from. `run.py compare` refuses to compare results
// whose fingerprints differ.
void print_fingerprint() {
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("fingerprint {\"nproc\": %u, \"cpus_used\": 1, "
              "\"pool_workers\": %zu, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"cpu_model\": \"%s\", "
              "\"probe_ref_s\": %.3f}\n",
              std::thread::hardware_concurrency(), kPoolWorkers, compiler,
              PERFBENCH_BUILD_TYPE, cpu_model().c_str(), kProbeRefSeconds);
}

// Cumulative (steal, total) CPU jiffies from the `cpu` line of /proc/stat.
// Steal is time this guest was ready to run while the hypervisor ran
// something else.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 10 && in >> v; ++i) {
    if (i < 8) total += v;  // guest time is already counted in user/nice
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// CPU seconds used so far by every thread of this process, exited ones
// included. The kernel leaves out time the hypervisor stole from the vCPU
// and time a thread spent blocked, so this does not stretch with steal the
// way a wall-clock interval does.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Confines this process, and every thread it creates later, to the highest
// CPU it may run on; returns that CPU, or -1 if the affinity call failed.
// On several vCPUs the pool's helpers either share each launch with the
// submitting thread or never wake in time to help, and which of the two a
// process gets is settled by the scheduler early on: the same run then costs
// about 2x the CPU time, or 0.6x the wall time, of the other mode. On one
// CPU the mode cannot flip, and CPU time equals wall time less steal.
int pin_to_one_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpu = c;
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

// The host-speed probe's input: 1 MiB of skewed tokens from a fixed seed,
// independent of --seed and of the code under test.
const std::string& probe_text() {
  static const std::string text = [] {
    std::string t;
    t.reserve((1u << 20) + 16);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    while (t.size() < (1u << 20)) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // The product of two uniform draws favours small ids.
      const std::uint64_t a = (x & 0xFFFF) % 600;
      const std::uint64_t b = ((x >> 16) & 0xFFFF) % 600;
      t += 'w';
      t += std::to_string(a * b + (x >> 40) % 3);
      t += (x >> 60) == 0 ? '\n' : ' ';
    }
    return t;
  }();
  return text;
}

// One run of the host-speed probe, in CPU seconds: copy the probe text,
// then count its tokens in an open-addressed table of 2^19 16-byte slots
// (8 MiB, larger than a core's private caches). Like the engines it streams
// its input, hashes keys and updates a table at random, so it slows when
// other guests take the host's memory bandwidth, caches or clock rate. The
// buffers are allocated once, so no run pays for page faults.
double probe_seconds() {
  struct Slot {
    std::uint64_t hash;
    std::uint64_t count;
  };
  constexpr std::size_t kSlots = std::size_t{1} << 19;
  const std::string& in = probe_text();
  static std::string copy(in.size(), 0);
  static Slot* const table = [] {
    constexpr std::size_t kBytes = kSlots * sizeof(Slot);
    void* p = std::aligned_alloc(std::size_t{2} << 20, kBytes);
    if (p == nullptr) throw std::bad_alloc();
    madvise(p, kBytes, MADV_HUGEPAGE);
    return static_cast<Slot*>(p);
  }();
  const double t0 = cpu_seconds();
  std::memcpy(copy.data(), in.data(), in.size());
  std::fill(table, table + kSlots, Slot{0, 0});
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over each token
  for (const char c : copy) {
    if (c != ' ' && c != '\n') {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
      continue;
    }
    h |= 1;  // 0 marks an empty slot
    for (std::size_t i = (h ^ (h >> 29)) & (kSlots - 1);;
         i = (i + 1) & (kSlots - 1)) {
      if (table[i].hash == 0) table[i].hash = h;
      if (table[i].hash == h) {
        ++table[i].count;
        break;
      }
    }
    h = 0xcbf29ce484222325ull;
  }
  return cpu_seconds() - t0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- runs

struct Timed {
  double wall = 0;
  double cpu = 0;  // process CPU seconds, all threads
  RunResult r;
};

// One Engine::run, timed around the call. An exception that escapes the
// engine is a failed run like a typed RunError.
Timed run_engine(const Engine& e, const AppInfo& app, std::string_view input,
                 const EngineConfig& cfg) {
  Timed t;
  const double c0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  try {
    t.r = e.run(app, input, cfg);
  } catch (const std::exception& ex) {
    t.r.impl = e.name();
    t.r.error = sepo::apps::run_error_from(ex);
    if (!t.r.error)
      t.r.error = {sepo::apps::RunError::Kind::kNoProgress, ex.what()};
  }
  t.wall = seconds_between(t0, Clock::now());
  t.cpu = cpu_seconds() - c0;
  return t;
}

// Tallies every run against the expected (digest, key count): the reference
// engine's first run. A RunError is a failure; a finished run with another
// answer is a wrong answer.
class Checker {
 public:
  void expect(const RunResult& ref) {
    have_expected_ = true;
    if (ref.error || ref.keys == 0) {
      std::printf("check: reference %s has no answer (%s)\n", ref.impl.c_str(),
                  ref.error.message.c_str());
      correct_ = false;
    }
    checksum_ = ref.checksum;
    keys_ = ref.keys;
  }

  void check(const RunResult& r, const char* what) {
    ++attempted_;
    if (r.error) {
      ++failed_;
      std::printf("check: %s %s failed: %s: %s\n", what, r.impl.c_str(),
                  r.error.kind_name(), r.error.message.c_str());
      return;
    }
    if (r.checksum == checksum_ && r.keys == keys_) return;
    correct_ = false;
    std::printf("check: %s %s WRONG ANSWER: digest %016llx keys %llu, "
                "expected %016llx keys %llu\n",
                what, r.impl.c_str(),
                static_cast<unsigned long long>(r.checksum),
                static_cast<unsigned long long>(r.keys),
                static_cast<unsigned long long>(checksum_),
                static_cast<unsigned long long>(keys_));
  }

  void fail(const std::string& why) {
    correct_ = false;
    std::printf("check: %s\n", why.c_str());
  }

  [[nodiscard]] bool has_expected() const { return have_expected_; }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t checksum_ = 0, keys_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool have_expected_ = false;
  bool correct_ = true;
};

struct Bench {
  Bench(const AppInfo& app_, const Engine& sepo_) : app(app_), sepo(sepo_) {}

  const AppInfo& app;
  const Engine& sepo;
  std::vector<const Engine*> comparators;
  EngineConfig cfg;
  std::string input;
  Checker checker;

  // Timed rounds only; set-up rounds are checked but not recorded.
  std::vector<RunResult> sepo_runs;
  std::vector<double> sepo_walls, baseline_walls;
  std::vector<double> sepo_cpus, baseline_cpus;
  std::vector<double> probes;  // probe_seconds() before each timed run
  std::map<std::string, std::vector<double>> engine_walls;
  std::map<std::string, std::vector<RunResult>> engine_runs;

  // One round: the SEPO engine and every comparator once. Odd rounds run
  // the comparators first so neither side always runs on a warmer cache.
  void round(bool record, int index) {
    std::vector<std::pair<const Engine*, Timed>> done;
    const auto run = [&](const Engine* e) {
      if (record) probes.push_back(probe_seconds());
      done.emplace_back(e, run_engine(*e, app, input, cfg));
    };
    if (index % 2 == 0) run(&sepo);
    for (const Engine* e : comparators) run(e);
    if (index % 2 == 1) run(&sepo);

    for (const auto& [e, t] : done)
      if (e == comparators.front() && !checker.has_expected())
        checker.expect(t.r);
    double comparators_wall = 0, comparators_cpu = 0;
    for (auto& [e, t] : done) {
      checker.check(t.r, record ? "timed" : "warm-up");
      if (!record) continue;
      if (e == &sepo) {
        if (t.r.error) continue;
        sepo_walls.push_back(t.wall);
        sepo_cpus.push_back(t.cpu);
        sepo_runs.push_back(std::move(t.r));
      } else {
        comparators_wall += t.wall;
        comparators_cpu += t.cpu;
        engine_walls[e->name()].push_back(t.wall);
        engine_runs[e->name()].push_back(std::move(t.r));
      }
    }
    if (record) {
      baseline_walls.push_back(comparators_wall);
      baseline_cpus.push_back(comparators_cpu);
    }
  }
};

// One RunResult quantity over a list of runs.
template <typename Fn>
std::vector<double> values_of(const std::vector<RunResult>& runs,
                              const Fn& fn) {
  std::vector<double> v;
  v.reserve(runs.size());
  for (const RunResult& r : runs) v.push_back(static_cast<double>(fn(r)));
  return v;
}
template <typename Fn>
double median_of(const std::vector<RunResult>& runs, const Fn& fn) {
  return median(values_of(runs, fn));
}

// ------------------------------------------------------ traced SEPO path

// One traced run of the SEPO engine's path, composed here from the same
// public calls its Engine::run makes, with spans around each layer and the
// LayerHook installed through GpuConfig.trace.
struct TracedRun {
  RunResult r;
  double wall = 0;
  std::map<std::string, double> host;  // per-layer host metrics of this run
};

void add_driver_children(SpanLog& log, int driver, const LayerHook& hook,
                         const MapEmitTimes& me) {
  log.add("bigkernel.stage", driver, hook.stage.seconds, hook.stage.count);
  const int kernel =
      log.add("gpusim.kernel", driver, hook.kernel.seconds, hook.kernel.count);
  const MapEmitTimes::Slot s = me.sum();
  log.add("apps.map", kernel, s.map_s, s.map_calls, /*worker_summed=*/true);
  log.add("core.insert", kernel, s.emit_s, s.emits, /*worker_summed=*/true);
  log.add("gpusim.launch_tail", driver, hook.launch_tail.seconds,
          hook.kernel.count);
  log.add("core.flush", driver, hook.flush.seconds, hook.flush.count);
}

TracedRun traced_standalone(const AppInfo& app, std::string_view input,
                            const EngineConfig& base, SpanLog& log) {
  const sepo::apps::StandaloneApp& sa = *app.standalone;
  LayerHook hook;
  sepo::apps::GpuConfig cfg = base.gpu;
  cfg.trace = &hook;
  MapEmitTimes me(kPoolWorkers);
  TracedRun out;

  const Clock::time_point t0 = Clock::now();
  const int root = log.add("apps.sepo_gpu_run", -1, 0);
  Clock::time_point a = Clock::now();
  sepo::apps::SimRun sim(cfg);
  Clock::time_point b = Clock::now();
  log.add("gpusim.setup", root, a, b);

  a = Clock::now();
  const sepo::RecordIndex index = sepo::index_lines(input);
  b = Clock::now();
  log.add("common.index_lines", root, a, b);

  a = Clock::now();
  sepo::bigkernel::PipelineConfig pcfg;
  sepo::apps::choose_chunking(index, cfg, pcfg);
  sepo::bigkernel::InputPipeline pipe(sim.ctx, pcfg);
  sepo::core::HashTableConfig tcfg;
  tcfg.org = sa.organization();
  tcfg.num_buckets = cfg.num_buckets;
  tcfg.buckets_per_group = cfg.buckets_per_group;
  tcfg.page_size = cfg.page_size;
  tcfg.combiner = sa.combiner();
  tcfg.combiner_assoc_comm = sa.combiner_assoc_comm();
  tcfg.batch_insert_capacity = cfg.batch_insert;
  tcfg.heap_bytes = cfg.heap_bytes;
  sepo::core::SepoHashTable ht(sim.ctx, tcfg);
  b = Clock::now();
  log.add("core.construct", root, a, b);

  sepo::ProgressTracker progress(index.size(), /*multi_emit=*/true);
  sepo::core::SepoDriver driver({.basic_halt_frac = cfg.basic_halt_frac});
  const bool divergent = sa.divergent_parse();
  a = Clock::now();
  const sepo::core::DriverResult dres = driver.run(
      ht, pipe, input, index, progress,
      [&](std::size_t rec, std::string_view body) {
        if (divergent) sim.stats.add_divergent_units(body.size());
        sepo::mapreduce::SepoEmitter em(ht, progress, rec);
        me.timed_map(em, [&](sepo::mapreduce::Emitter& e) {
          sa.map_record(body, e);
        });
        return em.failed() ? sepo::core::Status::kPostpone
                           : sepo::core::Status::kSuccess;
      });
  b = Clock::now();
  const int drv = log.add("core.driver", root, a, b);
  add_driver_children(log, drv, hook, me);

  // The RunResult assembly StandaloneApp::run_gpu does, so the traced path
  // does the same work as the untraced Engine::run it is compared with.
  a = Clock::now();
  RunResult& r = out.r;
  const auto table_stats = ht.table_stats();
  const auto load = ht.bucket_load();
  b = Clock::now();
  log.add("apps.result", root, a, b);

  a = Clock::now();
  const sepo::core::HostTable table = ht.finalize();
  b = Clock::now();
  log.add("core.finalize", root, a, b);

  a = Clock::now();
  r.checksum = sa.organization() == sepo::core::Organization::kMultiValued
                   ? sepo::apps::digest_groups(table)
                   : sepo::apps::digest_kv(table);
  b = Clock::now();
  log.add("apps.digest", root, a, b);

  a = Clock::now();
  r.impl = "sepo-gpu";
  r.stats = sim.stats.snapshot();
  r.pcie = sim.dev.bus().snapshot();
  r.serial = {.total_lock_ops = load.total_accesses,
              .max_same_lock_ops = load.max_bucket_accesses,
              .serial_atomic_ops = 0};
  r.iterations = dres.iterations;
  r.table_bytes = table_stats.table_bytes;
  r.heap_bytes = ht.page_pool().heap_bytes();
  r.keys = table.entry_count();
  r.iteration_profiles = dres.profiles;
  r.timeseries = dres.timeseries;
  r.bucket_histogram = table.occupancy_histogram();
  r.combine_buffer = ht.combine_buffer_totals();
  sepo::apps::fill_gpu_times(r, sim.ctx, sim.dev.bus());
  b = Clock::now();
  log.add("apps.result", root, a, b);
  out.wall = seconds_between(t0, Clock::now());
  log.set_seconds(root, out.wall);
  return out;
}

TracedRun traced_mapreduce(const AppInfo& app, std::string_view input,
                           const EngineConfig& base, SpanLog& log) {
  const sepo::apps::MrApp& mr = *app.mr;
  LayerHook hook;
  sepo::apps::GpuConfig cfg = base.gpu;
  cfg.trace = &hook;
  MapEmitTimes me(kPoolWorkers);
  TracedRun out;

  const Clock::time_point t0 = Clock::now();
  const int root = log.add("apps.sepo_mr_run", -1, 0);
  Clock::time_point a = Clock::now();
  sepo::apps::SimRun sim(cfg);
  Clock::time_point b = Clock::now();
  log.add("gpusim.setup", root, a, b);

  sepo::mapreduce::RuntimeConfig rcfg;
  rcfg.table.num_buckets = cfg.num_buckets;
  rcfg.table.buckets_per_group = cfg.buckets_per_group;
  rcfg.table.page_size = cfg.page_size;
  rcfg.table.batch_insert_capacity = cfg.batch_insert;
  a = Clock::now();
  const sepo::RecordIndex chunk_index = sepo::index_lines(input);
  b = Clock::now();
  log.add("common.index_lines", root, a, b);

  a = Clock::now();
  sepo::apps::choose_chunking(chunk_index, cfg, rcfg.pipeline);
  sepo::mapreduce::MapReduceRuntime runtime(sim.ctx, rcfg);
  b = Clock::now();
  log.add("core.construct", root, a, b);

  sepo::mapreduce::MrSpec spec = mr.spec();
  const sepo::mapreduce::MapFn app_map = spec.map;
  spec.map = [&](std::string_view record, sepo::mapreduce::Emitter& em) {
    me.timed_map(em, [&](sepo::mapreduce::Emitter& e) { app_map(record, e); });
  };
  Clock::time_point part0{}, part1{};
  const auto partition = [&](std::string_view data) {
    part0 = Clock::now();
    sepo::RecordIndex idx = sepo::index_lines(data);
    part1 = Clock::now();
    return idx;
  };

  a = Clock::now();
  sepo::mapreduce::RunOutcome outcome = runtime.run(input, spec, partition);
  b = Clock::now();
  // MapReduceRuntime::run builds its table, partitions the input, drives the
  // SEPO iterations and finalizes, in that order; the hook's iteration
  // boundaries and the partitioner's timestamps split its interval.
  const int run = log.add("mapreduce.run", root, a, b);
  log.add("core.table_construct", run, a, part0);
  log.add("common.index_lines", run, part0, part1);
  const int drv = log.add("core.driver", run, hook.driver_seconds());
  add_driver_children(log, drv, hook, me);
  log.add("core.finalize", run, hook.last_end, b);

  // The RunResult assembly run_mr_sepo does, so the traced path does the
  // same work as the untraced Engine::run it is compared with.
  a = Clock::now();
  RunResult& r = out.r;
  r.impl = "sepo-mr";
  r.stats = sim.stats.snapshot();
  r.pcie = sim.dev.bus().snapshot();
  const auto load = runtime.table()->bucket_load();
  r.serial = {.total_lock_ops = load.total_accesses,
              .max_same_lock_ops = load.max_bucket_accesses,
              .serial_atomic_ops = 0};
  r.iterations = outcome.driver.iterations;
  r.table_bytes = runtime.table()->table_stats().table_bytes;
  r.heap_bytes = runtime.table()->page_pool().heap_bytes();
  r.keys = outcome.table->entry_count();
  b = Clock::now();
  log.add("apps.result", root, a, b);

  a = Clock::now();
  r.checksum = mr.mode == sepo::mapreduce::Mode::kMapGroup
                   ? sepo::apps::digest_groups(*outcome.table)
                   : sepo::apps::digest_kv(*outcome.table);
  b = Clock::now();
  log.add("apps.digest", root, a, b);

  a = Clock::now();
  r.iteration_profiles = outcome.driver.profiles;
  r.timeseries = outcome.driver.timeseries;
  r.bucket_histogram = outcome.table->occupancy_histogram();
  r.combine_buffer = runtime.table()->combine_buffer_totals();
  sepo::apps::fill_gpu_times(r, sim.ctx, sim.dev.bus());
  b = Clock::now();
  log.add("apps.result", root, a, b);
  out.wall = seconds_between(t0, Clock::now());
  log.set_seconds(root, out.wall);
  return out;
}

TracedRun traced_run(const AppInfo& app, std::string_view input,
                     const EngineConfig& cfg, SpanLog& log) {
  TracedRun t = app.is_mapreduce() ? traced_mapreduce(app, input, cfg, log)
                                   : traced_standalone(app, input, cfg, log);
  t.host["common.index_s"] = log.total("common.index_lines");
  t.host["apps.map_s"] = log.total("apps.map");
  t.host["apps.digest_s"] = log.total("apps.digest");
  t.host["mapreduce.run_s"] = log.total("mapreduce.run");
  t.host["core.insert_s"] = log.total("core.insert");
  t.host["core.insert_ns"] =
      ratio(log.total("core.insert") * 1e9,
            static_cast<double>(log.count("core.insert")));
  t.host["core.flush_s"] = log.total("core.flush");
  t.host["core.finalize_s"] = log.total("core.finalize");
  t.host["core.driver_self_s"] = log.total_self("core.driver");
  t.host["bigkernel.stage_s"] = log.total("bigkernel.stage");
  t.host["gpusim.kernel_s"] = log.total("gpusim.kernel");
  return t;
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  double scale = 1.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sepo_perfbench: %s\n"
               "usage: sepo_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale F]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
      if (!have_seed) usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) usage("bad --trace");
      a.trace = v[0] - '0';
    } else if (flag == "--scale") {
      a.scale = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.scale > 0 && a.scale <= 1))
        usage("bad --scale (0 < F <= 1)");
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  return a;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& x : workloads())
    if (args.workload == x.name) w = &x;
  if (w == nullptr) usage("unknown workload");
  const AppInfo* app = sepo::apps::find_app(w->app);
  const Engine* sepo_engine = sepo::apps::find_engine(w->sepo);
  if (app == nullptr || sepo_engine == nullptr)
    usage("workload not registered");

  Bench b(*app, *sepo_engine);
  for (const char* name : w->comparators) {
    const Engine* e = sepo::apps::find_engine(name);
    if (e == nullptr || !e->supports(*app)) usage("comparator not available");
    b.comparators.push_back(e);
  }
  b.cfg.gpu.device_bytes = w->device_bytes;
  b.cfg.gpu.pool_workers = kPoolWorkers;
  b.cfg.cpu.pool_workers = kPoolWorkers;
  const std::size_t bytes = std::max<std::size_t>(
      4096,
      static_cast<std::size_t>(static_cast<double>(w->bytes) * args.scale));

  // Set-up: generate the input from the seed and run one untimed warm-up
  // round. run.py runs several processes and checks they all report the
  // same input digest.
  const Clock::time_point setup_start = Clock::now();
  const double setup_cpu0 = cpu_seconds();
  b.input = app->generate(bytes, args.seed);
  print_fingerprint();
  std::printf("workload %s: app %s, %zu input bytes, input digest %016llx, "
              "%zu device bytes, seed %llu, sepo %s, reference %s, trace %d\n",
              w->name, w->app, b.input.size(),
              static_cast<unsigned long long>(
                  sepo::hash_bytes(b.input.data(), b.input.size())),
              w->device_bytes, static_cast<unsigned long long>(args.seed),
              w->sepo, w->comparators.front(), args.trace);
  b.round(/*record=*/false, 0);
  const double setup_cpu_s = cpu_seconds() - setup_cpu0;
  const double setup_wall_s = seconds_between(setup_start, Clock::now());

  // Timed rounds. With --trace 1 the first half of the time is untraced
  // rounds (the baseline for trace_overhead_pct and the source of every
  // counter), the second half traced runs of the SEPO path.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Clock::time_point start = Clock::now();
  const auto [steal0, total0] = cpu_steal_jiffies();
  for (int i = 0; i < kMinRounds ||
                  seconds_between(start, Clock::now()) < untraced_s;
       ++i)
    b.round(/*record=*/true, i);

  // Host contention explains host-time outliers: on a shared VM, time the
  // hypervisor steals from this guest stretches every wall-clock figure.
  const auto [steal1, total1] = cpu_steal_jiffies();
  std::printf("host_steal_pct %.3f (share of this guest's CPU time taken by "
              "the hypervisor during the timed rounds)\n",
              ratio(steal1 - steal0, total1 - total0) * 100.0);

  Report rep;
  const auto& runs = b.sepo_runs;
  const auto sim_of = [](const RunResult& r) { return r.sim_seconds; };
  const auto ref_runs = b.engine_runs.find(w->comparators.front());
  const std::vector<double> sims = values_of(runs, sim_of);
  const std::vector<double> ref_sims =
      ref_runs == b.engine_runs.end() ? std::vector<double>{}
                                      : values_of(ref_runs->second, sim_of);
  const double sepo_sim = median(sims);
  const double ref_sim = median(ref_sims);

  if (!runs.empty()) {
    // The regime each workload was chosen for (README.md); reported, not
    // enforced, since a change to the program may legitimately move it.
    const RunResult& r = runs.front();
    std::printf("regime: iterations %u, postponed %llu, combines %llu, "
                "value_appends %llu\n",
                r.iterations,
                static_cast<unsigned long long>(r.stats.records_postponed),
                static_cast<unsigned long long>(r.stats.combines),
                static_cast<unsigned long long>(r.stats.value_appends));
  }

  // Host speed now, relative to the reference host (kProbeRefSeconds).
  const double probe_s = median(b.probes);
  const double speed = ratio(kProbeRefSeconds, probe_s);
  std::printf("host speed: probe median %.6f s over %zu runs, scale %.6f "
              "(kProbeRefSeconds %.3f s)\n",
              probe_s, b.probes.size(), speed, kProbeRefSeconds);
  const auto scaled = [speed](std::vector<double> v) {
    for (double& x : v) x *= speed;
    return v;
  };

  if (args.trace == 0) {
    const double attempted = static_cast<double>(b.checker.attempted());
    const std::vector<double> sepo_host = scaled(b.sepo_cpus);
    const std::vector<double> baseline_host = scaled(b.baseline_cpus);
    rep.add("sepo_host_s", median(sepo_host), "s", sepo_host);
    rep.add("baseline_host_s", median(baseline_host), "s", baseline_host);
    rep.add("sim_seconds", sepo_sim, "sim_s", sims);
    rep.add("sim_speedup", ratio(ref_sim, sepo_sim), "x");
    rep.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep.add("setup_s", setup_cpu_s * speed, "s");
    rep.add("ok_frac",
            1.0 - ratio(static_cast<double>(b.checker.failed()), attempted),
            "ratio");
    std::printf("failed_frac %.6f (%llu of %llu runs)\n",
                ratio(static_cast<double>(b.checker.failed()), attempted),
                static_cast<unsigned long long>(b.checker.failed()),
                static_cast<unsigned long long>(b.checker.attempted()));
    std::printf("nondeterminism: sim_seconds spread %.4f%% over %zu rounds "
                "at %zu workers\n",
                spread_pct(sims), sims.size(), kPoolWorkers);
    std::printf("unscaled medians: sepo %.6f s CPU, %.6f s wall; baseline "
                "%.6f s CPU, %.6f s wall; set-up %.6f s CPU, %.6f s wall\n",
                median(b.sepo_cpus), median(b.sepo_walls),
                median(b.baseline_cpus), median(b.baseline_walls),
                setup_cpu_s, setup_wall_s);
    // Raw samples, which run.py pools across processes.
    std::printf("samples {");
    const auto list = [](const char* name, const std::vector<double>& v,
                         bool first = false) {
      std::printf("%s\"%s\": [", first ? "" : ", ", name);
      for (std::size_t i = 0; i < v.size(); ++i)
        std::printf("%s%.17g", i ? ", " : "", v[i]);
      std::printf("]");
    };
    list("sepo_host_s", sepo_host, true);
    list("baseline_host_s", baseline_host);
    list("sepo_cpu_s", b.sepo_cpus);
    list("baseline_cpu_s", b.baseline_cpus);
    list("sepo_wall_s", b.sepo_walls);
    list("baseline_wall_s", b.baseline_walls);
    list("setup_cpu_s", {setup_cpu_s});
    list("setup_wall_s", {setup_wall_s});
    list("probe_s", b.probes);
    list("sim_seconds", sims);
    list("ref_sim_seconds", ref_sims);
    std::printf("}\n");
    rep.print_lines();
    rep.print_json(b.checker.correct(), b.checker.attempted(),
                   b.checker.failed());
    return 0;
  }

  // Traced half. Each traced run follows an untraced run of the SEPO engine,
  // so trace_overhead_pct compares runs made under the same conditions.
  std::vector<TracedRun> traced;
  std::vector<double> paired_walls;
  const Clock::time_point traced_start = Clock::now();
  for (int i = 0; i < 2 || seconds_between(traced_start, Clock::now()) <
                               args.seconds - untraced_s;
       ++i) {
    const Timed plain = run_engine(*sepo_engine, *app, b.input, b.cfg);
    b.checker.check(plain.r, "timed");
    paired_walls.push_back(plain.wall);
    SpanLog log;
    try {
      traced.push_back(traced_run(*app, b.input, b.cfg, log));
    } catch (const std::exception& e) {
      b.checker.fail(std::string("traced run threw: ") + e.what());
      break;
    }
    b.checker.check(traced.back().r, "traced");
    if (i == 0) {
      std::printf("span tree of traced run 1 (host clock):\n");
      log.print(stdout);
    }
  }

  const auto traced_median = [&](const char* key) {
    std::vector<double> v;
    for (const TracedRun& t : traced) v.push_back(t.host.at(key));
    return median(v);
  };
  const auto stat = [&](auto field) {
    return median_of(runs, [&](const RunResult& r) { return field(r.stats); });
  };
  const double hash_ops =
      stat([](const sepo::gpusim::StatsSnapshot& s) { return s.hash_ops; });
  std::vector<double> traced_walls;
  for (const TracedRun& t : traced) traced_walls.push_back(t.wall);

  rep.add("common.index_s", traced_median("common.index_s"), "s");
  rep.add("apps.map_s", traced_median("apps.map_s"), "s");
  rep.add("apps.map_calls",
          stat([](const auto& s) {
            return s.records_processed + s.records_postponed;
          }),
          "count");
  rep.add("apps.digest_s", traced_median("apps.digest_s"), "s");
  rep.add("mapreduce.run_s", traced_median("mapreduce.run_s"), "s");
  rep.add("core.insert_s", traced_median("core.insert_s"), "s");
  rep.add("core.insert_ns", traced_median("core.insert_ns"), "ns");
  rep.add("core.links_per_op",
          ratio(stat([](const auto& s) { return s.chain_links_walked; }),
                hash_ops),
          "ratio");
  rep.add("core.hash_ops", hash_ops, "count");
  rep.add("core.combines", stat([](const auto& s) { return s.combines; }),
          "count");
  rep.add("core.value_appends",
          stat([](const auto& s) { return s.value_appends; }), "count");
  rep.add("core.inserts_new", stat([](const auto& s) { return s.inserts_new; }),
          "count");
  rep.add("core.iterations",
          median_of(runs, [](const RunResult& r) { return r.iterations; }),
          "count");
  rep.add("core.postpone_ratio",
          ratio(stat([](const auto& s) { return s.records_postponed; }),
                stat([](const auto& s) {
                  return s.records_processed + s.records_postponed;
                })),
          "ratio");
  rep.add("core.flush_s", traced_median("core.flush_s"), "s");
  rep.add("core.finalize_s", traced_median("core.finalize_s"), "s");
  rep.add("core.driver_self_s", traced_median("core.driver_self_s"), "s");
  rep.add("alloc.page_acquires",
          stat([](const auto& s) { return s.page_acquires; }), "count");
  rep.add("alloc.fail_ratio",
          ratio(stat([](const auto& s) { return s.alloc_fails; }),
                stat([](const auto& s) { return s.alloc_ops; })),
          "ratio");
  rep.add("bigkernel.stage_s", traced_median("bigkernel.stage_s"), "s");
  rep.add("bigkernel.restage_ratio",
          median_of(runs,
                    [&](const RunResult& r) {
                      return ratio(static_cast<double>(r.pcie.h2d_bytes),
                                   static_cast<double>(b.input.size()));
                    }),
          "ratio");
  rep.add("bigkernel.chunk_skip_ratio",
          median_of(runs,
                    [](const RunResult& r) {
                      double staged = 0, skipped = 0;
                      for (const auto& p : r.iteration_profiles) {
                        staged += static_cast<double>(p.chunks_staged);
                        skipped += static_cast<double>(p.chunks_skipped);
                      }
                      return ratio(skipped, staged + skipped);
                    }),
          "ratio");
  rep.add("gpusim.kernel_launches",
          stat([](const auto& s) { return s.kernel_launches; }), "count");
  rep.add("gpusim.kernel_s", traced_median("gpusim.kernel_s"), "s");
  rep.add("gpusim.host_ns_per_hash_op",
          ratio(traced_median("gpusim.kernel_s") * 1e9, hash_ops), "ns");
  rep.add("gpusim.compute_busy_s",
          median_of(runs,
                    [](const RunResult& r) { return r.timeline.compute_busy; }),
          "sim_s");
  rep.add("gpusim.h2d_busy_s",
          median_of(runs,
                    [](const RunResult& r) { return r.timeline.h2d_busy; }),
          "sim_s");
  rep.add("gpusim.d2h_busy_s",
          median_of(runs,
                    [](const RunResult& r) { return r.timeline.d2h_busy; }),
          "sim_s");
  rep.add("gpusim.overlap_s",
          median_of(runs,
                    [](const RunResult& r) {
                      const auto& t = r.timeline;
                      return std::max(0.0, t.compute_busy + t.h2d_busy +
                                               t.d2h_busy + t.remote_busy -
                                               t.total);
                    }),
          "sim_s");
  rep.add("gpusim.lock_serial_s",
          median_of(runs,
                    [](const RunResult& r) {
                      return sepo::gpusim::serialization_time(
                          sepo::gpusim::kGpuDesc, r.serial);
                    }),
          "sim_s");
  rep.add("gpusim.lock_contended_ratio",
          ratio(stat([](const auto& s) { return s.lock_contended; }),
                stat([](const auto& s) { return s.lock_acquires; })),
          "ratio");
  // Known nondeterminism at kPoolWorkers > 1: these counters and the
  // simulated time they feed move from run to run on one input.
  rep.add("gpusim.sim_spread_pct", spread_pct(sims), "%");
  const auto counter_spread = [&](auto field) {
    return spread_pct(
        values_of(runs, [&](const RunResult& r) { return field(r.stats); }));
  };
  rep.add("gpusim.lock_contended_spread_pct",
          counter_spread([](const auto& s) { return s.lock_contended; }), "%");
  rep.add("core.atomic_retries_spread_pct",
          counter_spread([](const auto& s) { return s.atomic_retries; }), "%");
  rep.add("core.key_compare_bytes_spread_pct",
          counter_spread([](const auto& s) { return s.key_compare_bytes; }),
          "%");
  rep.add("core.chain_links_spread_pct",
          counter_spread([](const auto& s) { return s.chain_links_walked; }),
          "%");

  // Comparators. Engines a workload does not run report 0.
  const auto engine_wall = [&](const char* name) {
    const auto it = b.engine_walls.find(name);
    return it == b.engine_walls.end() ? 0.0 : median(it->second);
  };
  const auto engine_sim = [&](const char* name) {
    const auto it = b.engine_runs.find(name);
    return it == b.engine_runs.end() ? 0.0 : median_of(it->second, sim_of);
  };
  rep.add("baselines.ref.wall_s", engine_wall(w->comparators.front()), "s");
  rep.add("baselines.ref.sim_seconds", ref_sim, "sim_s");
  for (const char* name : {"pinned", "stadium", "paging-sim"}) {
    rep.add(std::string("baselines.") + name + ".wall_s", engine_wall(name),
            "s");
    rep.add(std::string("baselines.") + name + ".sim_seconds",
            engine_sim(name), "sim_s");
  }
  const auto pinned = b.engine_runs.find("pinned");
  rep.add("baselines.pinned.remote_txns",
          pinned == b.engine_runs.end()
              ? 0.0
              : median_of(pinned->second, [](const RunResult& r) {
                  return r.pcie.remote_txns;
                }),
          "count");
  rep.add("trace_overhead_pct",
          (ratio(median(traced_walls), median(paired_walls)) - 1.0) * 100.0,
          "%", traced_walls);
  rep.print_lines();
  rep.print_json(b.checker.correct(), b.checker.attempted(),
                 b.checker.failed());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  // Before any thread exists, so the engines' pools inherit the mask.
  const int cpu = perfbench::pin_to_one_cpu();
  if (cpu < 0) {
    std::fprintf(stderr, "sepo_perfbench: cannot pin to one CPU\n");
    return 1;
  }
  std::printf("pinned to cpu %d\n", cpu);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sepo_perfbench: %s\n", e.what());
    return 1;
  }
}
