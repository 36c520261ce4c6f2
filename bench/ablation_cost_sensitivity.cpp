// Ablation — cost-model sensitivity.
//
// The benches report simulated time: measured event counts priced by the
// machine descriptions in gpusim/cost_model.hpp. This ablation stresses the
// reproduction's validity claim (DESIGN.md §1): the *qualitative* Figure 6
// result — Inverted Index at the bottom, Word Count weakest among the
// MapReduce apps, the combining-heavy apps on top, GPU winning on average —
// must survive large perturbations of the unit costs.
//
// GPU compute costs price the kernels on the run's timeline, so the two
// GPU-compute scenarios re-run each app with GpuConfig::machine scaled.
// Every run is pinned to one pool worker: runs that postpone records still
// vary with the worker count, and a re-run must reproduce the baseline's
// counts exactly — the bench exits 1 if any re-run's counters or digest
// differ. CPU costs and lock costs enter only compute_time() of the CPU
// baseline and serialization_time(), so those scenarios re-price the
// baseline runs.
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "apps/datagen.hpp"
#include "apps/engine.hpp"
#include "common/table_printer.hpp"
#include "gpusim/cost_model.hpp"

using namespace sepo;
using namespace sepo::apps;

namespace {

// Scales the aggregate compute throughput of a machine (f > 1 = faster).
gpusim::MachineDesc scale_compute(gpusim::MachineDesc m, double f) {
  m.sec_per_work_unit /= f;
  m.sec_per_hash_op /= f;
  m.sec_per_compare_byte /= f;
  m.sec_per_chain_link /= f;
  m.sec_per_alloc /= f;
  m.sec_per_lock /= f;
  m.sec_per_divergent_unit /= f;
  return m;
}

gpusim::MachineDesc scale_serialization(gpusim::MachineDesc m, double f) {
  m.sec_per_critical_section *= f;
  m.sec_per_serial_atomic *= f;
  return m;
}

// One app's input, its SEPO engine, and the baseline runs of that engine
// and of the CPU reference (cpu baseline table or Phoenix).
struct App {
  const AppInfo* info;
  std::string input;
  const Engine* engine;
  RunResult gpu, cpu;
};

}  // namespace

int main() {
  std::printf("== Ablation: cost-model sensitivity (does the Figure 6 shape "
              "survive unit-cost perturbations?) ==\n\n");

  EngineConfig cfg;
  cfg.gpu.pool_workers = 1;
  cfg.cpu.pool_workers = 1;

  // Dataset #2 per app (fast, still multi-iteration for the bulky apps).
  std::vector<App> apps;
  for (const char* key : {"netflix", "dna", "pvc", "ii", "wc", "pc", "geo"}) {
    const AppInfo* info = find_app(key);
    App a{info, info->generate(table1_bytes(info->table1_key(), 2), 88),
          resolve_engine("gpu", *info), {}, {}};
    a.gpu = a.engine->run(*info, a.input, cfg);
    a.cpu = baseline_engine(*info)->run(*info, a.input, cfg);
    apps.push_back(std::move(a));
  }

  struct Scenario {
    const char* name;
    gpusim::MachineDesc gpu;
    gpusim::MachineDesc cpu;
    bool rerun_gpu;  // GPU compute costs changed: the timeline must re-price
  };
  const Scenario scenarios[] = {
      {"baseline", gpusim::kGpuDesc, gpusim::kCpuDesc, false},
      {"gpu 2x slower", scale_compute(gpusim::kGpuDesc, 0.5), gpusim::kCpuDesc,
       true},
      {"gpu 2x faster", scale_compute(gpusim::kGpuDesc, 2.0), gpusim::kCpuDesc,
       true},
      {"cpu 2x slower", gpusim::kGpuDesc, scale_compute(gpusim::kCpuDesc, 0.5),
       false},
      {"cpu 2x faster", gpusim::kGpuDesc, scale_compute(gpusim::kCpuDesc, 2.0),
       false},
      {"locks 2x costlier", scale_serialization(gpusim::kGpuDesc, 2.0),
       scale_serialization(gpusim::kCpuDesc, 2.0), false},
      {"locks 2x cheaper", scale_serialization(gpusim::kGpuDesc, 0.5),
       scale_serialization(gpusim::kCpuDesc, 0.5), false},
  };

  std::vector<std::string> headers{"scenario"};
  for (const App& a : apps) headers.push_back(a.info->title);
  headers.push_back("II lowest?");
  headers.push_back("avg");
  TablePrinter table(headers);

  int status = 0;
  for (const Scenario& sc : scenarios) {
    std::vector<std::string> row{sc.name};
    double min_speedup = 1e9, ii_speedup = 0, sum = 0;
    for (const App& a : apps) {
      double gpu_t = a.gpu.timeline.total +
                     gpusim::serialization_time(sc.gpu, a.gpu.serial);
      if (sc.rerun_gpu) {
        EngineConfig scaled = cfg;
        scaled.gpu.machine = sc.gpu;
        const RunResult r = a.engine->run(*a.info, a.input, scaled);
        if (!(r.stats == a.gpu.stats) || r.checksum != a.gpu.checksum) {
          std::fprintf(stderr,
                       "%s under '%s': counters or digest differ from the "
                       "baseline run\n",
                       a.info->title, sc.name);
          status = 1;
        }
        gpu_t = r.sim_seconds;
      }
      const double cpu_t = gpusim::compute_time(sc.cpu, a.cpu.stats) +
                           gpusim::serialization_time(sc.cpu, a.cpu.serial);
      const double s = cpu_t / gpu_t;
      row.push_back(TablePrinter::fmt(s, 2));
      min_speedup = std::min(min_speedup, s);
      sum += s;
      if (std::string_view(a.info->key) == "ii") ii_speedup = s;
    }
    row.push_back(ii_speedup <= min_speedup + 1e-9 ? "yes" : "NO");
    row.push_back(TablePrinter::fmt(sum / static_cast<double>(apps.size()), 2));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::printf("\nexpected shape: across every scenario the bottom two stay "
              "{Inverted Index, Word Count} (they may trade places when lock "
              "costs are perturbed — both are the paper's \"do not perform "
              "as well\" pair), the combining-heavy apps (Netflix, DNA) stay "
              "on top, and the average stays well above 1. The paper-shape "
              "conclusions do not hinge on the exact unit costs.\n");
  return status;
}
