// Engine registry (apps/engine.hpp): registration sanity, alias resolution,
// and the cross-validation sweep — every registered engine that supports an
// app must produce the same result digest on the same input.
#include "apps/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sepo::apps {
namespace {

TEST(EngineRegistryTest, AppsAreRegisteredInDisplayOrder) {
  const auto& apps = all_apps();
  ASSERT_EQ(apps.size(), 7u);
  const char* expected[] = {"pvc", "ii", "dna", "netflix", "wc", "pc", "geo"};
  for (std::size_t i = 0; i < apps.size(); ++i) {
    EXPECT_STREQ(apps[i]->key, expected[i]);
    // Exactly one of the two app kinds is set.
    EXPECT_NE(apps[i]->standalone == nullptr, apps[i]->mr == nullptr);
    EXPECT_NE(apps[i]->table1_key(), nullptr);
  }
  EXPECT_EQ(find_app("pvc"), apps[0]);
  EXPECT_EQ(find_app("geo"), apps[6]);
  EXPECT_EQ(find_app("nope"), nullptr);
}

TEST(EngineRegistryTest, EnginesAreRegisteredWithUniqueNames) {
  const auto& engines = all_engines();
  ASSERT_EQ(engines.size(), 8u);
  std::set<std::string> names;
  for (const Engine* e : engines) {
    EXPECT_TRUE(names.insert(e->name()).second) << e->name();
    EXPECT_NE(e->describe(), nullptr);
    // Every engine runs at least one kind of app.
    EXPECT_TRUE(e->caps().standalone || e->caps().mapreduce) << e->name();
    EXPECT_EQ(find_engine(e->name()), e);
  }
  for (const char* n : {"sepo-gpu", "sepo-mr", "cpu", "phoenix", "pinned",
                        "mapcg", "stadium", "paging-sim"})
    EXPECT_NE(find_engine(n), nullptr) << n;
  EXPECT_EQ(find_engine("gpu"), nullptr);  // alias, not a registry name
}

TEST(EngineRegistryTest, AliasResolutionFollowsAppKind) {
  const AppInfo& pvc = *find_app("pvc");
  const AppInfo& wc = *find_app("wc");
  EXPECT_STREQ(resolve_engine("gpu", pvc)->name(), "sepo-gpu");
  EXPECT_STREQ(resolve_engine("gpu", wc)->name(), "sepo-mr");
  EXPECT_STREQ(resolve_engine("mr", pvc)->name(), "sepo-mr");
  EXPECT_STREQ(resolve_engine("stadium", pvc)->name(), "stadium");
  EXPECT_EQ(resolve_engine("nope", pvc), nullptr);
}

TEST(EngineRegistryTest, BaselineEngineMatchesAppKind) {
  EXPECT_STREQ(baseline_engine(*find_app("dna"))->name(), "cpu");
  EXPECT_STREQ(baseline_engine(*find_app("geo"))->name(), "phoenix");
}

TEST(EngineRegistryTest, SupportMatrixCoversEveryApp) {
  for (const AppInfo* app : all_apps()) {
    int supporting = 0;
    for (const Engine* e : all_engines())
      if (e->supports(*app)) ++supporting;
    // At minimum: the SEPO engine, the reference baseline, and one
    // alternative design per app.
    EXPECT_GE(supporting, 3) << app->key;
    EXPECT_TRUE(resolve_engine("gpu", *app)->supports(*app)) << app->key;
    EXPECT_TRUE(baseline_engine(*app)->supports(*app)) << app->key;
  }
  // stadium runs every standalone app; paging-sim only the count-combining
  // shape it can replay faithfully.
  EXPECT_TRUE(find_engine("stadium")->supports(*find_app("ii")));
  EXPECT_FALSE(find_engine("stadium")->supports(*find_app("wc")));
  EXPECT_TRUE(find_engine("paging-sim")->supports(*find_app("pvc")));
  EXPECT_FALSE(find_engine("paging-sim")->supports(*find_app("dna")));
  EXPECT_FALSE(find_engine("paging-sim")->supports(*find_app("ii")));
}

// The registry's correctness oracle: for each app, every supporting engine
// run on the same tiny input must agree on the order-independent digest —
// including the stadium baseline, whose host-side merge reconstructs the
// combining/grouping semantics its design lacks.
TEST(EngineCrossValidationTest, AllSupportingEnginesAgreeOnDigests) {
  for (const AppInfo* app : all_apps()) {
    const std::string input = app->generate(96u << 10, /*seed=*/7);
    std::map<std::string, RunResult> results;
    for (const Engine* e : all_engines())
      if (e->supports(*app)) results.emplace(e->name(), e->run(*app, input, {}));
    ASSERT_GE(results.size(), 3u) << app->key;
    const RunResult& ref = results.at(baseline_engine(*app)->name());
    ASSERT_FALSE(ref.error) << app->key;
    EXPECT_GT(ref.keys, 0u) << app->key;
    for (const auto& [name, r] : results) {
      ASSERT_FALSE(r.error) << app->key << "/" << name << ": "
                            << r.error.message;
      EXPECT_EQ(r.checksum, ref.checksum) << app->key << "/" << name;
    }
  }
}

// ISSUE 9 capacity sweep: the SEPO contract under memory pressure is
// "postpone or decline, never answer wrong". With device memory at 0.5x,
// 1x, and 4x the input footprint, every engine must either match the
// baseline digest exactly or report a *typed* RunError — no raw exception
// may escape Engine::run (this regressed before the run paths caught
// DeviceOutOfMemory and driver stalls).
TEST(EngineCrossValidationTest, CapacitySweepAgreesOrDeclinesTyped) {
  constexpr std::size_t kInputBytes = 48u << 10;
  for (const AppInfo* app : all_apps()) {
    const std::string input = app->generate(kInputBytes, /*seed=*/21);
    const Engine* base = baseline_engine(*app);
    const RunResult ref = base->run(*app, input, {});
    ASSERT_FALSE(ref.error) << app->key;
    for (const double frac : {0.5, 1.0, 4.0}) {
      EngineConfig cfg;
      // Small bucket array so the static carve-out leaves the heap as the
      // contended resource; 64 KiB cushion covers the statics themselves.
      cfg.gpu.num_buckets = 1u << 10;
      cfg.gpu.device_bytes =
          (64u << 10) +
          static_cast<std::size_t>(frac * static_cast<double>(kInputBytes));
      for (const Engine* e : all_engines()) {
        if (e == base || !e->supports(*app)) continue;
        RunResult r;
        ASSERT_NO_THROW(r = e->run(*app, input, cfg))
            << app->key << "/" << e->name() << " frac=" << frac;
        if (r.error) {
          EXPECT_NE(r.error.kind, RunError::Kind::kNone)
              << app->key << "/" << e->name();
          EXPECT_STRNE(r.error.kind_name(), "none")
              << app->key << "/" << e->name();
          continue;  // a typed decline of service is a legal answer
        }
        EXPECT_EQ(r.checksum, ref.checksum)
            << app->key << "/" << e->name() << " frac=" << frac;
        EXPECT_EQ(r.keys, ref.keys)
            << app->key << "/" << e->name() << " frac=" << frac;
      }
    }
  }
}

// Counter identity of the host-memory baselines: cpu and phoenix (chained
// table in host arenas), pinned (the same table in the pinned region) and
// stadium (its entry store in the pinned region). At one pool worker and one
// party every counter is a pure function of the input. The constants were
// recorded from the separate CPU and pinned table implementations this table
// replaced, so a mismatch means the simulated cost of a baseline changed.
// lock_contended and atomic_retries are left out: no simulated event feeds
// them, so both always read 0.
struct BaselineFixture {
  const char* app;
  const char* engine;
  std::uint64_t checksum, keys, table_bytes, remote_txns, remote_bytes;
  std::uint64_t lock_ops, max_bucket_ops;  // the serialization inputs
  std::vector<std::pair<std::string, std::uint64_t>> stats;  // nonzero only
};

std::vector<std::pair<std::string, std::uint64_t>> nonzero_counters(
    const gpusim::StatsSnapshot& s) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  s.for_each_field([&](std::string_view name, std::uint64_t v) {
    if (v != 0 && name != "lock_contended" && name != "atomic_retries")
      out.emplace_back(name, v);
  });
  return out;
}

TEST(BaselineCounterIdentityTest, MatchesRecordedCounters) {
  const BaselineFixture fixtures[] = {
    {"pvc", "cpu", 0x580f978b5f0dbe62ull, 815u, 62600u, 0u, 0u,
     848u, 11u,
     {{"records_processed", 848u}, {"work_units", 97470u}, {"hash_ops", 848u},
      {"key_compare_bytes", 58997u}, {"chain_links_walked", 1395u},
      {"inserts_new", 815u}, {"combines", 33u}, {"alloc_ops", 815u},
      {"lock_acquires", 848u}}},
    {"pvc", "pinned", 0x580f978b5f0dbe62ull, 815u, 0u, 2243u, 152910u,
     848u, 11u,
     {{"records_processed", 848u}, {"records_scanned", 848u},
      {"work_units", 97470u}, {"hash_ops", 848u},
      {"key_compare_bytes", 58997u}, {"chain_links_walked", 1395u},
      {"inserts_new", 815u}, {"combines", 33u}, {"alloc_ops", 815u},
      {"lock_acquires", 1663u}, {"kernel_launches", 1u}}},
    {"pvc", "stadium", 0x580f978b5f0dbe62ull, 815u, 0u, 848u, 65064u,
     848u, 11u,
     {{"records_processed", 848u}, {"work_units", 97470u}, {"hash_ops", 848u},
      {"inserts_new", 848u}, {"alloc_ops", 848u}, {"lock_acquires", 1696u}}},
    {"ii", "cpu", 0x5a0bf3983bc4b867ull, 858u, 114728u, 0u, 0u,
     1041u, 21u,
     {{"records_processed", 169u}, {"work_units", 98561u}, {"hash_ops", 1041u},
      {"key_compare_bytes", 77601u}, {"chain_links_walked", 1840u},
      {"inserts_new", 858u}, {"value_appends", 1041u}, {"alloc_ops", 1899u},
      {"lock_acquires", 1041u}}},
    {"ii", "pinned", 0x5a0bf3983bc4b867ull, 858u, 0u, 3739u, 255943u,
     1041u, 21u,
     {{"records_processed", 169u}, {"records_scanned", 169u},
      {"work_units", 98561u}, {"hash_ops", 1041u},
      {"key_compare_bytes", 77601u}, {"chain_links_walked", 1840u},
      {"inserts_new", 858u}, {"value_appends", 1041u}, {"alloc_ops", 1899u},
      {"lock_acquires", 2940u}, {"divergent_units", 98561u},
      {"kernel_launches", 1u}}},
    {"ii", "stadium", 0x5a0bf3983bc4b867ull, 858u, 0u, 1041u, 103160u,
     1041u, 21u,
     {{"records_processed", 169u}, {"work_units", 98561u}, {"hash_ops", 1041u},
      {"inserts_new", 1041u}, {"alloc_ops", 1041u}, {"lock_acquires", 2082u}}},
    {"wc", "phoenix", 0x9f10463a4dc69914ull, 2286u, 80584u, 0u, 0u,
     0u, 0u,
     {{"records_processed", 1097u}, {"work_units", 97300u},
      {"hash_ops", 13806u}, {"key_compare_bytes", 147513u},
      {"chain_links_walked", 22549u}, {"inserts_new", 4572u},
      {"combines", 9234u}, {"alloc_ops", 4572u}, {"lock_acquires", 13806u}}},
    {"pc", "phoenix", 0x6763428c6d4ad0e9ull, 6668u, 387544u, 0u, 0u,
     0u, 0u,
     {{"records_processed", 7257u}, {"work_units", 91058u},
      {"hash_ops", 14514u}, {"key_compare_bytes", 497114u},
      {"chain_links_walked", 93598u}, {"inserts_new", 13336u},
      {"value_appends", 14514u}, {"alloc_ops", 27850u},
      {"lock_acquires", 14514u}}},
  };
  for (const BaselineFixture& f : fixtures) {
    SCOPED_TRACE(std::string(f.app) + "/" + f.engine);
    const AppInfo& app = *find_app(f.app);
    const std::string input = app.generate(96u << 10, /*seed=*/42);
    EngineConfig cfg;
    cfg.gpu.pool_workers = 1;
    cfg.gpu.num_buckets = 1u << 8;  // long chains: probes dominate
    cfg.cpu.pool_workers = 1;
    cfg.cpu.num_threads = 1;
    cfg.cpu.num_buckets = 1u << 8;
    const RunResult r = find_engine(f.engine)->run(app, input, cfg);
    ASSERT_FALSE(r.error) << r.error.message;
    EXPECT_EQ(r.checksum, f.checksum);
    EXPECT_EQ(r.keys, f.keys);
    EXPECT_EQ(r.table_bytes, f.table_bytes);
    EXPECT_EQ(r.pcie.remote_txns, f.remote_txns);
    EXPECT_EQ(r.pcie.remote_bytes, f.remote_bytes);
    EXPECT_EQ(r.serial.total_lock_ops, f.lock_ops);
    EXPECT_EQ(r.serial.max_same_lock_ops, f.max_bucket_ops);
    EXPECT_EQ(nonzero_counters(r.stats), f.stats);
  }
}

// Stadium prices its run on the timeline as one pass: an input copy, one
// kernel carrying the run's counters, and the metered remote writes after
// both, so sim_seconds is max(compute, h2d) + remote + serialization of the
// recorded counts, bit for bit.
struct StadiumFixture {
  const char* app;
  double sim_seconds;
  std::uint64_t checksum, keys;
  gpusim::PcieSnapshot pcie;
  std::vector<std::pair<std::string, std::uint64_t>> stats;  // nonzero only
};

TEST(StadiumTimelineTest, ThreeCommandsReproduceRecordedResults) {
  const StadiumFixture fixtures[] = {
    {"pvc", 0.00013754941796875, 0x9b81ce3d31d558a1ull, 1085u,
     {.h2d_bytes = 131172u, .h2d_txns = 1u, .d2h_bytes = 0u, .d2h_txns = 0u,
      .remote_bytes = 86816u, .remote_txns = 1131u},
     {{"records_processed", 1131u}, {"work_units", 130041u},
      {"hash_ops", 1131u}, {"inserts_new", 1131u}, {"alloc_ops", 1131u},
      {"lock_acquires", 2262u}}},
    {"ii", 0.00020937160807291667, 0x84334d1b80dc5e96ull, 1130u,
     {.h2d_bytes = 131930u, .h2d_txns = 1u, .d2h_bytes = 0u, .d2h_txns = 0u,
      .remote_bytes = 139080u, .remote_txns = 1393u},
     {{"records_processed", 211u}, {"work_units", 131719u},
      {"hash_ops", 1393u}, {"inserts_new", 1393u}, {"alloc_ops", 1393u},
      {"lock_acquires", 2786u}}},
  };
  for (const StadiumFixture& f : fixtures) {
    SCOPED_TRACE(f.app);
    const AppInfo& app = *find_app(f.app);
    const std::string input = app.generate(128u << 10, /*seed=*/7);
    EngineConfig cfg;
    cfg.gpu.pool_workers = 1;
    const RunResult r = find_engine("stadium")->run(app, input, cfg);
    ASSERT_FALSE(r.error) << r.error.message;
    EXPECT_EQ(r.timeline.commands, 3u);
    EXPECT_EQ(r.sim_seconds, f.sim_seconds);
    EXPECT_EQ(r.checksum, f.checksum);
    EXPECT_EQ(r.keys, f.keys);
    EXPECT_EQ(r.pcie.h2d_bytes, f.pcie.h2d_bytes);
    EXPECT_EQ(r.pcie.h2d_txns, f.pcie.h2d_txns);
    EXPECT_EQ(r.pcie.d2h_bytes, f.pcie.d2h_bytes);
    EXPECT_EQ(r.pcie.d2h_txns, f.pcie.d2h_txns);
    EXPECT_EQ(r.pcie.remote_bytes, f.pcie.remote_bytes);
    EXPECT_EQ(r.pcie.remote_txns, f.pcie.remote_txns);
    std::vector<std::pair<std::string, std::uint64_t>> nonzero;
    r.stats.for_each_field([&](std::string_view name, std::uint64_t v) {
      if (v != 0) nonzero.emplace_back(name, v);
    });
    EXPECT_EQ(nonzero, f.stats);
  }
}

// The CPU baselines meter their pool jobs through per-worker counter shards
// (gpusim::run_parties), so the worker count must not move a counter that
// the schedule does not decide. Phoenix maps each party into a private
// table and merges serially, so all of its counters are a pure function of
// the input and the party count. The cpu baseline's parties share one
// table, so its probe counters depend on which party inserts a key first;
// the fields below do not. lock_contended and atomic_retries are left out
// of both (no simulated event feeds them; they always read 0).
RunResult run_baseline(const char* app_key, const char* engine,
                       std::size_t pool_workers) {
  const AppInfo& app = *find_app(app_key);
  const std::string input = app.generate(96u << 10, /*seed=*/42);
  EngineConfig cfg;
  cfg.cpu.pool_workers = pool_workers;
  cfg.cpu.num_threads = 8;
  cfg.cpu.num_buckets = 1u << 8;
  return find_engine(engine)->run(app, input, cfg);
}

TEST(BaselineWorkerCountTest, PhoenixCountersIndependentOfPoolWorkers) {
  for (const char* app : {"wc", "pc"}) {
    SCOPED_TRACE(app);
    const RunResult one = run_baseline(app, "phoenix", 1);
    const RunResult four = run_baseline(app, "phoenix", 4);
    ASSERT_FALSE(one.error) << one.error.message;
    ASSERT_FALSE(four.error) << four.error.message;
    EXPECT_EQ(four.checksum, one.checksum);
    EXPECT_EQ(four.keys, one.keys);
    EXPECT_EQ(four.table_bytes, one.table_bytes);
    EXPECT_EQ(nonzero_counters(four.stats), nonzero_counters(one.stats));
  }
}

TEST(BaselineWorkerCountTest, CpuOrderIndependentCountersMatch) {
  for (const char* app : {"pvc", "ii"}) {
    SCOPED_TRACE(app);
    const RunResult one = run_baseline(app, "cpu", 1);
    const RunResult four = run_baseline(app, "cpu", 4);
    ASSERT_FALSE(one.error) << one.error.message;
    ASSERT_FALSE(four.error) << four.error.message;
    EXPECT_EQ(four.checksum, one.checksum);
    EXPECT_EQ(four.keys, one.keys);
    const gpusim::StatsSnapshot& a = one.stats;
    const gpusim::StatsSnapshot& b = four.stats;
    EXPECT_EQ(b.records_processed, a.records_processed);
    EXPECT_EQ(b.work_units, a.work_units);
    EXPECT_EQ(b.hash_ops, a.hash_ops);
    EXPECT_EQ(b.inserts_new, a.inserts_new);
    EXPECT_EQ(b.combines, a.combines);
    EXPECT_EQ(b.alloc_ops, a.alloc_ops);
    EXPECT_EQ(b.lock_acquires, a.lock_acquires);
  }
}

}  // namespace
}  // namespace sepo::apps
