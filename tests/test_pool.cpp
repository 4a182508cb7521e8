// Crash-safe sweep engine: the worker machinery every bench binary
// drains its flattened slot list through. The TSan CI leg runs this
// binary (with test_scenario and test_determinism) to catch data races
// in the sweep layer at PR time.
#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

namespace wmn::exp {
namespace {

// ----- seed derivation -------------------------------------------------------

TEST(ReplicationSeed, PureAndCollisionFreeAcrossTheGrid) {
  // Pure function of (base, point, rep): same inputs, same seed —
  // which is what makes sweep results independent of thread count and
  // task execution order.
  EXPECT_EQ(replication_seed(1000, 3, 2), replication_seed(1000, 3, 2));
  // No collisions across a bench-sized grid, including the adjacent
  // base seeds benches historically used (base, base+1, ...).
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base : {1000ull, 1001ull, 42ull}) {
    for (std::uint64_t point = 0; point < 24; ++point) {
      for (std::uint64_t rep = 0; rep < 16; ++rep) {
        seen.push_back(replication_seed(base, point, rep));
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

// ----- SweepEngine -----------------------------------------------------------

// Engine with a substitutable replication body: tests inject crashes
// and taints without paying for full simulations.
class FakeEngine : public SweepEngine {
 public:
  using SweepEngine::SweepEngine;
  std::function<RunMetrics(const ScenarioConfig&)> body;

 protected:
  RunMetrics execute(const ScenarioConfig& cfg,
                     sim::CancelToken* /*cancel*/) override {
    return body(cfg);
  }
};

ScenarioConfig tiny_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  return cfg;
}

TEST(SweepEngine, ThrowingReplicationBecomesFailedSlotNotTermination) {
  FakeEngine engine(4);
  const std::uint64_t bad_seed = replication_seed(42, 0, 1);
  engine.body = [bad_seed](const ScenarioConfig& cfg) {
    if (cfg.seed == bad_seed) throw std::runtime_error("injected crash");
    RunMetrics m;
    m.seed = cfg.seed;
    return m;
  };
  const auto c0 = engine.add_cell(tiny_config(42), 3, "cell-zero");
  const auto c1 = engine.add_cell(tiny_config(43), 2, "cell-one");
  engine.run();  // must complete despite the throwing worker

  EXPECT_EQ(engine.task_count(), 5u);
  EXPECT_EQ(engine.failed_count(), 1u);
  const auto slots = engine.cell(c0);
  ASSERT_EQ(slots.size(), 3u);
  EXPECT_TRUE(slots[0].ok());
  EXPECT_FALSE(slots[1].ok());
  EXPECT_NE(slots[1].error.find("injected crash"), std::string::npos);
  EXPECT_TRUE(slots[2].ok());
  // Failed slot excluded from the cell's statistics input.
  EXPECT_EQ(engine.cell_metrics(c0).size(), 2u);
  EXPECT_EQ(engine.cell_metrics(c1).size(), 2u);
  // The report names the cell, the replication, and the cause.
  const std::string report = engine.failure_report();
  EXPECT_NE(report.find("cell-zero"), std::string::npos);
  EXPECT_NE(report.find("rep 1"), std::string::npos);
  EXPECT_NE(report.find("injected crash"), std::string::npos);
}

TEST(SweepEngine, CheckTaintMarksSlotFailedButKeepsMetrics) {
  FakeEngine engine(2);
  const std::uint64_t tainted_seed = replication_seed(7, 0, 0);
  engine.body = [tainted_seed](const ScenarioConfig& cfg) {
    RunMetrics m;
    m.seed = cfg.seed;
    if (cfg.seed == tainted_seed) m.check_violations = 3;
    return m;
  };
  const auto id = engine.add_cell(tiny_config(7), 2);
  engine.run();

  const auto slots = engine.cell(id);
  EXPECT_FALSE(slots[0].ok());
  ASSERT_TRUE(slots[0].metrics.has_value());  // kept for inspection
  EXPECT_NE(slots[0].error.find("invariant violation"), std::string::npos);
  EXPECT_TRUE(slots[1].ok());
  EXPECT_EQ(engine.cell_metrics(id).size(), 1u);
}

TEST(SweepEngine, SeedsAndResultsIndependentOfThreadCount) {
  const auto run_with = [](unsigned threads) {
    FakeEngine engine(threads);
    engine.body = [](const ScenarioConfig& cfg) {
      RunMetrics m;
      m.seed = cfg.seed;
      m.data_sent = cfg.seed % 1000;  // any pure function of the seed
      return m;
    };
    engine.add_cell(tiny_config(1000), 4, "a");
    engine.add_cell(tiny_config(1000), 4, "b");  // same base, distinct point
    engine.run();
    std::vector<std::uint64_t> seeds;
    for (std::size_t c = 0; c < 2; ++c) {
      for (const RepOutcome& rep : engine.cell(c)) seeds.push_back(rep.seed);
    }
    return seeds;
  };
  const auto serial = run_with(1);
  const auto pooled = run_with(8);
  EXPECT_EQ(serial, pooled);
  // Same base seed in different cells must still draw distinct seeds.
  EXPECT_NE(serial[0], serial[4]);
}

// ----- environment knob validation -------------------------------------------

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {}
  ~EnvGuard() { unsetenv(name_); }
  void set(const char* value) { setenv(name_, value, 1); }
  const char* name_;
};

TEST(EnvKnobs, ValidValuesAreUsed) {
  EnvGuard reps("WMN_REPS");
  reps.set("5");
  EXPECT_EQ(env_reps(2), 5u);
  EnvGuard threads("WMN_THREADS");
  threads.set("3");
  EXPECT_EQ(env_threads(), 3u);
}

TEST(EnvKnobs, MalformedValuesFallBackToDefault) {
  EnvGuard reps("WMN_REPS");
  for (const char* bad : {"abc", "0", "-4", "3x", "", "0x10"}) {
    reps.set(bad);
    EXPECT_EQ(env_reps(7), 7u) << "WMN_REPS='" << bad << "'";
  }
  EnvGuard threads("WMN_THREADS");
  for (const char* bad : {"abc", "0", "-2", "2.5", ""}) {
    threads.set(bad);
    EXPECT_EQ(env_threads(), default_thread_count())
        << "WMN_THREADS='" << bad << "'";
  }
}

TEST(EnvKnobs, UnsetMeansDefault) {
  unsetenv("WMN_REPS");
  unsetenv("WMN_THREADS");
  EXPECT_EQ(env_reps(4), 4u);
  EXPECT_EQ(env_threads(), default_thread_count());
}

}  // namespace
}  // namespace wmn::exp
