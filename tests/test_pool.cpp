// Crash-safe sweep engine: the worker machinery every bench binary
// drains its flattened slot list through. The TSan CI leg runs this
// binary (with test_scenario and test_determinism) to catch data races
// in the sweep layer at PR time.
#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/journal.hpp"

namespace wmn::exp {
namespace {

// ----- seed derivation -------------------------------------------------------

TEST(ReplicationSeed, PureAndCollisionFreeAcrossTheGrid) {
  // Pure function of (base, rep): same inputs, same seed — which is
  // what makes sweep results independent of thread count, task
  // execution order and the other cells queued.
  EXPECT_EQ(replication_seed(1000, 2), replication_seed(1000, 2));
  // No collisions across a bench-sized grid of adjacent base seeds
  // (base, base+1, ...) and replications.
  std::vector<std::uint64_t> seen;
  for (std::uint64_t base = 1000; base < 1024; ++base) {
    for (std::uint64_t rep = 0; rep < 16; ++rep) {
      seen.push_back(replication_seed(base, rep));
    }
  }
  for (std::uint64_t rep = 0; rep < 16; ++rep) {
    seen.push_back(replication_seed(42, rep));
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
  RunMetrics execute(const ScenarioConfig& cfg) override { return body(cfg); }
};

ScenarioConfig tiny_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  return cfg;
}

TEST(SweepEngine, ThrowingReplicationBecomesFailedSlotNotTermination) {
  FakeEngine engine(4);
  const std::uint64_t bad_seed = replication_seed(42, 1);
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
  const std::uint64_t tainted_seed = replication_seed(7, 0);
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
  EXPECT_EQ(slots[0].kind, FailureKind::kCheckTaint);
  ASSERT_TRUE(slots[0].metrics.has_value());  // kept for inspection
  EXPECT_NE(slots[0].error.find("invariant violation"), std::string::npos);
  EXPECT_TRUE(slots[1].ok());
  EXPECT_EQ(engine.cell_metrics(id).size(), 1u);
}

TEST(SweepEngine, FailureCountsCoverEveryKind) {
  FakeEngine engine(1);
  engine.body = [](const ScenarioConfig& cfg) -> RunMetrics {
    RunMetrics m;
    switch (cfg.n_nodes) {
      case 1: return m;
      case 2: throw std::runtime_error("boom");
      case 3: m.check_violations = 1; return m;
      case 4: throw RunAborted(FailureKind::kEventBudgetExhausted, "budget");
      default: throw std::bad_alloc();  // host memory: just an exception
    }
  };
  for (std::size_t n = 1; n <= 5; ++n) {
    ScenarioConfig cfg = tiny_config(29 + n);
    cfg.n_nodes = n;
    engine.add_cell(cfg, 1);
  }
  engine.run();
  const FailureCounts counts = engine.failure_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(FailureKind::kNone)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(FailureKind::kException)], 2u);
  EXPECT_EQ(counts[static_cast<std::size_t>(FailureKind::kCheckTaint)], 1u);
  EXPECT_EQ(
      counts[static_cast<std::size_t>(FailureKind::kEventBudgetExhausted)],
      1u);
  EXPECT_EQ(engine.cell(4)[0].kind, FailureKind::kException);
  EXPECT_EQ(engine.failed_count(), 4u);
  const std::string report = engine.failure_report();
  EXPECT_NE(report.find("[exception]: boom"), std::string::npos);
  EXPECT_NE(report.find("[check_taint]"), std::string::npos);
  EXPECT_NE(report.find("[event_budget_exhausted]: budget"), std::string::npos);
}

// The unsigned decimal after "key": in one record line.
std::uint64_t record_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << tag << " in " << line;
    return 0;
  }
  return std::stoull(line.substr(at + tag.size()));
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(SweepEngine, RecordHoldsOneLinePerCleanSlotInSlotOrder) {
  const std::string path = testing::TempDir() + "wmn_sweep_record.jsonl";
  std::remove(path.c_str());
  const std::uint64_t bad_seed = replication_seed(42, 1);
  const std::uint64_t tainted_seed = replication_seed(43, 0);
  const auto run_campaign = [&] {
    FakeEngine engine(4);
    engine.body = [&](const ScenarioConfig& cfg) {
      if (cfg.seed == bad_seed) throw std::runtime_error("injected crash");
      RunMetrics m;
      m.seed = cfg.seed;
      if (cfg.seed == tainted_seed) m.check_violations = 1;
      return m;
    };
    engine.add_cell(tiny_config(42), 3);
    engine.add_cell(tiny_config(43), 2);
    engine.enable_journal(path);
    engine.run();
    EXPECT_EQ(engine.failed_count(), 2u);
  };
  // Clean slots in (cell, rep) order; the crashed (0, 1) and the
  // tainted (1, 0) have no line.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {0, 0}, {0, 2}, {1, 1}};
  const std::uint64_t bases[] = {42, 43};
  // A second campaign into the same path replaces the first.
  for (int pass = 0; pass < 2; ++pass) {
    run_campaign();
    const std::vector<std::string> lines = read_lines(path);
    ASSERT_EQ(lines.size(), want.size()) << "pass " << pass;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const auto [cell, rep] = want[i];
      EXPECT_EQ(record_field(lines[i], "cell"), cell);
      EXPECT_EQ(record_field(lines[i], "rep"), rep);
      EXPECT_EQ(record_field(lines[i], "seed"),
                replication_seed(bases[cell], rep));
    }
  }
  std::remove(path.c_str());
}

TEST(SweepEngine, UnwritableRecordFailsBeforeAnySlotRuns) {
  FakeEngine engine(2);
  std::atomic<int> executed{0};
  engine.body = [&executed](const ScenarioConfig& cfg) {
    ++executed;
    RunMetrics m;
    m.seed = cfg.seed;
    return m;
  };
  engine.add_cell(tiny_config(5), 2);
  engine.enable_journal(testing::TempDir() + "no_such_dir/record.jsonl");
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_EQ(executed.load(), 0);
}

TEST(SweepEngine, ConfigDigestSeparatesConfigs) {
  const ScenarioConfig a = tiny_config(42);
  ScenarioConfig b = a;
  EXPECT_EQ(config_digest(a), config_digest(b));  // pure
  b.traffic.rate_pps = 5.0;
  EXPECT_NE(config_digest(a), config_digest(b));
  ScenarioConfig c = a;
  c.traffic.rate_envelope = {{0.0, 1.0}, {5.0, 4.0}};
  EXPECT_NE(config_digest(a), config_digest(c));
  ScenarioConfig d = a;
  d.event_budget = 1000;
  EXPECT_NE(config_digest(a), config_digest(d));
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
    const std::size_t a = engine.add_cell(tiny_config(1000), 4, "a");
    // An equal config is the same cell: it runs once.
    EXPECT_EQ(engine.add_cell(tiny_config(1000), 4, "a again"), a);
    ScenarioConfig other = tiny_config(1000);
    other.protocol = core::Protocol::kAodvFlood;
    const std::size_t b = engine.add_cell(other, 4, "b");
    EXPECT_NE(b, a);
    EXPECT_EQ(engine.task_count(), 8u);
    engine.run();
    std::vector<std::uint64_t> seeds;
    for (std::size_t c : {a, b}) {
      for (const RepOutcome& rep : engine.cell(c)) seeds.push_back(rep.seed);
    }
    return seeds;
  };
  const auto serial = run_with(1);
  const auto pooled = run_with(8);
  EXPECT_EQ(serial, pooled);
  // Cells that differ only in protocol share their rep seeds (common
  // random numbers), and the reps within a cell draw distinct ones.
  ASSERT_EQ(serial.size(), 8u);
  for (std::size_t rep = 0; rep < 4; ++rep) {
    EXPECT_EQ(serial[rep], replication_seed(1000, rep));
    EXPECT_EQ(serial[4 + rep], serial[rep]);
  }
  EXPECT_NE(serial[0], serial[1]);
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
