// Determinism auditor: the contract every F1-F9 result depends on.
//
// One (config, seed) pair must produce exactly one event trace. These
// tests run a mid-size scenario twice with the same seed and require
// bit-identical fingerprints over event counts and every headline
// metric — and a *different* fingerprint for a different seed, so a
// fingerprint that stopped depending on the RNG would be caught too.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "sim/fingerprint.hpp"

namespace wmn {
namespace {

exp::ScenarioConfig mid_size_config(std::uint64_t seed,
                                    core::Protocol protocol) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 36;
  cfg.area_width_m = 600.0;
  cfg.area_height_m = 600.0;
  cfg.traffic.n_flows = 6;
  cfg.traffic.rate_pps = 4.0;
  cfg.warmup = sim::Time::seconds(3.0);
  cfg.traffic_time = sim::Time::seconds(10.0);
  cfg.drain = sim::Time::seconds(1.0);
  cfg.protocol = protocol;
  cfg.seed = seed;
  return cfg;
}

struct RunResult {
  std::uint64_t metrics_fp = 0;
  std::uint64_t events = 0;
};

RunResult run_once(std::uint64_t seed, core::Protocol protocol) {
  exp::Scenario s(mid_size_config(seed, protocol));
  s.run();
  RunResult r;
  r.metrics_fp = exp::fingerprint(s.metrics());
  r.events = s.simulator().events_executed();
  return r;
}

TEST(Determinism, SameSeedSameFingerprintClnlr) {
  const RunResult a = run_once(42, core::Protocol::kClnlr);
  const RunResult b = run_once(42, core::Protocol::kClnlr);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.metrics_fp, b.metrics_fp);
}

TEST(Determinism, SameSeedSameFingerprintAodvFlood) {
  const RunResult a = run_once(7, core::Protocol::kAodvFlood);
  const RunResult b = run_once(7, core::Protocol::kAodvFlood);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.metrics_fp, b.metrics_fp);
}

TEST(Determinism, SameSeedSameFingerprintGossipMobile) {
  // Gossip + mobility exercises the probabilistic rebroadcast and the
  // random-waypoint streams, the two most RNG-hungry subsystems.
  auto cfg = mid_size_config(13, core::Protocol::kAodvGossip);
  cfg.mobility.max_speed_mps = 5.0;
  exp::Scenario a(cfg);
  a.run();
  exp::Scenario b(cfg);
  b.run();
  EXPECT_EQ(a.simulator().events_executed(), b.simulator().events_executed());
  EXPECT_EQ(exp::fingerprint(a.metrics()), exp::fingerprint(b.metrics()));
}

TEST(Determinism, DifferentSeedDifferentFingerprint) {
  const RunResult a = run_once(42, core::Protocol::kClnlr);
  const RunResult b = run_once(43, core::Protocol::kClnlr);
  // Event counts for different seeds could in principle collide, but
  // the metric digest folds dozens of RNG-driven quantities — equality
  // would mean the seed no longer reaches the simulation.
  EXPECT_NE(a.metrics_fp, b.metrics_fp);
}

// Weak copies settle lazily, whenever a radio is read. Where a
// run_until() slice ends must not matter: a sliced run (simbench's
// traced run drives 1 s slices before calling run()) gives the
// fingerprint of one uninterrupted run, for the static mesh and under
// churn (the fault scan).
TEST(Determinism, SlicedRunMatchesOneRun) {
  exp::ScenarioConfig mesh;
  mesh.n_nodes = 100;
  mesh.area_width_m = 1000.0;
  mesh.area_height_m = 1000.0;
  mesh.traffic.n_flows = 10;
  mesh.traffic.rate_pps = 6.0;
  mesh.warmup = sim::Time::seconds(2.0);
  mesh.traffic_time = sim::Time::seconds(3.0);
  mesh.drain = sim::Time::seconds(1.0);
  mesh.seed = 1000;
  exp::ScenarioConfig churn = mesh;
  churn.fault.churn.rate_per_s = 2.0;
  churn.fault.churn.mean_downtime = sim::Time::seconds(0.5);
  churn.fault.churn.start = churn.warmup;
  churn.fault.churn.stop = churn.warmup + churn.traffic_time;
  for (const exp::ScenarioConfig& cfg : {mesh, churn}) {
    exp::Scenario whole(cfg);
    whole.run();
    const std::uint64_t want = exp::fingerprint(whole.metrics());
    const sim::Time horizon = cfg.warmup + cfg.traffic_time + cfg.drain;
    for (const sim::Time slice : {sim::Time::seconds(1.0), sim::Time::seconds(0.37)}) {
      exp::Scenario sliced(cfg);
      for (sim::Time t = sim::Time::zero(); t < horizon;) {
        t = std::min(t + slice, horizon);
        sliced.simulator().run_until(t);
      }
      sliced.run();
      EXPECT_EQ(sliced.simulator().events_executed(), whole.simulator().events_executed());
      EXPECT_EQ(exp::fingerprint(sliced.metrics()), want)
          << "slice " << slice.to_seconds() << " s, churn " << !cfg.fault.empty();
    }
  }
}

// The tentpole contract of the persistent-pool sweep engine: a sweep
// drained by N long-lived workers must yield the same per-replication
// fingerprints as the same sweep run on one thread. Seeds are a pure
// function of (base, rep), so thread count and task execution
// order cannot leak into the results.
TEST(Determinism, PoolVsSerialFingerprintsPerReplication) {
  for (core::Protocol protocol :
       {core::Protocol::kClnlr, core::Protocol::kAodvFlood}) {
    exp::ScenarioConfig cfg;
    cfg.n_nodes = 25;
    cfg.area_width_m = 600.0;
    cfg.area_height_m = 600.0;
    cfg.traffic.n_flows = 4;
    cfg.traffic.rate_pps = 4.0;
    cfg.warmup = sim::Time::seconds(3.0);
    cfg.traffic_time = sim::Time::seconds(8.0);
    cfg.protocol = protocol;
    cfg.seed = 42;
    const auto serial = exp::run_replications(cfg, 3, 1);
    const auto pooled = exp::run_replications(cfg, 3, 4);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].seed, exp::replication_seed(42, i));
      EXPECT_EQ(exp::fingerprint(serial[i]), exp::fingerprint(pooled[i]))
          << core::protocol_name(protocol) << " rep " << i;
    }
  }
}

// Same contract with the fault layer live: seeded churn (crash times,
// victims, downtimes, and the rejoin jitter they trigger) must be a
// pure function of (config, seed), so pooled execution of replications
// reproduces the serial fingerprints — including the resilience
// fields, which join the digest for fault-enabled runs.
TEST(Determinism, PoolVsSerialFingerprintsWithChurn) {
  exp::ScenarioConfig cfg = mid_size_config(42, core::Protocol::kClnlr);
  cfg.n_nodes = 25;
  cfg.traffic.n_flows = 4;
  cfg.traffic_time = sim::Time::seconds(8.0);
  cfg.fault.churn.rate_per_s = 0.25;
  cfg.fault.churn.mean_downtime = sim::Time::seconds(2.0);
  cfg.fault.churn.start = cfg.warmup;
  cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
  const auto serial = exp::run_replications(cfg, 3, 1);
  const auto pooled = exp::run_replications(cfg, 3, 4);
  ASSERT_EQ(serial.size(), pooled.size());
  bool any_crashes = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].fault_enabled);
    any_crashes = any_crashes || serial[i].fault_crashes > 0;
    EXPECT_EQ(exp::fingerprint(serial[i]), exp::fingerprint(pooled[i]))
        << "rep " << i;
  }
  EXPECT_TRUE(any_crashes);
}

// The RERR fan-out path made hash-layout-independent in PR 6 (sorted
// precursor normalisation in emit_rerr, sorted dests_via, sorted
// neighbour-loss callbacks): drive it hard — churn plus every graceful-
// degradation feature on — and require pooled replications to
// reproduce the serial fingerprints bit for bit. RERRs must actually
// flow for this to mean anything, so that is asserted too.
TEST(Determinism, PoolVsSerialFingerprintsWithChurnAndGracefulRerr) {
  exp::ScenarioConfig cfg = mid_size_config(1337, core::Protocol::kClnlr);
  cfg.options.aodv.graceful_degradation = true;
  cfg.fault.churn.rate_per_s = 1.0;
  cfg.fault.churn.mean_downtime = sim::Time::seconds(2.0);
  cfg.fault.churn.start = cfg.warmup;
  cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
  const auto serial = exp::run_replications(cfg, 3, 1);
  const auto pooled = exp::run_replications(cfg, 3, 4);
  ASSERT_EQ(serial.size(), pooled.size());
  std::uint64_t rerrs = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    rerrs += serial[i].rerr_tx;
    EXPECT_EQ(exp::fingerprint(serial[i]), exp::fingerprint(pooled[i]))
        << "rep " << i;
  }
  EXPECT_GT(rerrs, 0u) << "scenario never exercised the RERR fan-out";
}

// The F11 production workload — gateway pattern, per-user session
// aggregation, heavy-tailed bursts, staggered flow arrivals — runs
// every new RNG consumer at once. Each source's draw sequence is a pure
// function of its own history, so pooled replications must reproduce
// the serial fingerprints bit for bit, including the gateway and
// session metric blocks (asserted populated, so the gated digest
// fields are actually exercised).
TEST(Determinism, PoolVsSerialFingerprintsProductionWorkload) {
  for (const auto model : {exp::TrafficSpec::Model::kSessions,
                           exp::TrafficSpec::Model::kHeavyTailOnOff}) {
    exp::ScenarioConfig cfg = mid_size_config(42, core::Protocol::kClnlr);
    cfg.n_nodes = 25;
    cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
    cfg.traffic.n_gateways = 2;
    cfg.traffic.n_flows = 5;
    cfg.traffic.model = model;
    cfg.traffic.mean_arrival_gap_s = 1.0;  // flows join over time
    cfg.traffic.users_per_node = 500;
    cfg.traffic.session_rate_per_user_per_s = 0.004;
    cfg.traffic.mean_session_pkts = 8.0;
    cfg.traffic_time = sim::Time::seconds(8.0);
    const auto serial = exp::run_replications(cfg, 3, 1);
    const auto pooled = exp::run_replications(cfg, 3, 4);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].gateway_count, 2u);
      EXPECT_EQ(serial[i].per_gateway_delivered.size(), 2u);
      if (model == exp::TrafficSpec::Model::kSessions) {
        EXPECT_GT(serial[i].sessions_started, 0u);
      }
      EXPECT_EQ(exp::fingerprint(serial[i]), exp::fingerprint(pooled[i]))
          << "model " << static_cast<int>(model) << " rep " << i;
    }
  }
}

TEST(Determinism, FingerprintOrderSensitive) {
  sim::Fingerprint a;
  a.mix(std::uint64_t{1});
  a.mix(std::uint64_t{2});
  sim::Fingerprint b;
  b.mix(std::uint64_t{2});
  b.mix(std::uint64_t{1});
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Determinism, FingerprintStringBoundaries) {
  sim::Fingerprint a;
  a.mix("ab");
  a.mix("c");
  sim::Fingerprint b;
  b.mix("a");
  b.mix("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Determinism, FingerprintDistinguishesDoubleBitPatterns) {
  sim::Fingerprint a;
  a.mix(0.0);
  sim::Fingerprint b;
  b.mix(-0.0);
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace wmn
