// Scenario facade + sweep layer integration tests. These are the
// heaviest tests (full simulations), so the topologies are kept small.
#include "exp/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "exp/sweep.hpp"

namespace wmn::exp {
namespace {

ScenarioConfig small_config(std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.n_nodes = 25;
  cfg.area_width_m = 600.0;
  cfg.area_height_m = 600.0;
  cfg.traffic.n_flows = 4;
  cfg.traffic.rate_pps = 4.0;
  cfg.warmup = sim::Time::seconds(3.0);
  cfg.traffic_time = sim::Time::seconds(10.0);
  cfg.seed = seed;
  return cfg;
}

TEST(Scenario, RunsAndDeliversTraffic) {
  Scenario s(small_config());
  s.run();
  const RunMetrics m = s.metrics();
  EXPECT_GT(m.data_sent, 30u);
  EXPECT_GT(m.pdr, 0.6);
  EXPECT_LE(m.pdr, 1.0);
  EXPECT_GT(m.mean_delay_ms, 0.0);
  EXPECT_GT(m.throughput_kbps, 0.0);
  EXPECT_GT(m.hello_tx, 0u);
  EXPECT_GT(m.control_tx, m.hello_tx);
}

TEST(Scenario, SameSeedIsBitReproducible) {
  auto run_once = [](std::uint64_t seed) {
    Scenario s(small_config(seed));
    s.run();
    return s.metrics();
  };
  const RunMetrics a = run_once(5);
  const RunMetrics b = run_once(5);
  EXPECT_EQ(a.data_sent, b.data_sent);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.rreq_tx, b.rreq_tx);
  EXPECT_EQ(a.control_tx, b.control_tx);
  EXPECT_DOUBLE_EQ(a.mean_delay_ms, b.mean_delay_ms);
  EXPECT_DOUBLE_EQ(a.sim_event_count, b.sim_event_count);
}

TEST(Scenario, DifferentSeedsDiffer) {
  Scenario a(small_config(1));
  a.run();
  Scenario b(small_config(2));
  b.run();
  EXPECT_NE(a.metrics().sim_event_count, b.metrics().sim_event_count);
}

TEST(Scenario, ConservationDeliveredNeverExceedsSent) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Scenario s(small_config(seed));
    s.run();
    const RunMetrics m = s.metrics();
    EXPECT_LE(m.data_delivered, m.data_sent);
  }
}

TEST(Scenario, FlowPairsMatchTrafficSpec) {
  ScenarioConfig cfg = small_config();
  cfg.traffic.n_flows = 6;
  Scenario s(cfg);
  EXPECT_EQ(s.flow_pairs().size(), 6u);
  for (const auto& [src, dst] : s.flow_pairs()) {
    EXPECT_LT(src, cfg.n_nodes);
    EXPECT_LT(dst, cfg.n_nodes);
    EXPECT_NE(src, dst);
  }
}

TEST(Scenario, GatewayTrafficTargetsNearestGateway) {
  ScenarioConfig cfg = small_config();
  cfg.traffic.pattern = TrafficSpec::Pattern::kGateway;
  cfg.traffic.n_gateways = 2;
  cfg.traffic.n_flows = 6;
  Scenario s(cfg);
  const auto& gws = s.gateways();
  ASSERT_EQ(gws.size(), 2u);
  EXPECT_NE(gws[0], gws[1]);
  for (const auto& [src, dst] : s.flow_pairs()) {
    // Every flow targets a gateway, and no gateway sources a flow.
    EXPECT_NE(std::find(gws.begin(), gws.end(), dst), gws.end());
    EXPECT_EQ(std::find(gws.begin(), gws.end(), src), gws.end());
  }
}

TEST(Scenario, ShadowingConfigurationRuns) {
  ScenarioConfig cfg = small_config();
  cfg.shadowing_sigma_db = 4.0;
  Scenario s(cfg);
  s.run();
  // Shadowing perturbs links but the mesh must still mostly work.
  EXPECT_GT(s.metrics().pdr, 0.3);
}

TEST(Scenario, ShadowingIsSeedDeterministic) {
  ScenarioConfig cfg = small_config(77);
  cfg.shadowing_sigma_db = 6.0;
  Scenario a(cfg);
  a.run();
  Scenario b(cfg);
  b.run();
  EXPECT_EQ(a.metrics().sim_event_count, b.metrics().sim_event_count);
}

TEST(Scenario, PoissonOnOffTrafficRuns) {
  ScenarioConfig cfg = small_config();
  cfg.traffic.model = TrafficSpec::Model::kPoissonOnOff;
  Scenario s(cfg);
  s.run();
  const RunMetrics m = s.metrics();
  EXPECT_GT(m.data_sent, 0u);
  EXPECT_LE(m.data_delivered, m.data_sent);
}

TEST(Scenario, RtsConfigurationRuns) {
  ScenarioConfig cfg = small_config();
  cfg.mac.rts_threshold_bytes = 256;
  Scenario s(cfg);
  s.run();
  EXPECT_GT(s.metrics().pdr, 0.5);
  // RTS frames actually flowed for the 512-byte data packets.
  std::uint64_t rts = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    rts += s.node_mac(i).counters().tx_rts;
  }
  EXPECT_GT(rts, 0u);
}

TEST(Scenario, MobileConfigurationRuns) {
  ScenarioConfig cfg = small_config();
  cfg.mobility.max_speed_mps = 10.0;
  Scenario s(cfg);
  s.run();
  EXPECT_GT(s.metrics().data_sent, 0u);
}

TEST(Scenario, ComponentAccessorsExposeStacks) {
  Scenario s(small_config());
  EXPECT_EQ(s.node_count(), 25u);
  EXPECT_EQ(s.agent(3).address(), net::Address(3));
  EXPECT_EQ(s.node_mac(3).address(), net::Address(3));
  EXPECT_EQ(s.node_phy(3).node_id(), 3u);
  EXPECT_EQ(s.channel().radio_count(), 25u);
}

// Under churn, every copy a transmission makes is counted exactly once
// (delivered, floor-dropped or fault-dropped), and every delivered copy
// has either settled at its receiver's PHY or is still in flight. The
// rare copy whose receiver crashes while it propagates is pinned on its
// own by ArrivalStream.ReceiverCrashedBeforeArrivalIsAFaultDrop.
TEST(Scenario, ChurnKeepsTheChannelCopyIdentities) {
  ScenarioConfig cfg = small_config(7);
  cfg.fault.churn.rate_per_s = 2.0;
  cfg.fault.churn.mean_downtime = sim::Time::seconds(0.5);
  cfg.fault.churn.start = cfg.warmup;
  cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
  Scenario s(cfg);
  s.run();
  ASSERT_GT(s.metrics().fault_crashes, 0u);
  const phy::WirelessChannel& ch = s.channel();
  const auto& cc = ch.counters();
  EXPECT_GT(cc.copies_dropped_fault, 0u);
  EXPECT_EQ(cc.copies_delivered + cc.copies_dropped_floor + cc.copies_dropped_fault,
            (s.node_count() - 1) * cc.transmissions);
  std::uint64_t settled = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    const phy::WifiPhy& p = s.node_phy(i);
    const auto& pc = p.counters();
    settled += pc.rx_ok + pc.rx_failed_sinr + pc.rx_missed_busy +
               pc.rx_below_sensitivity + pc.rx_dropped_down;
    if (p.state() == phy::WifiPhy::State::kRx) ++settled;
  }
  EXPECT_EQ(cc.copies_delivered - ch.deliveries_in_flight(), settled);
}

// Every protocol must run end-to-end on the same scenario.
class ScenarioPerProtocol : public ::testing::TestWithParam<core::Protocol> {};

TEST_P(ScenarioPerProtocol, DeliversTraffic) {
  ScenarioConfig cfg = small_config();
  cfg.protocol = GetParam();
  Scenario s(cfg);
  s.run();
  const RunMetrics m = s.metrics();
  EXPECT_GT(m.pdr, 0.5) << core::protocol_name(GetParam());
  EXPECT_GT(m.discoveries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ScenarioPerProtocol,
    ::testing::ValuesIn(core::all_protocols()),
    [](const ::testing::TestParamInfo<core::Protocol>& param_info) {
      std::string n = core::protocol_name(param_info.param);
      for (char& ch : n) {
        if (ch == '-' || ch == '(' || ch == ')' || ch == '.' || ch == '=') {
          ch = '_';
        }
      }
      return n;
    });

// ----- sweep layer -----------------------------------------------------------

TEST(Sweep, ReplicationsUseDistinctDerivedSeeds) {
  // Seeds come from the pure (base, rep) derivation, not from base+i
  // counting — so they are independent of thread scheduling and never
  // collide with the next base seed's replications.
  const auto reps = run_replications(small_config(10), 3, 3);
  ASSERT_EQ(reps.size(), 3u);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_EQ(reps[i].seed, replication_seed(10, i));
  }
  EXPECT_NE(reps[0].seed, reps[1].seed);
  EXPECT_NE(reps[1].seed, reps[2].seed);
  EXPECT_NE(reps[0].sim_event_count, reps[1].sim_event_count);
}

TEST(Sweep, ParallelMatchesSerial) {
  const auto serial = run_replications(small_config(20), 4, 1);
  const auto parallel = run_replications(small_config(20), 4, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].data_sent, parallel[i].data_sent);
    EXPECT_EQ(serial[i].data_delivered, parallel[i].data_delivered);
    EXPECT_EQ(serial[i].control_tx, parallel[i].control_tx);
    EXPECT_DOUBLE_EQ(serial[i].mean_delay_ms, parallel[i].mean_delay_ms);
  }
}

TEST(Sweep, CiAggregatesMetric) {
  const auto reps = run_replications(small_config(30), 3, 3);
  const auto c = ci(reps, [](const RunMetrics& m) { return m.pdr; });
  EXPECT_GT(c.mean, 0.5);
  EXPECT_LE(c.mean, 1.0);
  EXPECT_GE(c.half_width, 0.0);
}

}  // namespace
}  // namespace wmn::exp
