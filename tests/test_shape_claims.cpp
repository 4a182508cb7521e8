// Shape claims the reproduction must hold, at a short horizon.
//
// AODV-VAP scales each node's RREQ forwarding probability down with
// its speed. In a static mesh every speed is 0, so every node forwards
// every RREQ and VAP is blind flooding: at equal seeds the two runs
// must agree bit for bit. A sweep seeds rep r of every cell at
// replication_seed(cfg.seed, r), so the two protocols' cells pair rep
// for rep, which is what makes EXPERIMENTS.md's T2 show AODV-VAP and
// AODV-BF column for column equal.
#include <gtest/gtest.h>

#include "exp/scenario.hpp"
#include "exp/sweep.hpp"

namespace wmn::exp {
namespace {

// 50 static routers at the T1 reference density (100 nodes/km²).
ScenarioConfig static_mesh(core::Protocol protocol, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.n_nodes = 50;
  cfg.area_width_m = 707.0;
  cfg.area_height_m = 707.0;
  cfg.traffic.n_flows = 5;
  cfg.traffic.rate_pps = 6.0;
  cfg.warmup = sim::Time::seconds(3.0);
  cfg.traffic_time = sim::Time::seconds(5.0);
  cfg.protocol = protocol;
  cfg.seed = seed;
  return cfg;
}

RunMetrics run(const ScenarioConfig& cfg) {
  Scenario scenario(cfg);
  scenario.run();
  return scenario.metrics();
}

TEST(StaticMesh, VapIsBlindFloodingAtEverySeed) {
  for (std::uint64_t seed : {1, 2, 3}) {
    const RunMetrics flood = run(static_mesh(core::Protocol::kAodvFlood, seed));
    const RunMetrics vap = run(static_mesh(core::Protocol::kAodvVap, seed));
    EXPECT_GT(flood.discoveries, 0u) << "seed " << seed;
    EXPECT_GT(flood.data_delivered, 0u) << "seed " << seed;
    EXPECT_EQ(fingerprint(vap), fingerprint(flood)) << "seed " << seed;
    // Control: the fingerprint does tell a different discovery apart.
    const RunMetrics gossip = run(static_mesh(core::Protocol::kAodvGossip, seed));
    EXPECT_NE(fingerprint(gossip), fingerprint(flood)) << "seed " << seed;
  }
}

TEST(StaticMesh, SweepPairsVapWithFloodingRepForRep) {
  SweepEngine sweep(1);
  const std::size_t flood =
      sweep.add_cell(static_mesh(core::Protocol::kAodvFlood, 1), 3);
  const std::size_t vap =
      sweep.add_cell(static_mesh(core::Protocol::kAodvVap, 1), 3);
  sweep.run();
  ASSERT_EQ(sweep.failed_count(), 0u);
  for (std::size_t rep = 0; rep < 3; ++rep) {
    const RepOutcome& f = sweep.cell(flood)[rep];
    const RepOutcome& v = sweep.cell(vap)[rep];
    EXPECT_EQ(f.seed, replication_seed(1, rep));
    EXPECT_EQ(v.seed, f.seed);
    EXPECT_EQ(fingerprint(*v.metrics), fingerprint(*f.metrics)) << "rep " << rep;
  }
}

}  // namespace
}  // namespace wmn::exp
