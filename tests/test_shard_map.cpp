// Pins the sharded engine's determinism contract pieces one at a time
// (DESIGN.md §3e): the geometry -> region map, the conservative
// lookahead formula (and its infinite-range downgrade), the fixed
// cross-region merge order, the lowest-cell-id home-region rule for
// trajectories that span regions. tests/test_determinism.cpp checks
// the end-to-end consequence (bit-identical fingerprints across shard
// counts); this file checks each ingredient, so a contract break
// points at the guilty layer instead of just flipping a fingerprint.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/protocols.hpp"
#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "mobility/mobility_model.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "phy/shard_router.hpp"
#include "phy/wifi_phy.hpp"
#include "sim/fingerprint.hpp"
#include "sim/shard_map.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace {

using namespace wmn;

// --- region assignment ------------------------------------------------

sim::ShardGrid grid16() { return sim::ShardGrid{16, 16, 10.0}; }

TEST(ShardMap, SquareGridTilesEightRegions) {
  const auto map = sim::ShardMap::build(grid16(), 8);
  // 8 = 4x2 on a square grid: (2,4) and (4,2) tie on aspect mismatch
  // and the documented tie-break prefers more columns.
  EXPECT_EQ(map.region_count(), 8u);
  EXPECT_EQ(map.tiles_x(), 4u);
  EXPECT_EQ(map.tiles_y(), 2u);
}

TEST(ShardMap, RegionsAreContiguousEqualTiles) {
  const auto map = sim::ShardMap::build(grid16(), 8);
  // Proportional partition on 16 cells / 4 tiles: cell column c lands
  // in tile c/4, row r in tile r/8; region id is row-major over tiles.
  std::vector<std::uint32_t> cells_per_region(map.region_count(), 0);
  for (std::uint32_t cy = 0; cy < 16; ++cy) {
    for (std::uint32_t cx = 0; cx < 16; ++cx) {
      const std::uint32_t region = map.region_of_cell(cy * 16 + cx);
      EXPECT_EQ(region, (cy / 8) * 4 + cx / 4) << "cell (" << cx << "," << cy << ")";
      ++cells_per_region[region];
    }
  }
  for (std::uint32_t r = 0; r < map.region_count(); ++r) {
    EXPECT_EQ(cells_per_region[r], 32u) << "region " << r;
  }
}

TEST(ShardMap, TargetRoundsDownToFeasibleCount) {
  // A 1xN grid cannot tile 8 as anything but 8x1; with only 4 columns
  // the build walks the target down to the largest feasible count.
  const auto map = sim::ShardMap::build(sim::ShardGrid{4, 1, 25.0}, 8);
  EXPECT_EQ(map.region_count(), 4u);
  EXPECT_EQ(map.tiles_x(), 4u);
  EXPECT_EQ(map.tiles_y(), 1u);
}

TEST(ShardMap, SingleIsOneRegion) {
  const auto map = sim::ShardMap::single(grid16());
  EXPECT_EQ(map.region_count(), 1u);
  for (std::uint32_t cell = 0; cell < 16 * 16; ++cell) {
    EXPECT_EQ(map.region_of_cell(cell), 0u);
  }
}

TEST(ShardMap, PositionMappingClampsEdgesAndNan) {
  const auto map = sim::ShardMap::build(grid16(), 8);
  EXPECT_EQ(map.region_of_position(0.0, 0.0), 0u);
  EXPECT_EQ(map.region_of_position(159.9, 0.0), 3u);
  EXPECT_EQ(map.region_of_position(0.0, 159.9), 4u);
  EXPECT_EQ(map.region_of_position(159.9, 159.9), 7u);
  // Outside the area and non-finite coordinates clamp into the grid —
  // same rule as phy::SpatialIndex, so map and index always agree.
  EXPECT_EQ(map.region_of_position(-50.0, -50.0), 0u);
  EXPECT_EQ(map.region_of_position(1e9, 1e9), 7u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(map.region_of_position(nan, nan), 0u);
}

// --- home region: the lowest-cell-id rule (mobility satellite) --------

TEST(ShardMap, HomeRegionIsLoCornerOfTrajectoryBounds) {
  const auto map = sim::ShardMap::build(grid16(), 8);
  // A trajectory box spanning cells (3..4, 7..8) overlaps all four
  // regions around the grid centre. The home is the region of the
  // box's lo corner — the lowest overlapped cell id in row-major
  // order, so the choice is deterministic and independent of shard
  // count or visit order.
  const mobility::TrajectoryBounds b =
      mobility::TrajectoryBounds::box({35.0, 75.0}, {45.0, 85.0});
  EXPECT_EQ(map.home_region(b.lo.x, b.lo.y), 0u);
  EXPECT_EQ(map.home_region(b.lo.x, b.lo.y),
            map.region_of_position(b.lo.x, b.lo.y));
  // The same box's other corners land in the three other regions —
  // i.e. the rule genuinely picks among several candidates.
  EXPECT_EQ(map.region_of_position(b.hi.x, b.lo.y), 1u);
  EXPECT_EQ(map.region_of_position(b.lo.x, b.hi.y), 4u);
  EXPECT_EQ(map.region_of_position(b.hi.x, b.hi.y), 5u);
}

// --- lookahead --------------------------------------------------------

TEST(ShardMap, LookaheadIsPropagationPlusTurnaround) {
  const sim::Time turnaround = sim::Time::micros(30.0);
  const sim::Time la = sim::ShardMap::lookahead(300.0, 3.0e8, turnaround);
  EXPECT_EQ(la, sim::Time::seconds(300.0 / 3.0e8) + turnaround);
  EXPECT_GT(la, turnaround);
}

TEST(ShardMap, LookaheadInfiniteRangeIsSentinel) {
  const sim::Time turnaround = sim::Time::micros(30.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(sim::ShardMap::lookahead(inf, 3.0e8, turnaround), sim::Time::max());
  EXPECT_EQ(sim::ShardMap::lookahead(nan, 3.0e8, turnaround), sim::Time::max());
  // Degenerate ranges clamp to zero propagation, not negative time.
  EXPECT_EQ(sim::ShardMap::lookahead(-5.0, 3.0e8, turnaround), turnaround);
}

// --- cross-region inbox merge order -----------------------------------

// Hand-built two-source, one-destination rig: three regions, posts
// with assorted (arrival, src region), then one merge. The trace must
// come out in (release, src region, row seq) order with every release
// clamped to the barrier.
TEST(ShardRouter, MergeOrderIsReleaseThenSrcRegionThenSeq) {
  sim::Simulator sim0(1), sim1(1), sim2(1);
  phy::WirelessChannel ch0(sim0, std::make_unique<phy::LogDistanceModel>());
  phy::WirelessChannel ch1(sim1, std::make_unique<phy::LogDistanceModel>());
  phy::WirelessChannel ch2(sim2, std::make_unique<phy::LogDistanceModel>());
  net::PacketFactory f0, f1, f2;
  phy::ShardRouter router({0, 1, 2}, {&ch0, &ch1, &ch2}, {&f0, &f1, &f2});
  router.set_trace(true);

  mobility::ConstantPositionModel pos({0.0, 0.0});
  phy::WifiPhy rx(sim2, phy::PhyConfig{}, 2, &pos);

  const sim::Time boundary = sim::Time::micros(10.0);
  const sim::Time duration = sim::Time::micros(100.0);
  // Two rows into dst 2. Row (0,2): arrivals 5us then 15us. Row (1,2):
  // arrivals 5us then 12us. Barrier at 10us.
  const net::Packet a = f0.make(64, sim::Time::zero());  // release clamps to 10us
  const net::Packet b = f1.make(64, sim::Time::zero());  // release clamps to 10us
  const net::Packet c = f0.make(64, sim::Time::zero());  // release 15us
  const net::Packet d = f1.make(64, sim::Time::zero());  // release 12us
  router.post(0, 2, &rx, a, -60.0, 1e-6, sim::Time::micros(5.0), duration);
  router.post(1, 2, &rx, b, -60.0, 1e-6, sim::Time::micros(5.0), duration);
  router.post(0, 2, &rx, c, -60.0, 1e-6, sim::Time::micros(15.0), duration);
  router.post(1, 2, &rx, d, -60.0, 1e-6, sim::Time::micros(12.0), duration);
  EXPECT_EQ(router.posted(), 4u);

  EXPECT_TRUE(router.merge_epoch(boundary));
  EXPECT_EQ(router.merged(), 4u);

  const auto& trace = router.last_merge_trace();
  ASSERT_EQ(trace.size(), 4u);
  // Ties on release break by src region; within a row, by seq.
  EXPECT_EQ(trace[0].uid, a.uid());
  EXPECT_EQ(trace[1].uid, b.uid());
  EXPECT_EQ(trace[2].uid, d.uid());
  EXPECT_EQ(trace[3].uid, c.uid());
  EXPECT_EQ(trace[0].release, boundary);  // clamped, never early
  EXPECT_EQ(trace[1].release, boundary);
  EXPECT_EQ(trace[2].release, sim::Time::micros(12.0));
  EXPECT_EQ(trace[3].release, sim::Time::micros(15.0));
  EXPECT_EQ(trace[0].src_region, 0u);
  EXPECT_EQ(trace[1].src_region, 1u);
  EXPECT_EQ(trace[0].seq, 0u);
  EXPECT_EQ(trace[3].seq, 1u);

  // Every entry became a parked delivery on the destination calendar.
  EXPECT_EQ(ch2.deliveries_in_flight(), 4u);
  EXPECT_EQ(sim2.events_pending(), 4u);
  EXPECT_EQ(sim0.events_pending(), 0u);

  // A second merge with nothing posted is quiet.
  EXPECT_FALSE(router.merge_epoch(boundary + sim::Time::micros(30.0)));
  EXPECT_TRUE(router.last_merge_trace().empty());
}

// --- scenario-level downgrades ---------------------------------------

exp::ScenarioConfig small_sharded_config(std::uint32_t shards) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 25;
  cfg.area_width_m = 500.0;
  cfg.area_height_m = 500.0;
  cfg.placement = exp::Placement::kPerturbedGrid;
  cfg.traffic.n_flows = 4;
  cfg.traffic.rate_pps = 2.0;
  cfg.warmup = sim::Time::seconds(1.0);
  cfg.traffic_time = sim::Time::seconds(2.0);
  cfg.drain = sim::Time::seconds(1.0);
  cfg.seed = 7;
  cfg.protocol = core::Protocol::kClnlr;
  cfg.intra_run_shards = shards;
  return cfg;
}

TEST(ShardedScenario, NoSpatialIndexDowngradesToOneRegion) {
  auto cfg = small_sharded_config(4);
  cfg.spatial_index = false;
  exp::Scenario s(cfg);
  EXPECT_EQ(s.engine().region_count(), 1u);
  // One region means one epoch spanning the whole horizon: the run
  // must still complete with a single Simulator's semantics.
  s.run();
  EXPECT_GT(s.metrics().data_delivered, 0u);
}

TEST(ShardedScenario, MobilityDowngradesToOneRegion) {
  auto cfg = small_sharded_config(4);
  cfg.mobility.max_speed_mps = 2.0;
  exp::Scenario s(cfg);
  EXPECT_EQ(s.engine().region_count(), 1u);
  s.run();
  EXPECT_GT(s.metrics().data_delivered, 0u);
}

TEST(ShardedScenario, StaticNodesGetGeometricHomeRegions) {
  auto cfg = small_sharded_config(2);
  exp::Scenario s(cfg);
  ASSERT_GT(s.engine().region_count(), 1u);
  const auto& homes = s.home_regions();
  ASSERT_EQ(homes.size(), static_cast<std::size_t>(cfg.n_nodes));
  bool multiple = false;
  for (std::size_t i = 1; i < homes.size(); ++i) {
    if (homes[i] != homes[0]) multiple = true;
  }
  EXPECT_TRUE(multiple) << "all nodes in one region defeats the point";
}

TEST(ShardedScenario, SameSeedSameFingerprintAfterDowngrade) {
  auto cfg = small_sharded_config(4);
  cfg.spatial_index = false;
  exp::Scenario a(cfg), b(cfg);
  a.run();
  b.run();
  EXPECT_EQ(exp::fingerprint(a.metrics()), exp::fingerprint(b.metrics()));
}

}  // namespace
