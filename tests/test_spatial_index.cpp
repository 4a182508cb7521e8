// Spatial neighbourhood index: the determinism contract under test.
//
// The index (phy/spatial_index.hpp) and the link-budget cache
// (phy/channel.cpp) promise *bit-identical* results with the index on
// or off: same delivered sets, same channel counters, same run
// fingerprints — serial or pooled. These tests drive random
// placements, RWP mobility, shadowing, and explicit repositioning
// through both paths and compare everything observable, plus the
// range-inversion property each propagation model's max_range_m()
// must satisfy (a distance beyond the bound is provably below the
// floor — the index's licence to cull without looking).
#include "phy/spatial_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "phy/wifi_phy.hpp"

namespace wmn::phy {
namespace {

using mobility::ConstantPositionModel;
using mobility::RandomWaypointConfig;
using mobility::RandomWaypointModel;
using mobility::Vec2;

// ----- max_range_m inversion contract ---------------------------------------
//
// For every model: any distance strictly beyond max_range_m(tx, floor)
// must yield rx_power_dbm < floor. (The converse — in-range pairs above
// the floor — need not hold; the bound may be loose, never tight the
// wrong way.)

void expect_cull_sound(const PropagationModel& m, double tx_dbm,
                       double floor_dbm) {
  const double r = m.max_range_m(tx_dbm, floor_dbm);
  ASSERT_GT(r, 0.0);
  ASSERT_TRUE(std::isfinite(r));
  for (const double factor : {1.0001, 1.01, 1.5, 4.0, 64.0}) {
    const double d = r * factor;
    const double p =
        m.rx_power_dbm(tx_dbm, {0.0, 0.0}, {d, 0.0}, 1, 2);
    EXPECT_LT(p, floor_dbm) << "model leaks power at " << factor
                            << "x its own max range";
  }
  // Sanity the other way: the bound is not uselessly small — just
  // inside it the signal is at or above the floor for deterministic
  // models (shadowing is exempt; its bound is deliberately padded).
}

TEST(MaxRange, FriisInversionIsSound) {
  FriisModel m;
  expect_cull_sound(m, 15.0, -98.0);
  expect_cull_sound(m, 20.0, -85.0);
  // Deterministic model: just inside the bound the power clears the floor.
  const double r = m.max_range_m(15.0, -98.0);
  EXPECT_GE(m.rx_power_dbm(15.0, {0, 0}, {r * 0.999, 0}, 1, 2), -98.0);
}

TEST(MaxRange, LogDistanceInversionIsSound) {
  LogDistanceModel m;
  expect_cull_sound(m, 15.0, -98.0);
  expect_cull_sound(m, 10.0, -90.0);
  const double r = m.max_range_m(15.0, -98.0);
  EXPECT_GE(m.rx_power_dbm(15.0, {0, 0}, {r * 0.999, 0}, 1, 2), -98.0);
}

TEST(MaxRange, TwoRayInversionIsSound) {
  TwoRayGroundModel m;
  expect_cull_sound(m, 15.0, -98.0);
  expect_cull_sound(m, 24.0, -95.0);
}

TEST(MaxRange, BasePropagationModelReportsUnbounded) {
  // A model that does not override max_range_m must advertise infinity
  // (the index then gathers every receiver), never a finite guess.
  class Opaque final : public PropagationModel {
    [[nodiscard]] double power_dbm(double tx, double, std::uint32_t,
                                   std::uint32_t) const override {
      return tx - 50.0;
    }
  };
  const Opaque m;
  EXPECT_TRUE(std::isinf(m.max_range_m(15.0, -98.0)));
}

TEST(MaxRange, ShadowingBoundHoldsOverManyLinks) {
  // The shadowing pad (kSigmaBound sigma) must dominate every draw the
  // per-link hash can produce. Hammer the bound with many link ids at a
  // distance just beyond the padded range: every one must stay below
  // the floor.
  for (const double sigma : {2.0, 6.0, 12.0}) {
    LogNormalShadowing m(std::make_unique<LogDistanceModel>(), sigma, 1234);
    const double r = m.max_range_m(15.0, -98.0);
    ASSERT_TRUE(std::isfinite(r));
    for (std::uint32_t tx = 0; tx < 40; ++tx) {
      for (std::uint32_t rx = 0; rx < 40; ++rx) {
        if (tx == rx) continue;
        const double p =
            m.rx_power_dbm(15.0, {0.0, 0.0}, {r * 1.0001, 0.0}, tx, rx);
        EXPECT_LT(p, -98.0) << "sigma=" << sigma << " link " << tx << "->"
                            << rx;
      }
    }
  }
}

TEST(MaxRange, ShadowingDelegatesToInnerWithPaddedFloor) {
  LogDistanceModel inner;
  LogNormalShadowing m(std::make_unique<LogDistanceModel>(), 6.0, 7);
  EXPECT_DOUBLE_EQ(
      m.max_range_m(15.0, -98.0),
      inner.max_range_m(15.0, -98.0 - LogNormalShadowing::kSigmaBound * 6.0));
}

// ----- channel-level equivalence --------------------------------------------

// Two identical radio fields over the same propagation model; one with
// the spatial index, one with the plain O(N^2) scan. Any observable
// divergence is a contract violation.
std::unique_ptr<PropagationModel> log_distance(double shadowing_sigma,
                                               std::uint64_t seed) {
  std::unique_ptr<PropagationModel> prop = std::make_unique<LogDistanceModel>();
  if (shadowing_sigma > 0.0) {
    prop = std::make_unique<LogNormalShadowing>(std::move(prop),
                                                shadowing_sigma, seed);
  }
  return prop;
}

struct Bed {
  Bed(const std::vector<Vec2>& positions, double area_w, double area_h,
      bool indexed, double shadowing_sigma, std::uint64_t seed)
      : Bed(positions, area_w, area_h, indexed,
            log_distance(shadowing_sigma, seed), seed) {}

  Bed(const std::vector<Vec2>& positions, double area_w, double area_h,
      bool indexed, std::unique_ptr<PropagationModel> prop, std::uint64_t seed)
      : sim(seed) {
    channel = std::make_unique<WirelessChannel>(sim, std::move(prop));
    if (indexed) channel->enable_spatial_index(area_w, area_h);
    for (std::size_t i = 0; i < positions.size(); ++i) {
      mobilities.push_back(
          std::make_unique<ConstantPositionModel>(positions[i]));
      phys.push_back(std::make_unique<WifiPhy>(
          sim, PhyConfig{}, static_cast<std::uint32_t>(i),
          mobilities.back().get()));
      channel->attach(phys.back().get());
    }
  }

  // Round-robin broadcast: every node transmits once, staggered so the
  // air is clear between frames.
  void broadcast_round(int rounds) {
    net::PacketFactory factory;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < phys.size(); ++i) {
        const sim::Time at = sim::Time::millis(
            5.0 * (static_cast<double>(r) * static_cast<double>(phys.size()) +
                   static_cast<double>(i)));
        sim.schedule(at, [this, i, &factory] {
          net::Packet p = factory.make(64, sim.now());
          channel->transmit(*phys[i], p, phys[i]->tx_duration(64));
        });
      }
    }
    sim.run();
  }

  sim::Simulator sim;
  std::vector<std::unique_ptr<ConstantPositionModel>> mobilities;
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::unique_ptr<WirelessChannel> channel;  // dies before the models
};

std::vector<Vec2> random_positions(std::size_t n, double w, double h,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> ux(0.0, w), uy(0.0, h);
  std::vector<Vec2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back({ux(rng), uy(rng)});
  return out;
}

// PHY counters are as of each radio's last settle, and a weak copy
// settles only when its radio is read. Both beds first run to one
// instant past every copy's end and settle every radio, so the
// comparison covers every copy, the last weak ones included.
void expect_beds_identical(Bed& a, Bed& b) {
  const sim::Time settled_at =
      std::max(a.sim.now(), b.sim.now()) + sim::Time::seconds(1.0);
  for (Bed* bed : {&a, &b}) {
    bed->sim.run_until(settled_at);
    for (const auto& phy : bed->phys) phy->settle();
    EXPECT_EQ(bed->channel->deliveries_in_flight(), 0u);
  }
  const auto& ca = a.channel->counters();
  const auto& cb = b.channel->counters();
  EXPECT_EQ(ca.transmissions, cb.transmissions);
  EXPECT_EQ(ca.copies_delivered, cb.copies_delivered);
  EXPECT_EQ(ca.copies_dropped_floor, cb.copies_dropped_floor);
  EXPECT_EQ(ca.copies_dropped_fault, cb.copies_dropped_fault);
  ASSERT_EQ(a.phys.size(), b.phys.size());
  for (std::size_t i = 0; i < a.phys.size(); ++i) {
    const auto& pa = a.phys[i]->counters();
    const auto& pb = b.phys[i]->counters();
    EXPECT_EQ(pa.rx_ok, pb.rx_ok) << "node " << i;
    EXPECT_EQ(pa.rx_failed_sinr, pb.rx_failed_sinr) << "node " << i;
    EXPECT_EQ(pa.rx_missed_busy, pb.rx_missed_busy) << "node " << i;
    EXPECT_EQ(pa.rx_below_sensitivity, pb.rx_below_sensitivity)
        << "node " << i;
    EXPECT_EQ(pa.busy_time, pb.busy_time) << "node " << i;
  }
}

TEST(SpatialIndexEquivalence, RandomStaticPlacements) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 99ULL}) {
    const auto pos = random_positions(60, 3000.0, 3000.0, seed);
    Bed plain(pos, 3000.0, 3000.0, false, 0.0, seed);
    Bed fast(pos, 3000.0, 3000.0, true, 0.0, seed);
    plain.broadcast_round(3);
    fast.broadcast_round(3);
    expect_beds_identical(plain, fast);
    // The sparse field must actually exercise the cull path.
    ASSERT_NE(fast.channel->spatial_index(), nullptr);
    EXPECT_GT(fast.channel->counters().copies_dropped_floor, 0u);
  }
}

TEST(SpatialIndexEquivalence, RandomPlacementsWithShadowing) {
  // Shadowing adds the per-link hash draw to every budget; the culled
  // set must still match because the pad provably covers every draw.
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    const auto pos = random_positions(50, 2500.0, 2500.0, seed);
    Bed plain(pos, 2500.0, 2500.0, false, 6.0, seed);
    Bed fast(pos, 2500.0, 2500.0, true, 6.0, seed);
    plain.broadcast_round(2);
    fast.broadcast_round(2);
    expect_beds_identical(plain, fast);
  }
}

// Log-distance path loss that reports 0.6x its true range: an unsound
// max_range_m inversion, so the index culls receivers that hear the
// frame.
class ShortRangeModel final : public PropagationModel {
 public:
  [[nodiscard]] double power_dbm(double tx_power_dbm, double distance_m,
                                 std::uint32_t tx_id,
                                 std::uint32_t rx_id) const override {
    return inner_.power_dbm(tx_power_dbm, distance_m, tx_id, rx_id);
  }
  [[nodiscard]] double max_range_m(double tx_power_dbm,
                                   double floor_dbm) const override {
    return 0.6 * inner_.max_range_m(tx_power_dbm, floor_dbm);
  }

 private:
  LogDistanceModel inner_;
};

TEST(SpatialIndexEquivalence, UnsoundRangeBoundIsCaught) {
  // Negative control for every equivalence test here: they can catch a
  // wrong range inversion only if the unindexed bed never relies on
  // it. The per-pair scan does not consult max_range_m, so a bound
  // that is too short must show as copies the indexed bed lost.
  const auto pos = random_positions(60, 3000.0, 3000.0, 1);
  Bed plain(pos, 3000.0, 3000.0, false, std::make_unique<ShortRangeModel>(), 1);
  Bed fast(pos, 3000.0, 3000.0, true, std::make_unique<ShortRangeModel>(), 1);
  plain.broadcast_round(3);
  fast.broadcast_round(3);
  EXPECT_GT(plain.channel->counters().copies_delivered,
            fast.channel->counters().copies_delivered);
}

TEST(SpatialIndexEquivalence, CounterIdentityPerTransmission) {
  // Without a fault overlay every one of the N-1 copies is either
  // delivered or floor-dropped — the identity the bulk cull accounting
  // must preserve exactly.
  const auto pos = random_positions(40, 2500.0, 2500.0, 5);
  Bed fast(pos, 2500.0, 2500.0, true, 0.0, 5);
  fast.broadcast_round(2);
  const auto& c = fast.channel->counters();
  EXPECT_EQ(c.copies_delivered + c.copies_dropped_floor,
            c.transmissions * (pos.size() - 1));
  EXPECT_EQ(c.copies_dropped_fault, 0u);
}

TEST(SpatialIndexEquivalence, SetPositionInvalidatesCaches) {
  // Move a receiver out of range after the caches warmed up: the next
  // transmission must see the new position (epoch bump -> re-bin ->
  // cache rebuild), and moving it back must restore delivery.
  const std::vector<Vec2> pos = {{0.0, 0.0}, {100.0, 0.0}};
  Bed bed(pos, 5000.0, 5000.0, true, 0.0, 1);
  net::PacketFactory factory;
  auto send = [&] {
    net::Packet p = factory.make(64, bed.sim.now());
    bed.channel->transmit(*bed.phys[0], p, bed.phys[0]->tx_duration(64));
  };
  bed.sim.schedule(sim::Time::millis(0), send);
  bed.sim.schedule(sim::Time::millis(10),
                   [&] { bed.mobilities[1]->set_position({4900.0, 4900.0}); });
  bed.sim.schedule(sim::Time::millis(20), send);
  bed.sim.schedule(sim::Time::millis(30),
                   [&] { bed.mobilities[1]->set_position({150.0, 0.0}); });
  bed.sim.schedule(sim::Time::millis(40), send);
  bed.sim.run();
  const auto& c = bed.channel->counters();
  EXPECT_EQ(c.transmissions, 3u);
  EXPECT_EQ(c.copies_delivered, 2u);      // first and third reach the node
  EXPECT_EQ(c.copies_dropped_floor, 1u);  // second is out of range
  EXPECT_EQ(bed.phys[1]->counters().rx_ok, 2u);
}

// RWP endpoints: leg boxes, pauses (pinned), epoch churn. The indexed
// bed must track every leg boundary and still match the per-pair scan.
TEST(SpatialIndexEquivalence, RandomWaypointMobility) {
  for (const std::uint64_t seed : {2ULL, 13ULL}) {
    auto build_and_run = [seed](bool indexed) {
      auto bed = std::make_unique<sim::Simulator>(seed);
      std::unique_ptr<PropagationModel> prop =
          std::make_unique<LogDistanceModel>();
      auto channel = std::make_unique<WirelessChannel>(*bed, std::move(prop));
      if (indexed) channel->enable_spatial_index(2500.0, 2500.0);
      RandomWaypointConfig rwp;
      rwp.area_width_m = 2500.0;
      rwp.area_height_m = 2500.0;
      rwp.min_speed_mps = 5.0;
      rwp.max_speed_mps = 25.0;
      rwp.pause = sim::Time::seconds(0.5);
      std::vector<std::unique_ptr<RandomWaypointModel>> models;
      std::vector<std::unique_ptr<WifiPhy>> phys;
      const auto pos = random_positions(30, 2500.0, 2500.0, seed);
      for (std::size_t i = 0; i < pos.size(); ++i) {
        models.push_back(std::make_unique<RandomWaypointModel>(
            *bed, rwp, pos[i], 1000 + i));
        phys.push_back(std::make_unique<WifiPhy>(
            *bed, PhyConfig{}, static_cast<std::uint32_t>(i),
            models.back().get()));
        channel->attach(phys.back().get());
      }
      net::PacketFactory factory;
      for (int r = 0; r < 40; ++r) {
        for (std::size_t i = 0; i < phys.size(); ++i) {
          const sim::Time at = sim::Time::millis(
              50.0 * (static_cast<double>(r) *
                          static_cast<double>(phys.size()) +
                      static_cast<double>(i)));
          bed->schedule(at, [&channel, &phys, &factory, &bed, i] {
            net::Packet p = factory.make(64, bed->now());
            channel->transmit(*phys[i], p, phys[i]->tx_duration(64));
          });
        }
      }
      // run_until, not run(): RWP models schedule leg events forever.
      bed->run_until(sim::Time::seconds(65.0));
      WirelessChannel::Counters out = channel->counters();
      std::vector<std::uint64_t> rx_ok;
      for (const auto& p : phys) rx_ok.push_back(p->counters().rx_ok);
      channel.reset();  // detach listeners while models are alive
      return std::pair{out, rx_ok};
    };
    const auto [plain, plain_rx] = build_and_run(false);
    const auto [fast, fast_rx] = build_and_run(true);
    EXPECT_EQ(plain.transmissions, fast.transmissions);
    EXPECT_EQ(plain.copies_delivered, fast.copies_delivered);
    EXPECT_EQ(plain.copies_dropped_floor, fast.copies_dropped_floor);
    EXPECT_EQ(plain_rx, fast_rx);
  }
}

// ----- scenario-level fingerprint equivalence -------------------------------

exp::ScenarioConfig scenario_config(std::uint64_t seed, bool mobile,
                                    double sigma) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 36;
  cfg.area_width_m = 900.0;
  cfg.area_height_m = 900.0;
  cfg.traffic.n_flows = 5;
  cfg.traffic.rate_pps = 4.0;
  cfg.warmup = sim::Time::seconds(3.0);
  cfg.traffic_time = sim::Time::seconds(8.0);
  cfg.shadowing_sigma_db = sigma;
  if (mobile) cfg.mobility.max_speed_mps = 10.0;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t run_fingerprint(exp::ScenarioConfig cfg, bool indexed,
                              WirelessChannel::Counters* counters = nullptr) {
  cfg.spatial_index = indexed;
  exp::Scenario s(cfg);
  s.run();
  if (counters != nullptr) *counters = s.channel().counters();
  return exp::fingerprint(s.metrics());
}

TEST(SpatialIndexEquivalence, ScenarioFingerprintStaticMesh) {
  const exp::ScenarioConfig cfg = scenario_config(42, false, 0.0);
  WirelessChannel::Counters plain{}, fast{};
  const std::uint64_t fp_plain = run_fingerprint(cfg, false, &plain);
  const std::uint64_t fp_fast = run_fingerprint(cfg, true, &fast);
  EXPECT_EQ(fp_plain, fp_fast);
  EXPECT_EQ(plain.transmissions, fast.transmissions);
  EXPECT_EQ(plain.copies_delivered, fast.copies_delivered);
  EXPECT_EQ(plain.copies_dropped_floor, fast.copies_dropped_floor);
}

TEST(SpatialIndexEquivalence, ScenarioFingerprintMobileShadowed) {
  // A list with a moving endpoint is re-evaluated on every
  // transmission, an all-pinned one memoised; the per-pair scan
  // evaluates everything afresh.
  for (const double sigma : {4.0, 6.0}) {
    const exp::ScenarioConfig cfg = scenario_config(7, true, sigma);
    WirelessChannel::Counters plain{}, fast{};
    const std::uint64_t fp_plain = run_fingerprint(cfg, false, &plain);
    const std::uint64_t fp_fast = run_fingerprint(cfg, true, &fast);
    EXPECT_EQ(fp_plain, fp_fast) << "sigma=" << sigma;
    EXPECT_EQ(plain.transmissions, fast.transmissions) << "sigma=" << sigma;
    EXPECT_EQ(plain.copies_delivered, fast.copies_delivered) << "sigma=" << sigma;
    EXPECT_EQ(plain.copies_dropped_floor, fast.copies_dropped_floor)
        << "sigma=" << sigma;
  }
}

TEST(SpatialIndexEquivalence, PooledIndexedMatchesSerialFullScan) {
  // The strongest cross-check: replications drained by four sweep workers
  // with the index on must reproduce, bit for bit, a single-threaded
  // sweep with the index off.
  exp::ScenarioConfig on = scenario_config(42, true, 0.0);
  on.spatial_index = true;
  exp::ScenarioConfig off = on;
  off.spatial_index = false;
  const auto pooled_on = exp::run_replications(on, 3, 4);
  const auto serial_off = exp::run_replications(off, 3, 1);
  ASSERT_EQ(pooled_on.size(), serial_off.size());
  for (std::size_t i = 0; i < pooled_on.size(); ++i) {
    EXPECT_EQ(exp::fingerprint(pooled_on[i]), exp::fingerprint(serial_off[i]))
        << "rep " << i;
  }
}

// ----- index internals ------------------------------------------------------

TEST(SpatialIndexUnit, GatherExcludesOnlyProvablyFarNodes) {
  ConstantPositionModel a({100.0, 100.0});
  ConstantPositionModel b({150.0, 100.0});   // 50 m from a
  ConstantPositionModel c({900.0, 900.0});   // ~1131 m from a
  SpatialIndex index(1000.0, 1000.0, 100.0);
  index.add_node(&a);
  index.add_node(&b);
  index.add_node(&c);
  std::vector<std::uint32_t> out;
  index.gather(0, 200.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  index.gather(0, 2000.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2}));
  // Infinite range: transparent full fallback, attach order.
  index.gather(0, std::numeric_limits<double>::infinity(), out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2}));
}

TEST(SpatialIndexUnit, RebinsOnEpochBumpOnly) {
  ConstantPositionModel a({100.0, 100.0});
  ConstantPositionModel b({900.0, 900.0});
  SpatialIndex index(1000.0, 1000.0, 50.0);
  index.add_node(&a);
  index.add_node(&b);
  const std::uint64_t v0 = index.version();
  index.refresh();                    // nothing moved
  EXPECT_EQ(index.version(), v0);
  b.set_position({120.0, 100.0});     // epoch bump -> dirty
  index.refresh();
  EXPECT_GT(index.version(), v0);
  std::vector<std::uint32_t> out;
  index.gather(0, 100.0, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

TEST(SpatialIndexUnit, PinnedReflectsBoundsShape) {
  ConstantPositionModel a({10.0, 10.0});
  SpatialIndex index(100.0, 100.0, 10.0);
  index.add_node(&a);
  EXPECT_TRUE(index.pinned(0));
  EXPECT_EQ(index.roamer_count(), 0u);
}

}  // namespace
}  // namespace wmn::phy
