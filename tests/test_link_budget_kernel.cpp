// Batch link-budget kernel: the bit-identity contract under test.
//
// The kernel (phy/link_budget_kernel.hpp) promises that batched
// evaluation performs the same IEEE-754 operations as the per-pair
// scalar path, so fingerprints can never depend on which path ran.
// These tests compare batch vs scalar outputs bit for bit across every
// built-in model (including the edge geometries: co-located pair at
// the 0.05 m floor, sub-reference distances, the two-ray crossover),
// pin the base-class fallback for custom models, and close with
// scenario-level fingerprint equality. The max_range_m inversion
// sweeps re-run the spatial-index cull-soundness property through the
// batched kernel at shadowing sigma in {2, 6, 12}.
#include "phy/link_budget_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"

namespace wmn::phy {
namespace {

using mobility::Vec2;

// Geometry that exercises every numeric regime: the 0.05 m distance
// floor (co-located and sub-floor pairs), sub-reference distances
// (LogDistance clamps to d0), the two-ray crossover region, and far
// field out to beyond typical detection range.
std::vector<Vec2> edge_positions(Vec2 tx) {
  std::vector<Vec2> out = {
      tx,                            // co-located -> floored distance
      {tx.x + 0.01, tx.y},           // below the 0.05 m floor
      {tx.x + 0.05, tx.y - 0.05},    // at the floor scale
      {tx.x + 0.5, tx.y + 0.2},      // below reference distance
      {tx.x + 1.0, tx.y},            // at reference distance
      {tx.x - 30.0, tx.y + 40.0},    // near field
      {tx.x + 200.0, tx.y - 150.0},  // two-ray crossover region
      {tx.x - 700.0, tx.y + 10.0},   // far field
      {tx.x + 2000.0, tx.y + 2000.0},
  };
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> u(-1500.0, 1500.0);
  for (int i = 0; i < 64; ++i) out.push_back({tx.x + u(rng), tx.y + u(rng)});
  return out;
}

void expect_batch_matches_scalar(const PropagationModel& model,
                                 const char* label) {
  const Vec2 tx_pos{123.25, -7.5};
  const double tx_dbm = 15.0;
  const std::uint32_t tx_id = 3;
  const auto positions = edge_positions(tx_pos);

  LinkBudgetKernel::Batch batch;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    batch.push(positions[i], static_cast<std::uint32_t>(i + 10));
  }
  LinkBudgetKernel::evaluate(model, tx_dbm, tx_pos, tx_id, batch);
  ASSERT_EQ(batch.size(), positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const double scalar = model.rx_power_dbm(
        tx_dbm, tx_pos, positions[i], tx_id,
        static_cast<std::uint32_t>(i + 10));
    // EXPECT_EQ on doubles is exact ==; this is the bit-identity
    // contract, not a tolerance check.
    EXPECT_EQ(batch.power_dbm[i], scalar)
        << label << " diverges at element " << i;
    const double d = link_distance_m(tx_pos, positions[i]);
    EXPECT_EQ(batch.distance_m[i], d)
        << label << " distance diverges at element " << i;
  }
}

TEST(LinkBudgetKernel, FriisBatchMatchesScalarBitwise) {
  expect_batch_matches_scalar(FriisModel{}, "Friis");
}

TEST(LinkBudgetKernel, LogDistanceBatchMatchesScalarBitwise) {
  expect_batch_matches_scalar(LogDistanceModel{}, "LogDistance");
}

TEST(LinkBudgetKernel, TwoRayBatchMatchesScalarBitwise) {
  expect_batch_matches_scalar(TwoRayGroundModel{}, "TwoRay");
}

TEST(LinkBudgetKernel, ShadowingBatchMatchesScalarBitwise) {
  for (const double sigma : {2.0, 6.0, 12.0}) {
    LogNormalShadowing m(std::make_unique<LogDistanceModel>(), sigma, 1234);
    expect_batch_matches_scalar(m, "LogNormalShadowing");
  }
}

TEST(LinkBudgetKernel, BaseClassBatchFallbackLoopsScalarOverride) {
  // A model that only implements the scalar virtual must still batch
  // correctly through the base-class default (one scalar call per
  // element) — custom models get batching for free, bit-identically.
  class Custom final : public PropagationModel {
   public:
    [[nodiscard]] double rx_power_dbm(double tx, Vec2 a, Vec2 b,
                                      std::uint32_t tx_id,
                                      std::uint32_t rx_id) const override {
      return tx - link_distance_m(a, b) * 0.25 -
             static_cast<double>(tx_id ^ rx_id);
    }
  };
  expect_batch_matches_scalar(Custom{}, "Custom");
}

// ----- max_range_m inversion under the batched kernel -----------------------
//
// The spatial index culls on "distance > max_range_m implies below
// floor". Re-prove it through the batch path: a 40x40 field of
// receivers placed just beyond the bound must all come back under the
// floor, for every model.

void expect_batched_cull_sound(const PropagationModel& m, const char* label) {
  const double tx_dbm = 15.0;
  const double floor_dbm = -98.0;
  const double r = m.max_range_m(tx_dbm, floor_dbm);
  ASSERT_TRUE(std::isfinite(r)) << label;
  ASSERT_GT(r, 0.0) << label;
  const Vec2 tx_pos{0.0, 0.0};
  LinkBudgetKernel::Batch batch;
  // 40x40 grid of link ids at distances fanned just beyond the bound —
  // the same id sweep the scalar inversion tests use, so the shadowing
  // hash sees every (tx, rx) pair the scenario harness would.
  for (std::uint32_t gx = 0; gx < 40; ++gx) {
    for (std::uint32_t gy = 0; gy < 40; ++gy) {
      const double angle = static_cast<double>(gx * 40 + gy) * 0.003927;
      const double factor = 1.0001 + static_cast<double>(gx) * 0.05;
      batch.push({tx_pos.x + r * factor * std::cos(angle),
                  tx_pos.y + r * factor * std::sin(angle)},
                 gx * 40 + gy + 1);
    }
  }
  LinkBudgetKernel::evaluate(m, tx_dbm, tx_pos, 0, batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_GT(batch.distance_m[i], r) << label << " element " << i;
    EXPECT_LT(batch.power_dbm[i], floor_dbm)
        << label << " leaks power beyond max_range_m at element " << i;
  }
}

TEST(LinkBudgetKernelMaxRange, FriisInversionHoldsBatched) {
  expect_batched_cull_sound(FriisModel{}, "Friis");
}

TEST(LinkBudgetKernelMaxRange, LogDistanceInversionHoldsBatched) {
  expect_batched_cull_sound(LogDistanceModel{}, "LogDistance");
}

TEST(LinkBudgetKernelMaxRange, TwoRayInversionHoldsBatched) {
  expect_batched_cull_sound(TwoRayGroundModel{}, "TwoRay");
}

TEST(LinkBudgetKernelMaxRange, ShadowingInversionHoldsBatchedAcrossSigma) {
  for (const double sigma : {2.0, 6.0, 12.0}) {
    LogNormalShadowing m(std::make_unique<LogDistanceModel>(), sigma, 77);
    expect_batched_cull_sound(m, "LogNormalShadowing");
  }
}

// ----- scenario-level fingerprint equivalence -------------------------------

// A mobile mesh with shadowing: live links go through the kernel on
// every transmission.
exp::ScenarioConfig scenario_config() {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 36;
  cfg.area_width_m = 900.0;
  cfg.area_height_m = 900.0;
  cfg.traffic.n_flows = 5;
  cfg.traffic.rate_pps = 4.0;
  cfg.warmup = sim::Time::seconds(3.0);
  cfg.traffic_time = sim::Time::seconds(8.0);
  cfg.shadowing_sigma_db = 6.0;
  cfg.mobility.max_speed_mps = 10.0;
  cfg.seed = 7;
  return cfg;
}

std::uint64_t run_fingerprint(exp::ScenarioConfig cfg, bool indexed,
                              WirelessChannel::Counters* counters) {
  cfg.spatial_index = indexed;
  exp::Scenario s(cfg);
  s.run();
  *counters = s.channel().counters();
  return exp::fingerprint(s.metrics());
}

TEST(LinkBudgetKernelEquivalence, ScenarioFingerprintFullScanVsIndexed) {
  // The per-pair scan evaluates every pair through the scalar model;
  // the indexed run culls, memoises and batches only live links
  // through the kernel. Both must agree bit for bit.
  const exp::ScenarioConfig cfg = scenario_config();
  WirelessChannel::Counters plain{}, fast{};
  const std::uint64_t fp_plain = run_fingerprint(cfg, false, &plain);
  const std::uint64_t fp_fast = run_fingerprint(cfg, true, &fast);
  EXPECT_EQ(fp_plain, fp_fast);
  EXPECT_EQ(plain.copies_delivered, fast.copies_delivered);
  EXPECT_EQ(plain.copies_dropped_floor, fast.copies_dropped_floor);
}

}  // namespace
}  // namespace wmn::phy
