// Radio propagation (path-loss) models.
//
// A model maps (tx power, link distance, link identity) to received
// power in dBm. Link identity (the unordered node-id pair) lets the
// shadowing wrapper draw a per-link offset that is deterministic for a
// given master seed and symmetric (reciprocal links fade identically),
// which keeps runs reproducible and unicast/ACK behaviour consistent.
//
// Each model has exactly one path-loss function, power_dbm(). Every
// caller (the channel's per-pair scan, its neighbour cache and its live
// links, the tests) reaches it through link_distance_m(), so the
// memoised and the per-transmission budgets are the same IEEE-754
// operations on the same inputs and agree bit for bit.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "mobility/vec2.hpp"

namespace wmn::phy {

// The one distance function every propagation path uses: straight-line
// Euclidean distance floored to a few centimetres so co-located nodes
// cannot produce infinite receive power. sqrt(dx^2 + dy^2) rather than
// std::hypot: sqrt is correctly rounded on every platform, hypot only
// nearly so. Mesh coordinates are O(km), far from the overflow regime
// hypot exists to handle.
[[nodiscard]] inline double link_distance_m(mobility::Vec2 a,
                                            mobility::Vec2 b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double d = std::sqrt(dx * dx + dy * dy);
  return d < 0.05 ? 0.05 : d;
}

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  // Received power over a link of `distance_m` (already floored by
  // link_distance_m) from node tx_id to node rx_id.
  [[nodiscard]] virtual double power_dbm(double tx_power_dbm,
                                         double distance_m,
                                         std::uint32_t tx_id,
                                         std::uint32_t rx_id) const = 0;

  // Received power between two positions.
  [[nodiscard]] double rx_power_dbm(double tx_power_dbm, mobility::Vec2 tx_pos,
                                    mobility::Vec2 rx_pos, std::uint32_t tx_id,
                                    std::uint32_t rx_id) const {
    return power_dbm(tx_power_dbm, link_distance_m(tx_pos, rx_pos), tx_id,
                     rx_id);
  }

  // Inverse of the path-loss curve: a distance R such that for EVERY
  // pair of positions farther apart than R and every link identity,
  // rx_power_dbm(tx_power_dbm, ...) < floor_dbm. The bound must be
  // conservative (it may overestimate the true range) but never tight
  // the wrong way — the spatial index culls receivers beyond R without
  // evaluating the model, and a false cull would change delivered sets.
  // Models that cannot bound themselves return +infinity, which makes
  // the index gather every receiver as a candidate.
  [[nodiscard]] virtual double max_range_m(double tx_power_dbm,
                                           double floor_dbm) const {
    (void)tx_power_dbm;
    (void)floor_dbm;
    return std::numeric_limits<double>::infinity();
  }
};

// Free-space (Friis) model: PL(d) = 20 log10(4 pi d f / c).
class FriisModel final : public PropagationModel {
 public:
  explicit FriisModel(double frequency_hz = 2.4e9, double system_loss_db = 0.0);

  [[nodiscard]] double power_dbm(double tx_power_dbm, double distance_m,
                                 std::uint32_t, std::uint32_t) const override;

  [[nodiscard]] double max_range_m(double tx_power_dbm,
                                   double floor_dbm) const override;

 private:
  double frequency_hz_;
  double system_loss_db_;
};

// Log-distance model: PL(d) = PL(d0) + 10 n log10(d / d0).
// The workhorse model for urban mesh deployments; defaults are
// calibrated so that with 15 dBm TX and -85 dBm sensitivity the
// communication range is ~250 m and the detection range ~480 m — the
// classic ns-2 two-range setup WMN papers assume.
class LogDistanceModel final : public PropagationModel {
 public:
  explicit LogDistanceModel(double exponent = 2.5, double reference_distance_m = 1.0,
                            double reference_loss_db = 40.0);

  [[nodiscard]] double power_dbm(double tx_power_dbm, double distance_m,
                                 std::uint32_t, std::uint32_t) const override;

  [[nodiscard]] double max_range_m(double tx_power_dbm,
                                   double floor_dbm) const override;

 private:
  double exponent_;
  double reference_distance_m_;
  double reference_loss_db_;
};

// Two-ray ground-reflection model with Friis crossover below the
// critical distance dc = 4 pi ht hr / lambda.
class TwoRayGroundModel final : public PropagationModel {
 public:
  TwoRayGroundModel(double frequency_hz = 2.4e9, double antenna_height_m = 1.5);

  [[nodiscard]] double power_dbm(double tx_power_dbm, double distance_m,
                                 std::uint32_t, std::uint32_t) const override;

  // Max of the two regimes' inversions: beyond both, whichever piece
  // applies at a given distance is below the floor.
  [[nodiscard]] double max_range_m(double tx_power_dbm,
                                   double floor_dbm) const override;

 private:
  FriisModel friis_;
  double frequency_hz_;
  double antenna_height_m_;
};

// Decorator adding static log-normal shadowing: a per-link Gaussian
// offset with the given sigma, derived by hashing the unordered link
// pair with the seed (deterministic, reciprocal, reproducible).
class LogNormalShadowing final : public PropagationModel {
 public:
  LogNormalShadowing(std::unique_ptr<PropagationModel> inner, double sigma_db,
                     std::uint64_t seed);

  // The inner model's power plus the per-link offset. The offset is a
  // pure function of (seed, link id pair): no draw order, no shared
  // stream, so a memoised budget equals a freshly evaluated one.
  [[nodiscard]] double power_dbm(double tx_power_dbm, double distance_m,
                                 std::uint32_t tx_id,
                                 std::uint32_t rx_id) const override;

  // Inner range at a floor lowered by kSigmaBound * sigma. The offset
  // is one Marsaglia-polar normal draw from RngStream: |z| is provably
  // < sqrt(-2 ln s_min) with s_min = 2^-104 (u, v are multiples of
  // 2^-52 and s = 0 is rejected), i.e. |z| < 12.01 — so a 12.5-sigma
  // pad makes the cull exact, not merely probable. The pad is large in
  // distance terms (sigma 6 dB inflates a log-distance range ~1000x),
  // so shadowed runs mostly gather every receiver — correct first,
  // fast where provable.
  static constexpr double kSigmaBound = 12.5;

  [[nodiscard]] double max_range_m(double tx_power_dbm,
                                   double floor_dbm) const override;

 private:
  [[nodiscard]] double link_offset_db(std::uint32_t a, std::uint32_t b) const;

  std::unique_ptr<PropagationModel> inner_;
  double sigma_db_;
  std::uint64_t seed_;
};

}  // namespace wmn::phy
