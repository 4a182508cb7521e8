// Radio propagation (path-loss) models.
//
// A model maps (tx power, positions, link identity) to received power
// in dBm. Link identity (the unordered node-id pair) lets the shadowing
// wrapper draw a per-link offset that is deterministic for a given
// master seed and symmetric (reciprocal links fade identically), which
// keeps runs reproducible and unicast/ACK behaviour consistent.
//
// Besides the scalar per-pair query, every model evaluates whole
// batches of links against one transmitter (rx_power_dbm_batch). The
// batch contract is strict: for every element the batch output must be
// bit-identical to the scalar rx_power_dbm call — the channel mixes
// memoised (batch-computed) and per-transmission (also batch-computed)
// budgets freely and the determinism fingerprint would expose any ulp
// of divergence. The built-in models share one per-distance core
// between the scalar and batch paths so the identity holds by
// construction; the base-class default simply loops the scalar virtual,
// so third-party models inherit correctness (not speed) for free.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "mobility/vec2.hpp"

namespace wmn::phy {

// SoA view of one transmitter against a batch of candidate receivers.
// All arrays hold `n` elements and are caller-owned (see
// LinkBudgetKernel, which owns reusable buffers and fills
// `distance_m` before handing the view to the model).
struct LinkBatchView {
  double tx_power_dbm = 0.0;
  mobility::Vec2 tx_pos{};
  std::uint32_t tx_id = 0;
  std::size_t n = 0;
  const double* rx_x = nullptr;       // receiver positions
  const double* rx_y = nullptr;
  const std::uint32_t* rx_id = nullptr;  // receiver node ids (shadowing)
  const double* distance_m = nullptr;    // precomputed link_distance_m()
  double* out_power_dbm = nullptr;       // filled by the model
};

// The one distance function every propagation path uses: straight-line
// Euclidean distance floored to a few centimetres so co-located nodes
// cannot produce infinite receive power. sqrt(dx^2 + dy^2) rather than
// std::hypot: sqrt is a correctly-rounded single instruction, so the
// scalar loop and the auto-vectorised loop produce the same bits
// (hypot is only near-correctly rounded and is not vectorisable). Mesh coordinates are O(km), far from the
// overflow regime hypot exists to handle.
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

  [[nodiscard]] virtual double rx_power_dbm(double tx_power_dbm,
                                            mobility::Vec2 tx_pos,
                                            mobility::Vec2 rx_pos,
                                            std::uint32_t tx_id,
                                            std::uint32_t rx_id) const = 0;

  // Batch form: fill batch.out_power_dbm[i] for every element, bit-
  // identical to the scalar call on the same pair. The default loops
  // the scalar virtual (correct for any derived model); the built-in
  // models override with straight-line loops over batch.distance_m.
  virtual void rx_power_dbm_batch(const LinkBatchView& batch) const;

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

  [[nodiscard]] double rx_power_dbm(double tx_power_dbm, mobility::Vec2 tx_pos,
                                    mobility::Vec2 rx_pos, std::uint32_t,
                                    std::uint32_t) const override;

  void rx_power_dbm_batch(const LinkBatchView& batch) const override;

  [[nodiscard]] double max_range_m(double tx_power_dbm,
                                   double floor_dbm) const override;

  // Shared scalar core: received power at a (floored) distance. Public
  // because TwoRayGroundModel reuses it below its crossover distance.
  [[nodiscard]] double power_at(double tx_power_dbm, double d) const;

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

  [[nodiscard]] double rx_power_dbm(double tx_power_dbm, mobility::Vec2 tx_pos,
                                    mobility::Vec2 rx_pos, std::uint32_t,
                                    std::uint32_t) const override;

  void rx_power_dbm_batch(const LinkBatchView& batch) const override;

  [[nodiscard]] double max_range_m(double tx_power_dbm,
                                   double floor_dbm) const override;

  [[nodiscard]] double exponent() const { return exponent_; }

 private:
  [[nodiscard]] double power_at(double tx_power_dbm, double d) const;

  double exponent_;
  double reference_distance_m_;
  double reference_loss_db_;
};

// Two-ray ground-reflection model with Friis crossover below the
// critical distance dc = 4 pi ht hr / lambda.
class TwoRayGroundModel final : public PropagationModel {
 public:
  TwoRayGroundModel(double frequency_hz = 2.4e9, double antenna_height_m = 1.5);

  [[nodiscard]] double rx_power_dbm(double tx_power_dbm, mobility::Vec2 tx_pos,
                                    mobility::Vec2 rx_pos, std::uint32_t,
                                    std::uint32_t) const override;

  void rx_power_dbm_batch(const LinkBatchView& batch) const override;

  // Max of the two regimes' inversions: beyond both, whichever piece
  // applies at a given distance is below the floor.
  [[nodiscard]] double max_range_m(double tx_power_dbm,
                                   double floor_dbm) const override;

 private:
  [[nodiscard]] double power_at(double tx_power_dbm, double d) const;

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

  [[nodiscard]] double rx_power_dbm(double tx_power_dbm, mobility::Vec2 tx_pos,
                                    mobility::Vec2 rx_pos, std::uint32_t tx_id,
                                    std::uint32_t rx_id) const override;

  // Batches the inner model, then adds the per-link offset element-
  // wise. The offset is a pure function of (seed, link id pair) — no
  // draw order, no shared stream — which is exactly what makes the
  // shadowed budget batchable without breaking fingerprints.
  void rx_power_dbm_batch(const LinkBatchView& batch) const override;

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
