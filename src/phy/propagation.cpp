#include "phy/propagation.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/check.hpp"
#include "phy/units.hpp"
#include "sim/rng.hpp"

namespace wmn::phy {

// --- Friis ------------------------------------------------------------

FriisModel::FriisModel(double frequency_hz, double system_loss_db)
    : frequency_hz_(frequency_hz), system_loss_db_(system_loss_db) {
  WMN_CHECK_GT(frequency_hz, 0.0, "carrier frequency must be positive");
}

double FriisModel::power_dbm(double tx_power_dbm, double distance_m,
                             std::uint32_t, std::uint32_t) const {
  const double lambda = kSpeedOfLight / frequency_hz_;
  const double pl_db =
      20.0 * std::log10(4.0 * std::numbers::pi * distance_m / lambda) +
      system_loss_db_;
  return tx_power_dbm - pl_db;
}

double FriisModel::max_range_m(double tx_power_dbm, double floor_dbm) const {
  // tx - 20 log10(4 pi d / lambda) - L >= floor  <=>
  // d <= lambda / (4 pi) * 10^((tx - L - floor) / 20).
  const double lambda = kSpeedOfLight / frequency_hz_;
  return lambda / (4.0 * std::numbers::pi) *
         std::pow(10.0, (tx_power_dbm - system_loss_db_ - floor_dbm) / 20.0);
}

// --- Log-distance -------------------------------------------------------

LogDistanceModel::LogDistanceModel(double exponent, double reference_distance_m,
                                   double reference_loss_db)
    : exponent_(exponent),
      reference_distance_m_(reference_distance_m),
      reference_loss_db_(reference_loss_db) {
  WMN_CHECK(exponent > 0.0 && reference_distance_m > 0.0,
            "log-distance model needs positive exponent and reference");
}

double LogDistanceModel::power_dbm(double tx_power_dbm, double distance_m,
                                   std::uint32_t, std::uint32_t) const {
  const double dc = std::max(distance_m, reference_distance_m_);
  const double pl_db =
      reference_loss_db_ + 10.0 * exponent_ * std::log10(dc / reference_distance_m_);
  return tx_power_dbm - pl_db;
}

double LogDistanceModel::max_range_m(double tx_power_dbm,
                                     double floor_dbm) const {
  // Power is constant for d <= d0 and strictly decreasing beyond, so
  // the inversion is exact. A result below d0 means even the clamped
  // near-field power sits under the floor: nothing is in range.
  return reference_distance_m_ *
         std::pow(10.0, (tx_power_dbm - reference_loss_db_ - floor_dbm) /
                            (10.0 * exponent_));
}

// --- Two-ray ground -----------------------------------------------------

TwoRayGroundModel::TwoRayGroundModel(double frequency_hz, double antenna_height_m)
    : friis_(frequency_hz, 0.0),
      frequency_hz_(frequency_hz),
      antenna_height_m_(antenna_height_m) {
  WMN_CHECK_GT(antenna_height_m, 0.0, "antenna height must be positive");
}

double TwoRayGroundModel::power_dbm(double tx_power_dbm, double d,
                                    std::uint32_t tx_id,
                                    std::uint32_t rx_id) const {
  const double lambda = kSpeedOfLight / frequency_hz_;
  const double dc = 4.0 * std::numbers::pi * antenna_height_m_ * antenna_height_m_ /
                    lambda;
  if (d < dc) return friis_.power_dbm(tx_power_dbm, d, tx_id, rx_id);
  // Pr = Pt * ht^2 hr^2 / d^4 (both antennas at the same height).
  const double h2 = antenna_height_m_ * antenna_height_m_;
  const double gain_lin = (h2 * h2) / (d * d * d * d);
  return tx_power_dbm + linear_to_db(gain_lin);
}

double TwoRayGroundModel::max_range_m(double tx_power_dbm,
                                      double floor_dbm) const {
  // Beyond max(r_friis, r_ground) both pieces are below the floor, so
  // whichever side of the crossover a distance falls on, it is out of
  // range. r_ground from Pt * h^4 / d^4 >= floor (linear):
  // d <= h * 10^((tx - floor) / 40).
  const double r_friis = friis_.max_range_m(tx_power_dbm, floor_dbm);
  const double r_ground =
      antenna_height_m_ * std::pow(10.0, (tx_power_dbm - floor_dbm) / 40.0);
  return std::max(r_friis, r_ground);
}

// --- Log-normal shadowing -------------------------------------------------

LogNormalShadowing::LogNormalShadowing(std::unique_ptr<PropagationModel> inner,
                                       double sigma_db, std::uint64_t seed)
    : inner_(std::move(inner)), sigma_db_(sigma_db), seed_(seed) {
  WMN_CHECK(inner_ != nullptr && sigma_db >= 0.0,
            "shadowing wraps an inner model with non-negative sigma");
}

double LogNormalShadowing::link_offset_db(std::uint32_t a, std::uint32_t b) const {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  const std::uint64_t link = (static_cast<std::uint64_t>(lo) << 32) | hi;
  // One Gaussian draw from a stream keyed by (seed, link); the stream
  // is recreated per call, which is cheap (a few integer mixes) and
  // guarantees the offset is a pure function of (seed, link).
  sim::RngStream rng(seed_, link ^ 0x5AD0'0000'0000'0001ULL);
  return rng.normal(0.0, sigma_db_);
}

double LogNormalShadowing::power_dbm(double tx_power_dbm, double distance_m,
                                     std::uint32_t tx_id,
                                     std::uint32_t rx_id) const {
  return inner_->power_dbm(tx_power_dbm, distance_m, tx_id, rx_id) +
         link_offset_db(tx_id, rx_id);
}

double LogNormalShadowing::max_range_m(double tx_power_dbm,
                                       double floor_dbm) const {
  // The per-link offset is provably inside +-kSigmaBound * sigma (see
  // the header), so any pair whose *inner* power is below
  // floor - kSigmaBound * sigma is below floor after shadowing too.
  return inner_->max_range_m(tx_power_dbm,
                             floor_dbm - kSigmaBound * sigma_db_);
}

}  // namespace wmn::phy
