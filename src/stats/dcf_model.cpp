#include "stats/dcf_model.hpp"

#include <cmath>

#include "core/check.hpp"

namespace wmn::stats {

namespace {
double tau_of_p(double p, double w, double m) {
  // Bianchi eq. (7) with W = CWmin+1 and m backoff stages.
  const double num = 2.0 * (1.0 - 2.0 * p);
  const double den = (1.0 - 2.0 * p) * (w + 1.0) +
                     p * w * (1.0 - std::pow(2.0 * p, m));
  return num / den;
}
}  // namespace

DcfModelResult solve_dcf_saturation(const DcfModelParams& params) {
  WMN_CHECK_GE(params.n_stations, 1u, "Bianchi model needs a station");
  DcfModelResult r;
  const double n = static_cast<double>(params.n_stations);
  const double w = static_cast<double>(params.cw_min) + 1.0;
  const double m = std::log2((static_cast<double>(params.cw_max) + 1.0) / w);

  // Damped fixed-point iteration on p. A lone station never collides:
  // p = 0 is its fixed point at once, so tau = 2 / (CWmin + 2).
  double p = params.n_stations > 1 ? 0.1 : 0.0;
  double tau = 0.0;
  int it = 0;
  for (; it < 10000; ++it) {
    tau = tau_of_p(p, w, m);
    const double p_next = 1.0 - std::pow(1.0 - tau, n - 1.0);
    if (std::abs(p_next - p) < 1e-12) {
      p = p_next;
      break;
    }
    p = 0.5 * p + 0.5 * p_next;
  }
  r.tau = tau;
  r.p_collision = p;
  r.iterations = it;

  // Slot-time decomposition.
  const double p_tr = 1.0 - std::pow(1.0 - tau, n);
  const double p_s = p_tr <= 0.0
                         ? 0.0
                         : n * tau * std::pow(1.0 - tau, n - 1.0) / p_tr;

  const double t_data = params.preamble_s +
                        (params.payload_bytes + params.mac_header_bytes) * 8.0 /
                            params.bit_rate_bps;
  const double t_ack =
      params.preamble_s + params.ack_bytes * 8.0 / params.bit_rate_bps;
  // Success: DATA + SIFS + ACK + DIFS. Collision: DATA + full ACK
  // timeout + DIFS (our MAC waits the whole timeout before retrying).
  r.ts_s = t_data + params.sifs_s + t_ack + params.difs_s;
  r.tc_s = t_data + params.sifs_s + t_ack + params.ack_timeout_slack_s +
           params.difs_s;

  const double payload_bits = params.payload_bytes * 8.0;
  const double denom = (1.0 - p_tr) * params.slot_s + p_tr * p_s * r.ts_s +
                       p_tr * (1.0 - p_s) * r.tc_s;
  r.throughput_bps = denom <= 0.0 ? 0.0 : p_tr * p_s * payload_bits / denom;
  return r;
}

}  // namespace wmn::stats
