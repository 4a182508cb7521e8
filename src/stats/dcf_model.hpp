// Analytical saturation model of the DCF MAC (Bianchi 2000).
//
// The source research group pairs every simulation study with an
// analytical performance model; this is the matching one for our MAC.
// Under saturation (every station always has a frame) in a single
// collision domain, the per-station transmission probability tau and
// conditional collision probability p solve the fixed point
//
//   tau = 2(1-2p) / ((1-2p)(W+1) + p W (1-(2p)^m))
//   p   = 1 - (1-tau)^(n-1)
//
// with W = CWmin+1 and m backoff stages (n = 1 gives p = 0 and
// tau = 2/(W+1)); aggregate throughput follows from the slot-time
// decomposition. `DcfModelValidation` (tests/test_dcf_model.cpp) holds
// the simulator's MAC within 5% of it up to 25 stations, and within 1%
// up to 3; `bench_a1_analytic` prints the table.
#pragma once

#include <cstdint>

namespace wmn::stats {

struct DcfModelParams {
  std::uint32_t n_stations = 10;
  std::uint32_t cw_min = 31;   // W-1, as configured in mac::MacConfig
  std::uint32_t cw_max = 1023;
  double bit_rate_bps = 2e6;
  double payload_bytes = 512;
  double mac_header_bytes = 28;
  double ack_bytes = 14;
  double preamble_s = 192e-6;
  double slot_s = 20e-6;
  double sifs_s = 10e-6;
  double difs_s = 50e-6;
  double ack_timeout_slack_s = 60e-6;
};

struct DcfModelResult {
  double tau = 0.0;            // per-station TX probability per slot
  double p_collision = 0.0;    // conditional collision probability
  double throughput_bps = 0.0; // aggregate delivered payload bits/s
  double ts_s = 0.0;           // successful-exchange duration
  double tc_s = 0.0;           // collision duration
  int iterations = 0;          // fixed-point iterations used
};

// Solve the fixed point by damped iteration; converges for all
// physically meaningful parameters.
[[nodiscard]] DcfModelResult solve_dcf_saturation(const DcfModelParams& params);

}  // namespace wmn::stats
