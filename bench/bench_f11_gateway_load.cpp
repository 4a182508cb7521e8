// F11 — gateway-aggregation production workload: PDR / delay / gateway
// fairness vs offered session load.
//
// Each source node aggregates the sessions of ~1000 users (Poisson
// session arrivals, Pareto session sizes) against 3 gateway hotspots;
// flows join the mesh over time via the seeded arrival process. The
// offered-load knob is the per-user session rate. Expected shape:
// AODV-BF (blind flood + hop count) funnels every source onto the
// shortest tree into its gateway, so as load rises one gateway
// neighbourhood saturates first — gateway Jain falls toward 1/K and
// the per-gateway load variance explodes while PDR collapses. CLNLR's
// neighbourhood-load routing detours around the hot gateway cells and
// degrades gracefully.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env =
      announce("F11", "gateway aggregation: fairness vs session load", argc, argv);

  // Per-user session arrivals per second; offered load per source is
  // users * rate * mean_session_pkts * packet_bytes.
  const std::vector<double> session_rates{0.001, 0.002, 0.004, 0.008};
  const std::vector<core::Protocol> protocols{core::Protocol::kClnlr,
                                              core::Protocol::kAodvFlood};

  auto f11_config = [](double session_rate, core::Protocol p) {
    exp::ScenarioConfig cfg = base_config();
    cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
    cfg.traffic.n_gateways = 3;
    cfg.traffic.n_flows = 12;
    cfg.traffic.model = exp::TrafficSpec::Model::kSessions;
    cfg.traffic.users_per_node = 1000;
    cfg.traffic.session_rate_per_user_per_s = session_rate;
    cfg.traffic.session_rate_pps = 16.0;
    cfg.traffic.mean_session_pkts = 20.0;
    cfg.traffic.mean_arrival_gap_s = 1.0;
    cfg.protocol = p;
    return cfg;
  };

  stats::Table table({"sess/user/s", "protocol", "PDR", "delay (ms)",
                      "gw Jain", "gw variance", "sessions", "rejected"});

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (double rate : session_rates) {
    for (core::Protocol p : protocols) {
      cells.push_back(sweep.add_cell(
          f11_config(rate, p), env.reps,
          stats::Table::num(rate, 3) + " sess/u/s, " + core::protocol_name(p)));
    }
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (double rate : session_rates) {
    for (core::Protocol p : protocols) {
      const auto reps = sweep.cell_metrics(*cell++);
      table.add_row(
          {stats::Table::num(rate, 3), core::protocol_name(p),
           exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3),
           exp::ci_str(
               reps, [](const exp::RunMetrics& m) { return m.mean_delay_ms; },
               0),
           exp::ci_str(
               reps, [](const exp::RunMetrics& m) { return m.gateway_jain; },
               3),
           exp::ci_str(
               reps,
               [](const exp::RunMetrics& m) { return m.gateway_load_variance; },
               0),
           exp::ci_str(
               reps,
               [](const exp::RunMetrics& m) {
                 return static_cast<double>(m.sessions_started);
               },
               0),
           exp::ci_str(
               reps,
               [](const exp::RunMetrics& m) {
                 return static_cast<double>(m.sessions_rejected);
               },
               0)});
    }
  }
  return finish(table, "f11_gateway_load.csv", sweep, env);
}
