// T5 — RTS/CTS ablation (extension experiment).
//
// The source papers run basic access; this table shows why that is the
// right default at 2 Mb/s with 512-byte packets: the RTS/CTS handshake
// suppresses hidden-terminal data collisions but its per-packet
// overhead (RTS + CTS + 2 SIFS per data frame) eats the savings at
// this payload size. Expected: fewer MAC retries with RTS, comparable
// or slightly lower PDR/throughput.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("T5", "RTS/CTS on/off at the congestion point", argc, argv);

  stats::Table table({"variant", "PDR", "delay (ms)", "thpt (kb/s)",
                      "MAC retries", "collisions"});

  const std::vector<core::Protocol> protocols{core::Protocol::kAodvFlood,
                                              core::Protocol::kClnlr};

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (core::Protocol p : protocols) {
    for (bool rts : {false, true}) {
      exp::ScenarioConfig cfg = base_config();
      cfg.traffic.rate_pps = 6.0;
      cfg.protocol = p;
      if (rts) cfg.mac.rts_threshold_bytes = 256;  // data yes, control no
      cells.push_back(sweep.add_cell(
          cfg, env.reps,
          core::protocol_name(p) + (rts ? " +RTS/CTS" : " (basic)")));
    }
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (core::Protocol p : protocols) {
    for (bool rts : {false, true}) {
      const auto reps = sweep.cell_metrics(*cell++);
      table.add_row(
          {core::protocol_name(p) + (rts ? " +RTS/CTS" : " (basic)"),
           exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3),
           exp::ci_str(
               reps, [](const exp::RunMetrics& m) { return m.mean_delay_ms; }, 0),
           exp::ci_str(
               reps, [](const exp::RunMetrics& m) { return m.throughput_kbps; },
               0),
           exp::ci_str(
               reps,
               [](const exp::RunMetrics& m) {
                 return static_cast<double>(m.mac_retries);
               },
               0),
           exp::ci_str(
               reps,
               [](const exp::RunMetrics& m) {
                 return static_cast<double>(m.phy_collisions);
               },
               0)});
    }
  }
  return finish(table, "t5_rts.csv", sweep, env);
}
