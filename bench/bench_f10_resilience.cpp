// F10 — resilience under node churn (fault-injection family).
//
// Routers crash and rejoin as a Poisson process while CBR flows run;
// the graceful-degradation features (local repair, RREP blacklist,
// RERR-to-precursors) are enabled for every cell so the figure shows
// what the protocols can do about failures, not just that failures
// hurt. Expected shape: PDR falls with churn rate for every protocol,
// PDR measured over packets sent during fault windows falls fastest,
// and CLNLR holds PDR at least as well as flooding AODV while keeping
// its overhead margin — load-aware route choice tends to pick
// better-connected (hence more failure-tolerant) neighbourhoods.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace wmnbench;
  const auto env = announce("F10", "PDR and recovery latency vs node churn", argc, argv);

  // Crash events per minute across the whole mesh; ~10 s mean downtime.
  const std::vector<double> churn_per_min{0.0, 2.0, 6.0, 12.0};
  const std::vector<core::Protocol> protocols{core::Protocol::kAodvFlood,
                                              core::Protocol::kClnlr};

  std::vector<std::string> cols{"churn (/min)"};
  for (core::Protocol p : protocols) {
    cols.push_back(core::protocol_name(p) + " PDR");
    cols.push_back(core::protocol_name(p) + " PDR-outage");
    cols.push_back(core::protocol_name(p) + " recovery ms");
    cols.push_back(core::protocol_name(p) + " NRL");
  }
  stats::Table table(cols);

  exp::SweepEngine sweep(env.threads);
  std::vector<std::size_t> cells;
  for (double rate : churn_per_min) {
    for (core::Protocol p : protocols) {
      exp::ScenarioConfig cfg = base_config();
      cfg.protocol = p;
      cfg.options.aodv.local_repair = true;
      cfg.options.aodv.rrep_blacklist = true;
      cfg.options.aodv.rerr_to_precursors = true;
      if (rate > 0.0) {
        cfg.fault.churn.rate_per_s = rate / 60.0;
        cfg.fault.churn.mean_downtime = sim::Time::seconds(10.0);
        cfg.fault.churn.start = cfg.warmup;
        cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
      }
      cells.push_back(sweep.add_cell(
          cfg, env.reps,
          stats::Table::num(rate, 0) + "/min, " + core::protocol_name(p)));
    }
  }
  run_sweep(sweep, env);

  auto cell = cells.cbegin();
  for (double rate : churn_per_min) {
    std::vector<std::string> row{stats::Table::num(rate, 0)};
    for ([[maybe_unused]] core::Protocol p : protocols) {
      const auto reps = sweep.cell_metrics(*cell++);
      row.push_back(
          exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.pdr; }, 3));
      row.push_back(exp::ci_str(
          reps, [](const exp::RunMetrics& m) { return m.pdr_during_outage; },
          3));
      row.push_back(exp::ci_str(
          reps, [](const exp::RunMetrics& m) { return m.route_recovery_mean_ms; },
          1));
      row.push_back(
          exp::ci_str(reps, [](const exp::RunMetrics& m) { return m.nrl; }, 2));
    }
    table.add_row(std::move(row));
  }
  return finish(table, "f10_resilience.csv", sweep, env);
}
