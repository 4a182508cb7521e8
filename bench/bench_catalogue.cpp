// The experiment catalogue: every sweep figure and table of
// EXPERIMENTS.md as a view over one shared sweep.
//
//   bench_catalogue            render every figure
//   bench_catalogue F2 T3 ...  render only these (an unknown id exits 1
//                              before any slot runs)
//
// A figure is a grid of rows. A row holds its label cells and one
// config per column group (one per protocol in a series, a single one
// in a summary table); each config fills one cell per column. The
// chosen figures' configs all go into one exp::SweepEngine, which runs
// each distinct (config, rep) once, seeds rep r of every config at
// replication_seed(cfg.seed, r), and so gives the protocols at a point
// the same topologies and flows. A figure's numbers thus do not depend
// on which other figures ran with it.
//
// Outputs, under ${WMN_RESULTS_DIR:-results}: each figure's CSV, the
// per-slot record JOURNAL_catalogue.jsonl (one line per clean distinct
// slot) and SWEEP_catalogue.json (slot totals and failure kinds).
// WMN_CHECK runs under kLogAndCount, so a replication that trips an
// invariant or throws becomes a failed slot instead of killing the
// campaign. The exit code is 1 on any failed slot, unwritable CSV,
// summary or record (docs/TOOLING.md).
//
// Environment: WMN_REPS (replications per config, default 2),
// WMN_THREADS (workers, default hardware concurrency), WMN_QUICK
// (15 s traffic time for smoke runs).
#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/check.hpp"

namespace {

using namespace wmnbench;
using exp::RunMetrics;
using exp::ScenarioConfig;

struct Column {
  std::string header;  // a series prefixes it with the protocol name
  exp::MetricFn metric;
  int precision = 0;
  bool mean_only = false;  // print the mean alone, without the CI
  // When set, the cell averages only the reps it holds for, and reads
  // n/a when it holds for none.
  std::function<bool(const RunMetrics&)> defined_for = {};
};

template <auto Field>
Column col(std::string header, int precision) {
  return {std::move(header),
          [](const RunMetrics& m) { return static_cast<double>(m.*Field); },
          precision};
}

struct Row {
  std::vector<std::string> labels;
  std::vector<ScenarioConfig> cells;  // one per column group
};

struct Figure {
  std::string id;
  std::string title;
  std::string csv;
  std::vector<std::string> label_headers;
  std::vector<std::string> groups;  // column-group names; {""} in a table
  std::vector<Column> columns;      // repeated once per group
  std::vector<Row> rows;
};

// One row per point, one column group per protocol at that point.
Figure series(Figure f, const std::vector<core::Protocol>& protocols,
              const std::vector<Row>& points) {
  for (core::Protocol p : protocols) f.groups.push_back(core::protocol_name(p));
  for (const Row& point : points) {
    Row row{point.labels, {}};
    for (core::Protocol p : protocols) {
      row.cells.push_back(point.cells.front());
      row.cells.back().protocol = p;
    }
    f.rows.push_back(std::move(row));
  }
  return f;
}

// One row per config.
Figure table(Figure f, std::vector<Row> rows) {
  f.groups = {""};
  f.rows = std::move(rows);
  return f;
}

// One row per protocol, labelled with its name.
std::vector<Row> per_protocol(const ScenarioConfig& cfg,
                              const std::vector<core::Protocol>& protocols) {
  std::vector<Row> rows;
  for (core::Protocol p : protocols) {
    rows.push_back({{core::protocol_name(p)}, {cfg}});
    rows.back().cells.front().protocol = p;
  }
  return rows;
}

std::vector<Figure> catalogue() {
  using P = core::Protocol;
  using M = RunMetrics;
  const auto& headline = core::headline_protocols();
  const auto num = [](double v, int precision) {
    return stats::Table::num(v, precision);
  };

  // The congestion operating point: 100 nodes, 10 flows, 6 pkt/s, just
  // past the knee where the protocols differentiate.
  ScenarioConfig ref = base_config();
  ref.traffic.rate_pps = 6.0;

  std::vector<Row> by_nodes;  // density at fixed area
  for (std::size_t n : {50u, 100u, 150u, 200u}) {
    by_nodes.push_back({{std::to_string(n)}, {ref}});
    by_nodes.back().cells.front().n_nodes = n;
  }
  std::vector<Row> by_rate;  // offered load per flow
  std::vector<Row> by_rate_offered;
  for (double rate : {2.0, 4.0, 6.0, 8.0, 12.0}) {
    ScenarioConfig cfg = base_config();
    cfg.traffic.rate_pps = rate;
    const double offered_kbps = rate * static_cast<double>(cfg.traffic.n_flows) *
                                cfg.traffic.packet_bytes * 8.0 / 1e3;
    by_rate.push_back({{num(rate, 0)}, {cfg}});
    by_rate_offered.push_back({{num(rate, 0), num(offered_kbps, 0)}, {cfg}});
  }
  std::vector<Row> by_flows;
  for (std::size_t flows : {5u, 10u, 15u, 20u, 25u}) {
    by_flows.push_back({{std::to_string(flows)}, {ref}});
    by_flows.back().cells.front().traffic.n_flows = flows;
  }
  std::vector<Row> by_speed;  // random-waypoint maximum speed
  for (double speed : {0.0, 5.0, 10.0, 20.0}) {
    by_speed.push_back({{num(speed, 0)}, {ref}});
    by_speed.back().cells.front().mobility.max_speed_mps = speed;
  }
  // Router churn in crashes per minute across the mesh, ~10 s mean
  // downtime, with the graceful-degradation features on in every cell.
  std::vector<Row> by_churn;
  for (double per_min : {0.0, 2.0, 6.0, 12.0}) {
    ScenarioConfig cfg = base_config();
    cfg.options.aodv.graceful_degradation = true;
    if (per_min > 0.0) {
      cfg.fault.churn.rate_per_s = per_min / 60.0;
      cfg.fault.churn.mean_downtime = sim::Time::seconds(10.0);
      cfg.fault.churn.start = cfg.warmup;
      cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
    }
    by_churn.push_back({{num(per_min, 0)}, {cfg}});
  }

  ScenarioConfig gateway = ref;  // 12 flows into the nearest of 2 gateways
  gateway.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
  gateway.traffic.n_gateways = 2;
  gateway.traffic.n_flows = 12;

  // F11: each source aggregates ~1000 users' Poisson sessions of
  // Pareto size into the nearest of 3 gateways, flows joining over time.
  std::vector<Row> by_sessions;
  for (double rate : {0.001, 0.002, 0.004, 0.008}) {
    for (P p : {P::kClnlr, P::kAodvFlood}) {
      ScenarioConfig cfg = base_config();
      cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
      cfg.traffic.n_gateways = 3;
      cfg.traffic.n_flows = 12;
      cfg.traffic.model = exp::TrafficSpec::Model::kSessions;
      cfg.traffic.users_per_node = 1000;
      cfg.traffic.session_rate_per_user_per_s = rate;
      cfg.traffic.session_rate_pps = 16.0;
      cfg.traffic.mean_session_pkts = 20.0;
      cfg.traffic.mean_arrival_gap_s = 1.0;
      cfg.protocol = p;
      by_sessions.push_back({{num(rate, 3), core::protocol_name(p)}, {cfg}});
    }
  }

  // T4: CLNLR's design choices (DESIGN.md's ablations beyond RD/RS).
  ScenarioConfig clnlr = ref;
  clnlr.protocol = P::kClnlr;
  std::vector<Row> variants;
  for (double p_min : {0.2, 0.35, 0.5, 0.65}) {
    variants.push_back({{"p_min=" + num(p_min, 2)}, {clnlr}});
    variants.back().cells.front().options.clnlr.p_min = p_min;
  }
  // The reply window is not a config knob; CLNLR-RD is CLNLR with
  // window 0 (first-arrival selection).
  variants.push_back({{"reply window=0 (CLNLR-RD)"}, {clnlr}});
  variants.back().cells.front().protocol = P::kClnlrRdOnly;
  variants.push_back({{"with expanding-ring RREQ"}, {clnlr}});
  variants.back().cells.front().options.aodv.expanding_ring = true;
  variants.push_back({{"AODV-BF + expanding-ring"}, {clnlr}});
  variants.back().cells.front().protocol = P::kAodvFlood;
  variants.back().cells.front().options.aodv.expanding_ring = true;

  // T5: RTS/CTS for data frames (256 B threshold: control stays basic).
  std::vector<Row> rts_rows;
  for (P p : {P::kAodvFlood, P::kClnlr}) {
    for (bool rts : {false, true}) {
      rts_rows.push_back(
          {{core::protocol_name(p) + (rts ? " +RTS/CTS" : " (basic)")}, {ref}});
      rts_rows.back().cells.front().protocol = p;
      if (rts) rts_rows.back().cells.front().mac.rts_threshold_bytes = 256;
    }
  }

  const double window_s = ref.warmup.to_seconds() + ref.traffic_time.to_seconds();
  const Column rreq_per_s{
      " RREQ/s",
      [window_s](const M& m) { return static_cast<double>(m.rreq_tx) / window_s; },
      1};
  // A rep that sent nothing inside a fault window has no outage PDR.
  Column pdr_outage = col<&M::pdr_during_outage>(" PDR-outage", 3);
  pdr_outage.defined_for = [](const M& m) { return m.sent_during_outage > 0; };
  const Column fwd_total{
      "fwd total",
      [](const M& m) {
        double total = 0.0;
        for (double f : m.per_node_forwarded) total += f;
        return total;
      },
      0, true};

  return {
      series({"F1", "RREQ transmissions per discovery vs nodes",
              "f1_overhead_nodes.csv", {"nodes"}, {},
              {col<&M::rreq_per_discovery>("", 1)}, {}},
             headline, by_nodes),
      series({"F2", "packet delivery ratio vs nodes", "f2_pdr_nodes.csv",
              {"nodes"}, {}, {col<&M::pdr>("", 3)}, {}},
             headline, by_nodes),
      series({"F3", "mean end-to-end delay vs offered load", "f3_delay_load.csv",
              {"pkt/s per flow"}, {}, {col<&M::mean_delay_ms>(" (ms)", 0)}, {}},
             headline, by_rate),
      series({"F4", "aggregate throughput vs offered load",
              "f4_throughput_load.csv", {"pkt/s per flow", "offered (kb/s)"}, {},
              {col<&M::throughput_kbps>(" (kb/s)", 0)}, {}},
             headline, by_rate_offered),
      series({"F5", "packet delivery ratio vs flow count", "f5_pdr_flows.csv",
              {"flows"}, {}, {col<&M::pdr>("", 3)}, {}},
             headline, by_flows),
      series({"F6", "normalized routing load vs nodes", "f6_nrl_nodes.csv",
              {"nodes"}, {},
              {col<&M::nrl>(" NRL", 1), col<&M::nrl_on_demand>(" (no hello)", 1)},
              {}},
             headline, by_nodes),
      series({"F7", "PDR and overhead vs max node speed (RWP)",
              "f7_mobility.csv", {"max speed (m/s)"}, {},
              {col<&M::pdr>(" PDR", 3), rreq_per_s}, {}},
             headline, by_speed),
      series({"F7b", "velocity-aware discovery vs mobility",
              "f7b_vap_mobility.csv", {"max speed (m/s)"}, {},
              {col<&M::pdr>(" PDR", 3), col<&M::rreq_tx>(" RREQ tx", 0)}, {}},
             {P::kAodvFlood, P::kAodvGossip, P::kAodvVap, P::kClnlr}, by_speed),
      table({"F8", "forwarding-load balance, gateway traffic",
             "f8_load_balance.csv", {"protocol"}, {},
             {col<&M::forwarding_jain>("Jain (active)", 3),
              col<&M::forwarding_peak_to_mean>("peak/mean", 2),
              col<&M::forwarding_active_nodes>("active nodes", 0),
              col<&M::pdr>("PDR", 3), col<&M::mean_delay_ms>("delay (ms)", 0),
              fwd_total},
             {}},
            per_protocol(gateway, headline)),
      table({"F9", "energy per delivered kilobit", "f9_energy.csv",
             {"protocol"}, {},
             {col<&M::total_energy_j>("total J", 0),
              col<&M::mean_node_energy_j>("J/node", 1),
              col<&M::energy_mj_per_kbit>("mJ/kbit", 1), col<&M::pdr>("PDR", 3)},
             {}},
            per_protocol(ref, headline)),
      series({"F10", "PDR and recovery latency vs node churn",
              "f10_resilience.csv", {"churn (/min)"}, {},
              {col<&M::pdr>(" PDR", 3), pdr_outage,
               col<&M::route_recovery_mean_ms>(" recovery ms", 1),
               col<&M::nrl>(" NRL", 2)},
              {}},
             {P::kAodvFlood, P::kClnlr}, by_churn),
      table({"F11", "gateway aggregation: fairness vs session load",
             "f11_gateway_load.csv", {"sess/user/s", "protocol"}, {},
             {col<&M::pdr>("PDR", 3), col<&M::mean_delay_ms>("delay (ms)", 0),
              col<&M::gateway_jain>("gw Jain", 3),
              col<&M::gateway_load_variance>("gw variance", 0),
              col<&M::sessions_started>("sessions", 0),
              col<&M::sessions_rejected>("rejected", 0)},
             {}},
            by_sessions),
      table({"T2", "protocol summary at the reference point", "t2_summary.csv",
             {"protocol"}, {},
             {col<&M::pdr>("PDR", 3), col<&M::mean_delay_ms>("delay (ms)", 0),
              col<&M::throughput_kbps>("thpt (kb/s)", 0),
              col<&M::rreq_per_discovery>("RREQ/disc", 1), col<&M::nrl>("NRL", 1),
              col<&M::phy_collisions>("collisions", 0),
              col<&M::mac_queue_drops>("q-drops", 0)},
             {}},
            per_protocol(ref, core::all_protocols())),
      table({"T3", "CLNLR ablation at the reference point", "t3_ablation.csv",
             {"protocol"}, {},
             {col<&M::pdr>("PDR", 3), col<&M::mean_delay_ms>("delay (ms)", 0),
              col<&M::rreq_tx>("RREQ tx", 0),
              col<&M::rreq_per_discovery>("RREQ/disc", 1), col<&M::nrl>("NRL", 1),
              col<&M::phy_collisions>("collisions", 0),
              col<&M::avg_path_hops>("avg hops", 1)},
             {}},
            per_protocol(ref, {P::kAodvFlood, P::kClnlrRdOnly, P::kClnlrRsOnly,
                               P::kClnlr})),
      table({"T4", "CLNLR design-choice sensitivity", "t4_sensitivity.csv",
             {"variant"}, {},
             {col<&M::pdr>("PDR", 3), col<&M::mean_delay_ms>("delay (ms)", 0),
              col<&M::rreq_tx>("RREQ tx", 0), col<&M::nrl>("NRL", 1),
              col<&M::phy_collisions>("collisions", 0)},
             {}},
            variants),
      table({"T5", "RTS/CTS on/off at the congestion point", "t5_rts.csv",
             {"variant"}, {},
             {col<&M::pdr>("PDR", 3), col<&M::mean_delay_ms>("delay (ms)", 0),
              col<&M::throughput_kbps>("thpt (kb/s)", 0),
              col<&M::mac_retries>("MAC retries", 0),
              col<&M::phy_collisions>("collisions", 0)},
             {}},
            rts_rows),
  };
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += sep;
    out += part;
  }
  return out;
}

// Queues every cell of `f`; returns their sweep ids in row-major order.
std::vector<std::size_t> queue(const Figure& f, exp::SweepEngine& sweep,
                               std::size_t reps) {
  std::vector<std::size_t> ids;
  for (const Row& row : f.rows) {
    for (std::size_t g = 0; g < row.cells.size(); ++g) {
      std::string label = f.id + ": " + join(row.labels, ", ");
      if (!f.groups[g].empty()) label += ", " + f.groups[g];
      ids.push_back(sweep.add_cell(row.cells[g], reps, std::move(label)));
    }
  }
  return ids;
}

stats::Table render(const Figure& f, const exp::SweepEngine& sweep,
                    const std::vector<std::size_t>& ids) {
  std::vector<std::string> headers = f.label_headers;
  for (const std::string& group : f.groups) {
    for (const Column& c : f.columns) headers.push_back(group + c.header);
  }
  stats::Table table(std::move(headers));
  auto id = ids.cbegin();
  for (const Row& row : f.rows) {
    std::vector<std::string> cells = row.labels;
    for (std::size_t g = 0; g < row.cells.size(); ++g) {
      const std::vector<RunMetrics> all = sweep.cell_metrics(*id++);
      for (const Column& c : f.columns) {
        std::vector<RunMetrics> reps = all;
        if (c.defined_for) std::erase_if(reps, std::not_fn(c.defined_for));
        cells.push_back(c.mean_only && !reps.empty()
                            ? stats::Table::num(exp::ci(reps, c.metric).mean,
                                                c.precision)
                            : exp::ci_str(reps, c.metric, c.precision));
      }
    }
    table.add_row(std::move(cells));
  }
  return table;
}

// SWEEP_catalogue.json: slot totals and the per-FailureKind counts.
// Returns false when the file cannot be written.
[[nodiscard]] bool write_sweep_summary(const exp::SweepEngine& sweep) {
  const std::string path = results_path("SWEEP_catalogue.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[wmn] cannot write sweep summary %s\n", path.c_str());
    return false;
  }
  const exp::FailureCounts counts = sweep.failure_counts();
  std::fprintf(f, "{\"bench\":\"catalogue\",\"slots\":%zu,\"failed\":%zu,"
                  "\"counts\":{",
               sweep.task_count(), sweep.failed_count());
  for (std::size_t k = 0; k < exp::kFailureKindCount; ++k) {
    std::fprintf(f, "%s\"%s\":%zu", k == 0 ? "" : ",",
                 exp::failure_kind_name(static_cast<exp::FailureKind>(k)),
                 counts[k]);
  }
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "[wmn] cannot write sweep summary %s\n", path.c_str());
    return false;
  }
  std::cout << "[sweep summary written: " << path << "]\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  core::set_check_policy(core::CheckPolicy::kLogAndCount);
  const std::vector<Figure> all = catalogue();
  std::vector<const Figure*> chosen;
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Figure& f) { return f.id == argv[i]; });
    if (it == all.end()) {
      std::vector<std::string> ids;
      for (const Figure& f : all) ids.push_back(f.id);
      std::fprintf(stderr, "[wmn] catalogue: unknown figure '%s' (known: %s)\n",
                   argv[i], join(ids, " ").c_str());
      return 1;
    }
    chosen.push_back(&*it);
  }
  if (chosen.empty()) {
    for (const Figure& f : all) chosen.push_back(&f);
  }

  const std::size_t reps = exp::env_reps(2);
  const unsigned threads = exp::env_threads();
  exp::SweepEngine sweep(threads);
  std::vector<std::vector<std::size_t>> ids;
  std::vector<std::string> names;
  for (const Figure* f : chosen) {
    ids.push_back(queue(*f, sweep, reps));
    names.push_back(f->id);
  }
  std::cout << "\n=== catalogue: " << join(names, " ") << " ===\n"
            << "(replications per config: " << reps << ", threads: " << threads
            << ", distinct slots: " << sweep.task_count()
            << "; values are mean +-95% CI half-width)\n";

  // The record opens before any slot runs: one that cannot be opened or
  // written ends the run with exit 1, after the banner is flushed.
  sweep.enable_journal(results_path("JOURNAL_catalogue.jsonl"));
  std::cout.flush();
  try {
    sweep.run();
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "[wmn] catalogue: %s\n", e.what());
    return 1;
  }

  int rc = 0;
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    std::cout << "\n=== " << chosen[i]->id << ": " << chosen[i]->title
              << " ===\n\n";
    rc |= finish(render(*chosen[i], sweep, ids[i]), chosen[i]->csv);
  }
  std::cout << '\n';
  if (!write_sweep_summary(sweep)) rc = 1;
  if (sweep.failed_count() > 0) {
    std::cout << "\n[WARNING: " << sweep.failed_count() << " of "
              << sweep.task_count()
              << " replication(s) failed; their slots are excluded above]\n"
              << sweep.failure_report();
    rc = 1;
  }
  std::cout.flush();
  return rc;
}
