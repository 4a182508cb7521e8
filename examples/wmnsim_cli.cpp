// wmnsim — command-line scenario runner.
//
// Run any mesh scenario from flags, print the metrics table, and
// optionally export per-flow and time-series CSVs:
//
//   wmnsim_cli --nodes 100 --flows 10 --rate 6 --protocol clnlr
//              --seconds 30 --seed 42 --timeseries run.csv
//
// Flags (all optional):
//   --nodes N          mesh size                    (default 100)
//   --area W H         area in metres               (default 1000 1000)
//   --flows N          CBR flow count               (default 10)
//   --rate R           pkt/s per flow               (default 4)
//   --bytes B          payload bytes                (default 512)
//   --protocol NAME    bf|gossip|cb|vap|clnlr|clnlr-rd|clnlr-rs
//   --speed S          RWP max speed m/s, 0=static  (default 0)
//   --gateways K       gateway traffic to K gateways (default: random pairs)
//   --traffic NAME     cbr|onoff|heavytail|sessions (default cbr)
//   --users N          users aggregated per source  (sessions; default 1000)
//   --session-rate R   session arrivals per user/s  (sessions; default 0.002)
//   --arrival-gap T    mean flow-arrival gap in s, 0=all flows at start
//   --envelope SPEC    piecewise-linear arrival-rate envelope over the
//                      traffic window, as t:mult comma pairs, e.g.
//                      "0:1,10:1,12:8,20:8,22:1" for a flash crowd
//                      (scales session arrivals and --arrival-gap)
//   --seconds T        traffic time                 (default 30)
//   --event-budget N   abort (exit 3) after N simulated events —
//                      deterministic runaway guard
//   --seed X           master seed                  (default 1)
//   --rts B            RTS threshold bytes          (default off)
//   --churn R          router crashes per minute (seeded Poisson churn
//                      across the traffic window, ~10 s mean downtime)
//   --outage NODE T0 T1  crash NODE from T0 to T1 seconds (repeatable)
//   --repair           enable local repair + blacklist + precursor RERR
//   --no-spatial-index run the channel's per-pair reference scan, which
//                      never uses the range bound the index culls with
//                      (results are bit-identical; diagnostic only)
//   --timeseries FILE  write 1 Hz network time series CSV
//   --flows-csv FILE   write per-flow results CSV
//
// A malformed value (not a number, a negative or fractional count, an
// unknown name, a bad envelope, a non-positive --seconds, --area,
// --rate, --session-rate, --users or --gateways, a negative --speed,
// --churn or --arrival-gap, an --outage for a node outside the mesh or
// with T1 <= T0 or T0 < 0, an output file that cannot be written)
// prints a message and exits 1, as an unknown flag does.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/failure.hpp"
#include "exp/scenario.hpp"
#include "exp/timeseries.hpp"
#include "stats/table.hpp"

namespace {

[[noreturn]] void fail(const std::string& message) {
  std::cerr << message << " (see --help)\n";
  std::exit(1);
}

// The whole of `text` as a finite number.
double parse_number(const std::string& flag, const std::string& text) {
  double x = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), x);
  if (ec != std::errc{} || end != text.data() + text.size() || !std::isfinite(x)) {
    fail(flag + " wants a number, got '" + text + "'");
  }
  return x;
}

// The whole of `text` as a non-negative integer that fits T.
template <typename T>
T parse_count(const std::string& flag, const std::string& text) {
  T x = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), x);
  if (ec == std::errc::result_out_of_range) {
    fail(flag + " value '" + text + "' is too large");
  }
  if (ec != std::errc{} || end != text.data() + text.size()) {
    fail(flag + " wants a non-negative whole number, got '" + text + "'");
  }
  return x;
}

wmn::core::Protocol parse_protocol(const std::string& name) {
  using wmn::core::Protocol;
  if (name == "bf" || name == "flood") return Protocol::kAodvFlood;
  if (name == "gossip") return Protocol::kAodvGossip;
  if (name == "cb" || name == "counter") return Protocol::kAodvCounter;
  if (name == "vap") return Protocol::kAodvVap;
  if (name == "clnlr") return Protocol::kClnlr;
  if (name == "clnlr-rd") return Protocol::kClnlrRdOnly;
  if (name == "clnlr-rs") return Protocol::kClnlrRsOnly;
  fail("unknown protocol '" + name + "'");
}

// "0:1,10:1,12:8" -> {(0,1),(10,1),(12,8)}: times strictly increasing,
// multipliers non-negative.
std::vector<std::pair<double, double>> parse_envelope(const std::string& spec) {
  std::vector<std::pair<double, double>> knots;
  std::size_t pos = 0;
  do {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string knot = spec.substr(pos, comma - pos);
    const std::size_t colon = knot.find(':');
    if (colon == std::string::npos) {
      fail("malformed --envelope knot '" + knot + "' (want t:mult)");
    }
    const double t = parse_number("--envelope time", knot.substr(0, colon));
    const double m = parse_number("--envelope multiplier", knot.substr(colon + 1));
    if (m < 0.0 || (!knots.empty() && t <= knots.back().first)) {
      fail("--envelope wants increasing times and multipliers >= 0, got '" +
           knot + "'");
    }
    knots.emplace_back(t, m);
    pos = comma + 1;
  } while (pos <= spec.size());
  return knots;
}

wmn::exp::TrafficSpec::Model parse_traffic_model(const std::string& name) {
  using Model = wmn::exp::TrafficSpec::Model;
  if (name == "cbr") return Model::kCbr;
  if (name == "onoff") return Model::kPoissonOnOff;
  if (name == "heavytail") return Model::kHeavyTailOnOff;
  if (name == "sessions") return Model::kSessions;
  fail("unknown traffic model '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wmn;

  exp::ScenarioConfig cfg;
  cfg.traffic.rate_pps = 4.0;
  cfg.warmup = sim::Time::seconds(5.0);
  cfg.traffic_time = sim::Time::seconds(30.0);
  std::string timeseries_path;
  std::string flows_path;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail(a + " wants a value");
      return argv[++i];
    };
    auto next = [&] { return parse_number(a, value()); };
    auto count = [&] { return parse_count<std::size_t>(a, value()); };
    auto count32 = [&] { return parse_count<std::uint32_t>(a, value()); };
    if (a == "--nodes") {
      cfg.n_nodes = count();
    } else if (a == "--area") {
      cfg.area_width_m = next();
      cfg.area_height_m = next();
    } else if (a == "--flows") {
      cfg.traffic.n_flows = count();
    } else if (a == "--rate") {
      cfg.traffic.rate_pps = next();
    } else if (a == "--bytes") {
      cfg.traffic.packet_bytes = count32();
    } else if (a == "--protocol") {
      cfg.protocol = parse_protocol(value());
    } else if (a == "--speed") {
      cfg.mobility.max_speed_mps = next();
    } else if (a == "--gateways") {
      cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
      cfg.traffic.n_gateways = count();
    } else if (a == "--traffic") {
      cfg.traffic.model = parse_traffic_model(value());
    } else if (a == "--users") {
      cfg.traffic.users_per_node = count32();
    } else if (a == "--session-rate") {
      cfg.traffic.session_rate_per_user_per_s = next();
    } else if (a == "--arrival-gap") {
      cfg.traffic.mean_arrival_gap_s = next();
    } else if (a == "--envelope") {
      cfg.traffic.rate_envelope = parse_envelope(value());
    } else if (a == "--seconds") {
      cfg.traffic_time = sim::Time::seconds(next());
    } else if (a == "--event-budget") {
      cfg.event_budget = count();
    } else if (a == "--seed") {
      cfg.seed = count();
    } else if (a == "--rts") {
      cfg.mac.rts_threshold_bytes = count32();
    } else if (a == "--churn") {
      cfg.fault.churn.rate_per_s = next() / 60.0;
      cfg.fault.churn.mean_downtime = sim::Time::seconds(10.0);
    } else if (a == "--outage") {
      fault::NodeOutage o;
      o.node = count32();
      o.down_at = sim::Time::seconds(next());
      o.up_at = sim::Time::seconds(next());
      cfg.fault.outages.push_back(o);
    } else if (a == "--repair") {
      cfg.options.aodv.graceful_degradation = true;
    } else if (a == "--no-spatial-index") {
      cfg.spatial_index = false;
    } else if (a == "--timeseries") {
      timeseries_path = value();
    } else if (a == "--flows-csv") {
      flows_path = value();
    } else if (a == "--help" || a == "-h") {
      std::cout << "see the header comment of examples/wmnsim_cli.cpp\n";
      return 0;
    } else {
      fail("unknown flag '" + a + "'");
    }
  }
  // Checks that span flags (--outage against --nodes) run once all are
  // parsed.
  if (cfg.traffic_time <= sim::Time::zero()) fail("--seconds wants a positive time");
  if (cfg.area_width_m <= 0.0 || cfg.area_height_m <= 0.0) {
    fail("--area wants a positive width and height");
  }
  if (cfg.traffic.rate_pps <= 0.0) fail("--rate wants a rate > 0");
  if (cfg.traffic.pattern == exp::TrafficSpec::Pattern::kGateway &&
      cfg.traffic.n_gateways == 0) {
    fail("--gateways wants at least one gateway");
  }
  if (cfg.traffic.session_rate_per_user_per_s <= 0.0) {
    fail("--session-rate wants a rate > 0");
  }
  if (cfg.traffic.users_per_node == 0) fail("--users wants at least one user");
  if (cfg.mobility.max_speed_mps < 0.0) fail("--speed wants a speed >= 0");
  if (cfg.fault.churn.rate_per_s < 0.0) fail("--churn wants a rate >= 0");
  if (cfg.traffic.mean_arrival_gap_s < 0.0) fail("--arrival-gap wants a gap >= 0");
  for (const fault::NodeOutage& o : cfg.fault.outages) {
    if (o.node >= cfg.n_nodes) {
      fail("--outage node " + std::to_string(o.node) + " is outside a mesh of " +
           std::to_string(cfg.n_nodes) + " nodes");
    }
    if (o.down_at < sim::Time::zero() || o.up_at <= o.down_at) {
      fail("--outage wants 0 <= T0 < T1");
    }
  }
  // Find out now, not after the run, that an output cannot be written.
  for (const std::string& path : {timeseries_path, flows_path}) {
    if (!path.empty() && !std::ofstream(path, std::ios::app)) {
      fail("cannot write '" + path + "'");
    }
  }

  // The churn window spans the traffic; it depends on --seconds, so
  // resolve it after all flags are parsed.
  if (cfg.fault.churn.rate_per_s > 0.0) {
    cfg.fault.churn.start = cfg.warmup;
    cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
  }

  exp::Scenario scenario(cfg);
  std::unique_ptr<exp::TimeseriesProbe> probe;
  if (!timeseries_path.empty()) {
    probe = std::make_unique<exp::TimeseriesProbe>(scenario,
                                                   sim::Time::seconds(1.0));
  }

  std::cout << "running: " << cfg.n_nodes << " nodes, "
            << cfg.traffic.n_flows << " flows @ " << cfg.traffic.rate_pps
            << " pkt/s, protocol " << core::protocol_name(cfg.protocol)
            << ", seed " << cfg.seed << "\n";

  // The event budget aborts deterministically inside the kernel; the
  // run's metrics do not exist then, only the reason.
  try {
    scenario.run();
  } catch (const exp::RunAborted& e) {
    std::cerr << "[aborted: " << exp::failure_kind_name(e.kind()) << "] "
              << e.what() << "\n";
    return 3;
  }
  const exp::RunMetrics m = scenario.metrics();

  // One row per scalar metric of each group the run produced. A ratio
  // over nothing reads 0 in RunMetrics; that is no loss, so say n/a.
  stats::Table t({"metric", "value"});
  const auto value = [&m](std::string_view name, const auto& v) -> std::string {
    using T = std::decay_t<decltype(v)>;
    if (name == "pdr" && m.data_sent == 0) return "n/a (no packets sent)";
    if (name == "pdr_during_outage" && m.sent_during_outage == 0) {
      return "n/a (nothing sent in a fault window)";
    }
    if constexpr (std::is_same_v<T, double>) {
      return stats::Table::num(v, v == std::floor(v) ? 0 : 3);
    } else {
      return std::to_string(v);
    }
  };
  exp::for_each_metric(m, [&](std::string_view name, exp::MetricGroup group,
                              const auto& v) {
    if constexpr (!std::is_same_v<std::decay_t<decltype(v)>,
                                  std::vector<double>>) {
      if (exp::group_present(m, group)) {
        t.add_row({std::string(name), value(name, v)});
      }
    }
  });
  const exp::Scenario::Footprint fp = scenario.footprint();
  const auto share = [&fp](const char* name, std::size_t bytes) {
    return std::string(name) + " " + stats::Table::num(fp.per_node(bytes), 0);
  };
  t.add_row({"bytes/node", std::to_string(scenario.bytes_per_node()) + " = " +
                               share("phy", fp.phy) + " + " +
                               share("mac", fp.mac) + " + " +
                               share("routing", fp.routing) + " + " +
                               share("channel", fp.channel) + " + " +
                               share("stack", fp.stacks)});
  t.print(std::cout);

  if (probe) {
    if (!probe->save_csv(timeseries_path)) {
      std::cerr << "cannot write '" << timeseries_path << "'\n";
      return 1;
    }
    std::cout << "[time series written: " << timeseries_path << "]\n";
  }
  if (!flows_path.empty()) {
    stats::Table ft({"flow", "src", "dst", "sent", "delivered", "pdr",
                     "delay_ms", "jitter_ms"});
    for (const auto& r : scenario.flows().snapshot()) {
      ft.add_row({std::to_string(r.flow_id), r.src.str(), r.dst.str(),
                  std::to_string(r.sent), std::to_string(r.delivered),
                  stats::Table::num(r.pdr(), 3),
                  stats::Table::num(r.delay_mean_s * 1e3, 1),
                  stats::Table::num(r.jitter_mean_s * 1e3, 1)});
    }
    if (!ft.save_csv(flows_path)) {
      std::cerr << "cannot write '" << flows_path << "'\n";
      return 1;
    }
    std::cout << "[per-flow results written: " << flows_path << "]\n";
  }
  return 0;
}
