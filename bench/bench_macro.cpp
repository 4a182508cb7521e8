// Macro perf benchmark: full-stack simulator throughput on the T1
// reference mesh, pinned so the number is comparable across commits.
//
// The scenario is the 100-node / 1000x1000 m perturbed-grid mesh from
// bench/common.hpp at 6 pkt/s per flow — the congestion operating point
// where the F3/F4 curves bend and the event rate is dominated by the
// scheduler/packet hot path this benchmark exists to track. Unlike the
// figure benches this config is hard-coded (WMN_QUICK is deliberately
// ignored): a quick-mode run would produce numbers incomparable with
// bench/baseline.json.
//
// Emits results/BENCH_macro.json (see perf_json.hpp) for the CI perf
// gate; run docs are in docs/TOOLING.md ("The perf harness").
#include <benchmark/benchmark.h>

#include "core/protocols.hpp"
#include "exp/scenario.hpp"
#include "perf_json.hpp"

namespace {

using namespace wmn;

// Events per channel transmission: deterministic, and the number the
// weak-copy ledger exists to keep down (each transmission used to cost
// two calendar items per receiver). Gated by bench/perf_gate.py
// (--gate-counter events_per_tx, higher = regression).
double events_per_tx(exp::Scenario& s) {
  const auto tx = s.channel().counters().transmissions;
  return tx == 0 ? 0.0
                 : static_cast<double>(s.simulator().events_executed()) /
                       static_cast<double>(tx);
}

exp::ScenarioConfig reference_config(core::Protocol protocol) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 100;
  cfg.area_width_m = 1000.0;
  cfg.area_height_m = 1000.0;
  cfg.placement = exp::Placement::kPerturbedGrid;
  cfg.placement_jitter_m = 60.0;
  cfg.traffic.n_flows = 10;
  cfg.traffic.rate_pps = 6.0;  // the congestion point
  cfg.traffic.packet_bytes = 512;
  cfg.warmup = sim::Time::seconds(5.0);
  cfg.traffic_time = sim::Time::seconds(25.0);
  cfg.drain = sim::Time::seconds(2.0);
  cfg.seed = 1000;
  cfg.protocol = protocol;
  return cfg;
}

void BM_Reference100Nodes6pps(benchmark::State& state) {
  const auto protocol = static_cast<core::Protocol>(state.range(0));
  std::uint64_t events = 0;
  double per_tx = 0.0;
  for (auto _ : state) {
    exp::Scenario s(reference_config(protocol));
    s.run();
    events += s.simulator().events_executed();
    per_tx = events_per_tx(s);
  }
  state.SetLabel(core::protocol_name(protocol));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_events"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
  state.counters["events_per_tx"] = benchmark::Counter(per_tx);
}
BENCHMARK(BM_Reference100Nodes6pps)
    ->Arg(static_cast<int>(core::Protocol::kClnlr))
    ->Arg(static_cast<int>(core::Protocol::kAodvFlood))
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

// 400-node scale point: the reference mesh's density and operating
// point over a 2000x2000 m area, with a shorter traffic window so the
// wall cost stays CI-sized. Tracks how the channel hot path (spatial
// index + neighbour caches, on by default) scales with N — at this
// size the full O(N^2) scan would dominate the event loop.
void BM_Scale400Nodes6pps(benchmark::State& state) {
  std::uint64_t events = 0;
  std::size_t bytes_per_node = 0;
  double per_tx = 0.0;
  for (auto _ : state) {
    exp::ScenarioConfig cfg = reference_config(core::Protocol::kClnlr);
    cfg.n_nodes = 400;
    cfg.area_width_m = 2000.0;
    cfg.area_height_m = 2000.0;
    cfg.traffic.n_flows = 40;
    cfg.traffic_time = sim::Time::seconds(8.0);
    exp::Scenario s(cfg);
    s.run();
    events += s.simulator().events_executed();
    // End-of-run footprint: tables and caches are at their steady-state
    // size after 8 simulated seconds of routed traffic.
    bytes_per_node = s.bytes_per_node();
    per_tx = events_per_tx(s);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_events"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
  // Gated by bench/perf_gate.py (higher = regression).
  state.counters["bytes_per_node"] =
      benchmark::Counter(static_cast<double>(bytes_per_node));
  state.counters["events_per_tx"] = benchmark::Counter(per_tx);
}
BENCHMARK(BM_Scale400Nodes6pps)->Iterations(1)->Unit(benchmark::kMillisecond);

// F11 smoke point: the gateway-aggregation session workload at the
// reference scale — tracks the cost of the session/heavy-tail source
// machinery (per-arrival scheduling, per-session pacing timers) on top
// of the scheduler hot path. Not in bench/baseline.json, so the perf
// gate reports it without gating on it until a baseline is pinned.
void BM_F11GatewaySessions(benchmark::State& state) {
  std::uint64_t events = 0;
  double per_tx = 0.0;
  for (auto _ : state) {
    exp::ScenarioConfig cfg = reference_config(core::Protocol::kClnlr);
    cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
    cfg.traffic.n_gateways = 3;
    cfg.traffic.n_flows = 12;
    cfg.traffic.model = exp::TrafficSpec::Model::kSessions;
    cfg.traffic.users_per_node = 1000;
    cfg.traffic.session_rate_per_user_per_s = 0.004;
    cfg.traffic.mean_arrival_gap_s = 1.0;
    cfg.traffic_time = sim::Time::seconds(15.0);
    exp::Scenario s(cfg);
    s.run();
    events += s.simulator().events_executed();
    per_tx = events_per_tx(s);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sim_events"] = benchmark::Counter(
      static_cast<double>(events) / static_cast<double>(state.iterations()));
  state.counters["events_per_tx"] = benchmark::Counter(per_tx);
}
BENCHMARK(BM_F11GatewaySessions)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return wmnbench::run_benchmark_main(argc, argv, "macro");
}
