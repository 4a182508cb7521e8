// Kernel micro-benchmarks (google-benchmark): the hot paths whose cost
// bounds how large a mesh the simulator can sweep.
//
// Emits results/BENCH_micro.json (see perf_json.hpp) for the CI perf
// gate; the pinned subset CI runs is listed in .github/workflows/ci.yml.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "exp/scenario.hpp"
#include "fault/fault_timeline.hpp"
#include "mac/mac_header.hpp"
#include "mobility/mobility_model.hpp"
#include "perf_json.hpp"
#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "phy/propagation.hpp"
#include "phy/wifi_phy.hpp"
#include "routing/messages.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace wmn;

void BM_SchedulerInsertPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::RngStream rng(1, 1);
  for (auto _ : state) {
    sim::Scheduler s;
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule(sim::Time::nanos(static_cast<std::int64_t>(
                     rng.uniform_u64(0, 1'000'000'000))),
                 [] {});
    }
    while (!s.empty()) benchmark::DoNotOptimize(s.pop().at);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerInsertPop)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  sim::RngStream rng(1, 2);
  for (auto _ : state) {
    sim::Scheduler s;
    std::vector<sim::EventId> ids;
    ids.reserve(10'000);
    for (int i = 0; i < 10'000; ++i) {
      ids.push_back(s.schedule(
          sim::Time::nanos(static_cast<std::int64_t>(rng.uniform_u64(0, 1'000'000))),
          [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
    while (!s.empty()) benchmark::DoNotOptimize(s.pop().at);
  }
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_RngUniform(benchmark::State& state) {
  sim::RngStream rng(1, 3);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform01());
}
BENCHMARK(BM_RngUniform);

void BM_RngNormal(benchmark::State& state) {
  sim::RngStream rng(1, 4);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0.0, 1.0));
}
BENCHMARK(BM_RngNormal);

void BM_PacketHeaderPushPop(benchmark::State& state) {
  net::PacketFactory factory;
  for (auto _ : state) {
    net::Packet p = factory.make(512, sim::Time::zero());
    p.push(routing::DataHeader{});
    p.push(routing::RreqHeader{});
    benchmark::DoNotOptimize(p.pop<routing::RreqHeader>());
    benchmark::DoNotOptimize(p.pop<routing::DataHeader>());
  }
}
BENCHMARK(BM_PacketHeaderPushPop);

void BM_PacketBroadcastCopy(benchmark::State& state) {
  net::PacketFactory factory;
  net::Packet p = factory.make(512, sim::Time::zero());
  p.push(routing::DataHeader{});
  p.push(routing::RreqHeader{});
  for (auto _ : state) {
    net::Packet copy = p;  // the per-receiver fan-out copy
    benchmark::DoNotOptimize(copy.size_bytes());
  }
}
BENCHMARK(BM_PacketBroadcastCopy);

// Steady-state arena churn: the per-hop header cycle of a forwarded
// data frame (push net + mac, pop both at the receiver) once the free
// list is warm — the path every transmitted packet pays per hop.
void BM_PacketArenaChurn(benchmark::State& state) {
  net::PacketFactory factory;
  for (auto _ : state) {
    net::Packet p = factory.make(512, sim::Time::zero());
    p.push(routing::DataHeader{});
    p.push(mac::MacHeader{});
    net::Packet copy = p;  // receiver-side share
    benchmark::DoNotOptimize(copy.pop<mac::MacHeader>());
    benchmark::DoNotOptimize(copy.pop<routing::DataHeader>());
  }
  state.counters["arena_nodes"] = benchmark::Counter(
      static_cast<double>(factory.arena().capacity_nodes()));
}
BENCHMARK(BM_PacketArenaChurn);

// Steady-state scheduler churn: schedule/cancel/fire cycling through
// recycled slots — the timer pattern the MAC and routing layers run.
void BM_SchedulerSlotRecycle(benchmark::State& state) {
  sim::Scheduler s;
  for (auto _ : state) {
    const sim::EventId keep = s.schedule(sim::Time::nanos(10), [] {});
    const sim::EventId drop = s.schedule(sim::Time::nanos(20), [] {});
    s.cancel(drop);
    benchmark::DoNotOptimize(s.pending(keep));
    while (!s.empty()) benchmark::DoNotOptimize(s.pop().at);
  }
}
BENCHMARK(BM_SchedulerSlotRecycle);

void BM_PropagationLogDistance(benchmark::State& state) {
  phy::LogDistanceModel m;
  double d = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.rx_power_dbm(15.0, {0.0, 0.0}, {d, d}, 1, 2));
    d = d < 1000.0 ? d + 1.0 : 1.0;
  }
}
BENCHMARK(BM_PropagationLogDistance);

void BM_PropagationShadowing(benchmark::State& state) {
  phy::LogNormalShadowing m(std::make_unique<phy::LogDistanceModel>(), 6.0, 7);
  double d = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.rx_power_dbm(15.0, {0.0, 0.0}, {d, d}, 1, 2));
    d = d < 1000.0 ? d + 1.0 : 1.0;
  }
}
BENCHMARK(BM_PropagationShadowing);

// Fault-overlay link-state lookup: the work Channel adds per
// (transmission, receiver) pair when a FaultPlan is active. Not part of
// the CI-pinned baseline subset — the gate protects the faults-off hot
// path, which skips this code entirely.
void BM_FaultOverlayLookup(benchmark::State& state) {
  const auto blackouts = static_cast<std::uint32_t>(state.range(0));
  fault::FaultPlan plan;
  for (std::uint32_t i = 0; i < blackouts; ++i) {
    plan.blackouts.push_back({i, i + 1, sim::Time::seconds(1.0),
                              sim::Time::seconds(100.0)});
  }
  const fault::FaultTimeline timeline(1, plan, blackouts + 1,
                                      sim::Time::seconds(100.0));
  sim::Simulator sim(1);
  sim.run_until(sim::Time::seconds(2.0));  // all blackouts active
  const fault::TimelineOverlay overlay(timeline, sim);
  std::uint32_t tx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay.node_up(tx));
    benchmark::DoNotOptimize(
        overlay.link_loss_db(tx, tx + 1, sim::Time::seconds(2.0)));
    tx = tx < blackouts ? tx + 1 : 0;
  }
}
BENCHMARK(BM_FaultOverlayLookup)->Arg(1)->Arg(4)->Arg(16);

// Broadcast fan-out kernel: one transmit() on a static sparse mesh,
// spatial index off (full O(N) scan per transmit) vs on (grid cull +
// cached link budgets). The pair quantifies the index's speedup on the
// channel hot path; the determinism contract (test_spatial_index)
// guarantees both variants do identical delivery work. Not part of the
// CI-pinned baseline subset — the on/off ratio is the number that
// matters, not the absolute time of either variant.
void BM_TransmitFanout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool indexed = state.range(1) != 0;
  // ~14 in-range neighbours per node regardless of N (sparse mesh,
  // LogDistance default detection range ~830 m).
  const double side = 400.0 * std::sqrt(static_cast<double>(n));
  sim::Simulator sim(1);
  sim::RngStream rng(1, 42);
  std::vector<std::unique_ptr<mobility::ConstantPositionModel>> models;
  std::vector<std::unique_ptr<phy::WifiPhy>> phys;
  // Declared after the models: the channel's index detaches from them
  // in its destructor, so it must die first.
  auto channel = std::make_unique<phy::WirelessChannel>(
      sim, std::make_unique<phy::LogDistanceModel>());
  if (indexed) channel->enable_spatial_index(side, side);
  for (std::size_t i = 0; i < n; ++i) {
    models.push_back(std::make_unique<mobility::ConstantPositionModel>(
        mobility::Vec2{rng.uniform01() * side, rng.uniform01() * side}));
    phys.push_back(std::make_unique<phy::WifiPhy>(
        sim, phy::PhyConfig{}, static_cast<std::uint32_t>(i),
        models.back().get()));
    channel->attach(phys.back().get());
  }
  net::PacketFactory factory;
  std::size_t src = 0;
  for (auto _ : state) {
    net::Packet p = factory.make(64, sim.now());
    channel->transmit(*phys[src], p, phys[src]->tx_duration(64));
    sim.run();  // drain the scheduled deliveries
    src = src + 1 == n ? 0 : src + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["copies_delivered"] = benchmark::Counter(
      static_cast<double>(channel->counters().copies_delivered) /
      static_cast<double>(state.iterations()));
  channel.reset();
}
BENCHMARK(BM_TransmitFanout)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({400, 0})
    ->Args({400, 1});

// Full-stack throughput: simulated seconds per wall second for a small
// mesh, per protocol.
void BM_ScenarioEndToEnd(benchmark::State& state) {
  const auto protocol = static_cast<core::Protocol>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    exp::ScenarioConfig cfg;
    cfg.n_nodes = 36;
    cfg.area_width_m = 700.0;
    cfg.area_height_m = 700.0;
    cfg.traffic.n_flows = 4;
    cfg.traffic.rate_pps = 4.0;
    cfg.warmup = sim::Time::seconds(2.0);
    cfg.traffic_time = sim::Time::seconds(8.0);
    cfg.seed = 11;
    cfg.protocol = protocol;
    exp::Scenario s(cfg);
    s.run();
    events += s.simulator().events_executed();
  }
  state.SetLabel(core::protocol_name(protocol));
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ScenarioEndToEnd)
    ->Arg(static_cast<int>(core::Protocol::kAodvFlood))
    ->Arg(static_cast<int>(core::Protocol::kClnlr))
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return wmnbench::run_benchmark_main(argc, argv, "micro");
}
