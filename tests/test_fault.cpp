// Fault model: crash choreography, link blackouts, seeded churn, and
// the graceful-degradation routing extensions (local repair, RREP
// blacklist, RERR-to-precursors) built on top.
#include "fault/fault_timeline.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exp/metrics.hpp"
#include "exp/scenario.hpp"
#include "exp/sweep.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/placement.hpp"
#include "phy/channel.hpp"
#include "routing/aodv.hpp"

namespace wmn::fault {
namespace {

using mobility::ConstantPositionModel;
using mobility::Vec2;

struct Delivery {
  std::uint64_t uid;
  net::Address origin;
  net::Address at;
  sim::Time when;
};

// Full stacks (phy+mac+aodv) at fixed positions, plus an optional
// fault::FaultTimeline wired in the way exp::Scenario wires it: as the
// channel's fault overlay, with its crashes scheduled on the stacks.
struct FaultBed {
  explicit FaultBed(std::vector<Vec2> positions,
                    routing::AodvConfig cfg = {}, std::uint64_t seed = 1,
                    std::unique_ptr<phy::PropagationModel> prop =
                        std::make_unique<phy::LogDistanceModel>())
      : sim(seed), channel(sim, std::move(prop)) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      mobilities.push_back(std::make_unique<ConstantPositionModel>(positions[i]));
      phys.push_back(std::make_unique<phy::WifiPhy>(sim, phy::PhyConfig{}, id,
                                                    mobilities.back().get()));
      channel.attach(phys.back().get());
      macs.push_back(std::make_unique<mac::DcfMac>(
          sim, mac::MacConfig{}, net::Address(id), *phys.back(), factory));
      agents.push_back(std::make_unique<routing::AodvAgent>(
          sim, cfg, net::Address(id), *macs.back(), factory,
          std::make_unique<routing::FloodPolicy>(),
          std::make_unique<routing::FirstArrivalSelection>(),
          std::make_unique<routing::ZeroLoadSource>()));
      agents.back()->set_deliver_callback(
          [this, id](net::Packet p, net::Address origin) {
            deliveries.push_back({p.uid(), origin, net::Address(id), sim.now()});
          });
    }
  }

  // Realizes `plan` up to `horizon`, the end of the test's run.
  void arm(const FaultPlan& plan, double horizon) {
    timeline = std::make_unique<FaultTimeline>(
        sim.master_seed(), plan, agents.size(), sim::Time::seconds(horizon));
    overlay = std::make_unique<TimelineOverlay>(*timeline, sim);
    channel.set_fault_overlay(overlay.get());
    std::vector<NodeHooks> hooks;
    hooks.reserve(agents.size());
    for (std::size_t i = 0; i < agents.size(); ++i) {
      hooks.push_back({phys[i].get(), macs[i].get(), agents[i].get()});
    }
    schedule_crashes(sim, *timeline, hooks);
  }

  void send(std::size_t from, std::size_t to, std::uint32_t bytes = 256) {
    net::Packet p = factory.make(bytes, sim.now());
    agents[from]->send(std::move(p), net::Address(static_cast<std::uint32_t>(to)));
  }

  // Send from -> to every `every` seconds across [start, stop).
  void traffic(std::size_t from, std::size_t to, double start, double stop,
               double every) {
    for (double t = start; t < stop; t += every) {
      sim.schedule_at(sim::Time::seconds(t), [this, from, to] { send(from, to); });
    }
  }

  [[nodiscard]] std::size_t delivered_at_between(std::size_t node, double t0,
                                                 double t1) const {
    std::size_t n = 0;
    for (const auto& d : deliveries) {
      if (d.at == net::Address(static_cast<std::uint32_t>(node)) &&
          d.when >= sim::Time::seconds(t0) && d.when < sim::Time::seconds(t1)) {
        ++n;
      }
    }
    return n;
  }

  sim::Simulator sim;
  phy::WirelessChannel channel;
  net::PacketFactory factory;
  std::vector<std::unique_ptr<ConstantPositionModel>> mobilities;
  std::vector<std::unique_ptr<phy::WifiPhy>> phys;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<routing::AodvAgent>> agents;
  std::unique_ptr<FaultTimeline> timeline;
  std::unique_ptr<TimelineOverlay> overlay;
  std::vector<Delivery> deliveries;
};

// 5-node line with 200 m spacing (250 m range): only adjacent nodes
// hear each other, so 0 -> 4 is a 4-hop route through every other node.
std::vector<Vec2> line5() { return mobility::line_placement(5, 200.0); }

// ---------------------------------------------------------------------
// Node outages
// ---------------------------------------------------------------------

TEST(FaultModel, StaticOutageCrashesAndRejoins) {
  FaultBed tb(line5());
  FaultPlan plan;
  plan.outages.push_back({2, sim::Time::seconds(3.0), sim::Time::seconds(6.0)});
  tb.arm(plan, 12.0);
  tb.traffic(0, 4, 1.0, 11.0, 0.5);
  tb.sim.run_until(sim::Time::seconds(12.0));

  EXPECT_EQ(tb.timeline->counters().crashes, 1u);
  EXPECT_EQ(tb.timeline->counters().rejoins, 1u);
  EXPECT_FALSE(tb.agents[2]->paused());
  EXPECT_TRUE(tb.phys[2]->is_up());
  EXPECT_FALSE(tb.macs[2]->is_down());

  // Delivered before the outage, nothing mid-outage (the line has no
  // alternate path around node 2), delivering again after the rejoin.
  EXPECT_GE(tb.delivered_at_between(4, 0.0, 3.0), 1u);
  EXPECT_EQ(tb.delivered_at_between(4, 3.3, 6.0), 0u);
  EXPECT_GE(tb.delivered_at_between(4, 6.5, 12.0), 1u);

  // The downtime window was realized and is queryable.
  EXPECT_DOUBLE_EQ(
      tb.timeline->total_node_downtime(tb.sim.now()).to_seconds(), 3.0);
  EXPECT_TRUE(tb.timeline->in_fault_window(sim::Time::seconds(4.5)));
  EXPECT_FALSE(tb.timeline->in_fault_window(sim::Time::seconds(1.0)));
  EXPECT_FALSE(tb.timeline->in_fault_window(sim::Time::seconds(6.0)));
}

TEST(FaultModel, CrashedNodeDropsOfferedTraffic) {
  FaultBed tb(line5());
  FaultPlan plan;
  plan.outages.push_back({0, sim::Time::seconds(2.0), sim::Time::seconds(8.0)});
  tb.arm(plan, 6.0);
  tb.traffic(0, 4, 3.0, 5.0, 0.5);  // offered while 0 is down
  tb.sim.run_until(sim::Time::seconds(6.0));
  EXPECT_EQ(tb.delivered_at_between(4, 0.0, 6.0), 0u);
  EXPECT_GE(tb.agents[0]->counters().data_dropped_node_down, 4u);
}

// Regression: a transmission from a crashed source must be rejected
// *before* any counting — the transmissions counter used to increment
// ahead of the fault guard, so a downed source's send inflated it even
// though no energy ever reached the air.
TEST(FaultModel, DownedSourceTransmitCountsNothing) {
  FaultBed tb(line5());
  FaultPlan plan;
  plan.outages.push_back({0, sim::Time::seconds(1.0), sim::Time::seconds(9.0)});
  tb.arm(plan, 3.0);
  // Other nodes' hello broadcasts keep the counters moving on their
  // own; the assertion is on the *delta* across the injected transmit
  // (transmit() is synchronous, so before/after brackets exactly it).
  tb.sim.schedule_at(sim::Time::seconds(2.0), [&tb] {
    const auto before = tb.channel.counters();
    net::Packet p = tb.factory.make(64, tb.sim.now());
    tb.channel.transmit(*tb.phys[0], p, tb.phys[0]->tx_duration(64));
    const auto after = tb.channel.counters();
    EXPECT_EQ(after.transmissions, before.transmissions);
    EXPECT_EQ(after.copies_delivered, before.copies_delivered);
    EXPECT_EQ(after.copies_dropped_floor, before.copies_dropped_floor);
    EXPECT_EQ(after.copies_dropped_fault, before.copies_dropped_fault);
  });
  tb.sim.run_until(sim::Time::seconds(3.0));
}

// Satellite 1 regression: crashing routers *mid-discovery* — while
// RREQ rebroadcast jitter timers, reply timers, and retry timers are
// all pending — must cancel every per-agent event. Under ASan a stale
// timer firing into a paused/cleared agent shows up immediately.
TEST(FaultModel, CrashDuringActiveDiscoveryIsClean) {
  FaultBed tb(line5());
  FaultPlan plan;
  // Source and a mid-line forwarder die 5 ms after the RREQ leaves,
  // squarely inside the <=10 ms rebroadcast jitter window.
  plan.outages.push_back(
      {0, sim::Time::seconds(1.005), sim::Time::seconds(4.0)});
  plan.outages.push_back(
      {2, sim::Time::seconds(1.005), sim::Time::seconds(4.0)});
  tb.arm(plan, 10.0);
  tb.sim.schedule_at(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));

  EXPECT_EQ(tb.timeline->counters().crashes, 2u);
  EXPECT_EQ(tb.timeline->counters().rejoins, 2u);
  EXPECT_FALSE(tb.agents[0]->paused());
  // The crashed source lost its buffered packet and discovery state.
  EXPECT_EQ(tb.delivered_at_between(4, 0.0, 10.0), 0u);
}

// Satellite 1, destruction flavour: destroying an agent with a pending
// RREQ-forward timer must cancel it; otherwise the event later fires
// into freed memory (caught by ASan in CI).
TEST(FaultModel, AgentDestructionCancelsPendingForwardTimers) {
  FaultBed tb(line5());
  tb.sim.schedule_at(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  // Stop inside the rebroadcast jitter window: forwarders hold timers.
  tb.sim.run_until(sim::Time::seconds(1.002));
  for (auto& m : tb.macs) {
    m->set_rx_callback({});
    m->set_tx_failed_callback({});
    m->set_tx_ok_callback({});
  }
  for (auto& a : tb.agents) a.reset();
  // Any surviving agent-owned event would now dereference freed state.
  tb.sim.run_until(sim::Time::seconds(5.0));
}

// ---------------------------------------------------------------------
// Link blackouts and RERR propagation (satellite 3)
// ---------------------------------------------------------------------

TEST(FaultModel, BlackoutSeversLinkAndRerrReachesSource) {
  FaultBed tb(line5());
  FaultPlan plan;
  // Short enough that the source's retry schedule (1 s, then 2 s, then
  // 4 s of binary backoff) still has an attempt left once it lifts.
  plan.blackouts.push_back(
      {2, 3, sim::Time::seconds(3.0), sim::Time::seconds(6.0)});
  tb.arm(plan, 13.0);
  tb.traffic(0, 4, 1.0, 12.0, 0.25);
  tb.sim.run_until(sim::Time::seconds(13.0));

  EXPECT_EQ(tb.timeline->counters().blackouts, 1u);
  // Route up before the blackout...
  EXPECT_GE(tb.delivered_at_between(4, 0.0, 3.0), 1u);
  // ...the break at node 2 produced a RERR that propagated hop by hop
  // back to the source, which invalidated and re-discovered.
  EXPECT_GE(tb.agents[2]->counters().rerr_sent, 1u);
  EXPECT_GE(tb.agents[0]->counters().rerr_received, 1u);
  EXPECT_GE(tb.agents[0]->counters().discovery_started, 2u);
  // Nothing crosses the severed link mid-blackout; service resumes
  // once a post-blackout RREQ retry gets through.
  EXPECT_EQ(tb.delivered_at_between(4, 3.5, 6.0), 0u);
  EXPECT_GE(tb.delivered_at_between(4, 8.5, 13.0), 1u);
  // Blackouts count as fault windows for traffic classification.
  EXPECT_TRUE(tb.timeline->in_fault_window(sim::Time::seconds(5.0)));
  // The severed link carries the plan's attenuation in both directions
  // on [from, to) and none outside it.
  EXPECT_EQ(tb.timeline->link_loss_db(2, 3, sim::Time::seconds(3.0)), 200.0);
  EXPECT_EQ(tb.timeline->link_loss_db(3, 2, sim::Time::seconds(4.0)), 200.0);
  EXPECT_EQ(tb.timeline->link_loss_db(2, 3, sim::Time::seconds(6.0)), 0.0);
  EXPECT_EQ(tb.timeline->link_loss_db(1, 2, sim::Time::seconds(4.0)), 0.0);
}

// ---------------------------------------------------------------------
// Graceful degradation: local repair (RFC 3561 §6.12)
// ---------------------------------------------------------------------

TEST(GracefulDegradation, LocalRepairBridgesBrokenLink) {
  // Diamond detour: the line 0-1-2-4 carries traffic; node 3 sits off
  // the line, reachable from 2 (130 m) and 4 (192 m) but not 1 (277 m).
  // Severing 2<->4 leaves 2 -> 3 -> 4 as the repair path.
  std::vector<Vec2> pos = {{0.0, 0.0},  {200.0, 0.0}, {400.0, 0.0},
                           {450.0, 120.0}, {600.0, 0.0}};
  routing::AodvConfig cfg;
  cfg.graceful_degradation = true;
  FaultBed tb(pos, cfg);
  FaultPlan plan;
  plan.blackouts.push_back(
      {2, 4, sim::Time::seconds(3.0), sim::Time::seconds(12.0)});
  tb.arm(plan, 12.0);
  tb.traffic(0, 4, 1.0, 10.0, 0.25);
  tb.sim.run_until(sim::Time::seconds(12.0));

  const auto& repairer = tb.agents[2]->counters();
  EXPECT_GE(repairer.local_repair_attempted, 1u);
  EXPECT_GE(repairer.local_repair_succeeded, 1u);
  // The repair succeeded upstream of the source: no RERR reached it,
  // its route survived, and deliveries continued through the detour.
  EXPECT_EQ(tb.agents[0]->counters().rerr_received, 0u);
  EXPECT_EQ(tb.agents[0]->counters().discovery_started, 1u);
  EXPECT_GE(tb.delivered_at_between(4, 3.5, 10.0), 1u);
  // Node 3 only forwards once the detour is in use.
  EXPECT_GE(tb.agents[3]->counters().data_forwarded, 1u);
}

// ---------------------------------------------------------------------
// Graceful degradation: unidirectional-neighbour blacklist (§6.8)
// ---------------------------------------------------------------------

// Wraps log-distance and kills one direction of one link, modelling a
// unidirectional neighbour: hellos/RREQs arrive, but nothing unicast
// makes it back.
class OneWayBlock final : public phy::PropagationModel {
 public:
  OneWayBlock(std::uint32_t tx, std::uint32_t rx) : tx_(tx), rx_(rx) {}
  [[nodiscard]] double power_dbm(double tx_power_dbm, double distance_m,
                                 std::uint32_t tx_id,
                                 std::uint32_t rx_id) const override {
    const double p = base_.power_dbm(tx_power_dbm, distance_m, tx_id, rx_id);
    return (tx_id == tx_ && rx_id == rx_) ? p - 200.0 : p;
  }

 private:
  phy::LogDistanceModel base_;
  std::uint32_t tx_;
  std::uint32_t rx_;
};

TEST(GracefulDegradation, FailedRrepBlacklistsUnidirectionalNeighbor) {
  // 0 <- 1 <-> 2: node 1 hears 0 but 0's transmissions never reach 1.
  // Node 2's discovery for 0 delivers the RREQ (via 1 -> 0), but 0's
  // RREP unicast back to 1 dies at the MAC. With the blacklist on, 0
  // then ignores RREQs arriving from 1 for a while instead of burning
  // a reply on every retry.
  routing::AodvConfig cfg;
  cfg.graceful_degradation = true;
  cfg.blacklist_timeout = sim::Time::seconds(30.0);
  FaultBed tb(mobility::line_placement(3, 200.0), cfg, 1,
              std::make_unique<OneWayBlock>(0, 1));
  tb.traffic(2, 0, 1.0, 12.0, 2.0);
  tb.sim.run_until(sim::Time::seconds(15.0));

  EXPECT_GE(tb.agents[0]->counters().blacklist_adds, 1u);
  EXPECT_GE(tb.agents[0]->counters().rreq_ignored_blacklist, 1u);
  EXPECT_EQ(tb.delivered_at_between(0, 0.0, 15.0), 0u);
}

// ---------------------------------------------------------------------
// Scenario integration + resilience metrics
// ---------------------------------------------------------------------

exp::ScenarioConfig small_config(std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 25;
  cfg.area_width_m = 600.0;
  cfg.area_height_m = 600.0;
  cfg.traffic.n_flows = 4;
  cfg.traffic.rate_pps = 4.0;
  cfg.warmup = sim::Time::seconds(3.0);
  cfg.traffic_time = sim::Time::seconds(10.0);
  cfg.drain = sim::Time::seconds(1.0);
  cfg.seed = seed;
  return cfg;
}

TEST(FaultScenario, EmptyPlanBuildsNoTimeline) {
  exp::Scenario s(small_config(5));
  EXPECT_EQ(s.fault_timeline(), nullptr);
  s.run();
  const exp::RunMetrics m = s.metrics();
  EXPECT_FALSE(m.fault_enabled);
  EXPECT_EQ(m.fault_crashes, 0u);
}

TEST(FaultScenario, OutagesPopulateResilienceMetrics) {
  exp::ScenarioConfig cfg = small_config(5);
  for (std::uint32_t n : {6u, 7u, 8u, 11u, 12u, 13u}) {
    cfg.fault.outages.push_back(
        {n, sim::Time::seconds(6.0), sim::Time::seconds(10.0)});
  }
  exp::Scenario s(cfg);
  ASSERT_NE(s.fault_timeline(), nullptr);
  s.run();
  const exp::RunMetrics m = s.metrics();
  EXPECT_TRUE(m.fault_enabled);
  EXPECT_EQ(m.fault_crashes, 6u);
  EXPECT_EQ(m.fault_rejoins, 6u);
  EXPECT_DOUBLE_EQ(m.fault_downtime_s, 24.0);
  EXPECT_GT(m.sent_during_outage, 0u);
  EXPECT_LT(m.sent_during_outage, m.data_sent);
  EXPECT_GE(m.pdr_during_outage, 0.0);
  EXPECT_LE(m.pdr_during_outage, 1.0);
  EXPECT_GT(m.pdr_outside_outage, 0.0);
}

TEST(FaultScenario, ChurnSameSeedSameFingerprint) {
  exp::ScenarioConfig cfg = small_config(21);
  cfg.fault.churn.rate_per_s = 0.2;
  cfg.fault.churn.mean_downtime = sim::Time::seconds(3.0);
  cfg.fault.churn.start = cfg.warmup;
  cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;

  exp::Scenario a(cfg);
  a.run();
  exp::Scenario b(cfg);
  b.run();
  const exp::RunMetrics ma = a.metrics();
  EXPECT_GT(ma.fault_crashes, 0u);
  EXPECT_EQ(a.simulator().events_executed(), b.simulator().events_executed());
  EXPECT_EQ(exp::fingerprint(ma), exp::fingerprint(b.metrics()));
}

TEST(FaultScenario, ChurnDifferentSeedDifferentFingerprint) {
  exp::ScenarioConfig cfg = small_config(21);
  cfg.fault.churn.rate_per_s = 0.2;
  cfg.fault.churn.mean_downtime = sim::Time::seconds(3.0);
  cfg.fault.churn.start = cfg.warmup;
  cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;

  exp::Scenario a(cfg);
  a.run();
  cfg.seed = 22;
  exp::Scenario b(cfg);
  b.run();
  EXPECT_NE(exp::fingerprint(a.metrics()), exp::fingerprint(b.metrics()));
}

}  // namespace
}  // namespace wmn::fault
