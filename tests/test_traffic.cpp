#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/protocols.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "traffic/flow_builder.hpp"
#include "traffic/flow_registry.hpp"
#include "traffic/packet_sink.hpp"
#include "traffic/source.hpp"

namespace wmn::traffic {
namespace {

using mobility::ConstantPositionModel;
using mobility::Vec2;

// Two adjacent nodes with full stacks and a sink on node 1.
struct TrafficBed {
  TrafficBed()
      : sim(1), channel(sim, std::make_unique<phy::LogDistanceModel>()) {
    core::ProtocolOptions options;
    for (std::uint32_t id = 0; id < 2; ++id) {
      mobilities.push_back(std::make_unique<ConstantPositionModel>(
          Vec2{static_cast<double>(id) * 150.0, 0.0}));
      phys.push_back(std::make_unique<phy::WifiPhy>(sim, phy::PhyConfig{}, id,
                                                    mobilities.back().get()));
      channel.attach(phys.back().get());
      macs.push_back(std::make_unique<mac::DcfMac>(
          sim, mac::MacConfig{}, net::Address(id), *phys.back(), factory));
      agents.push_back(core::make_agent(core::Protocol::kAodvFlood, options, sim,
                                        net::Address(id), *macs.back(), factory));
      sinks.push_back(std::make_unique<PacketSink>(sim, *agents.back(), registry));
    }
  }

  sim::Simulator sim;
  phy::WirelessChannel channel;
  net::PacketFactory factory;
  FlowRegistry registry;
  std::vector<std::unique_ptr<ConstantPositionModel>> mobilities;
  std::vector<std::unique_ptr<phy::WifiPhy>> phys;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<routing::AodvAgent>> agents;
  std::vector<std::unique_ptr<PacketSink>> sinks;
};

TEST(CbrSource, EmitsAtConfiguredRate) {
  TrafficBed tb;
  CbrConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 10.0;
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(11.0);
  CbrSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(13.0));
  // 10 s of 10 pps, +-1 for phase.
  EXPECT_NEAR(static_cast<double>(src.packets_sent()), 100.0, 1.0);
  const FlowRecord* r = tb.registry.find(1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->sent, src.packets_sent());
}

TEST(CbrSource, DeliveredPacketsTracked) {
  TrafficBed tb;
  CbrConfig cfg;
  cfg.flow_id = 2;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 5.0;
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(6.0);
  cfg.packet_bytes = 256;
  CbrSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(8.0));
  const FlowRecord* r = tb.registry.find(2);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->delivered, r->sent);  // adjacent nodes: nothing lost
  EXPECT_EQ(r->delivered_bytes, r->delivered * 256);
  EXPECT_GT(r->delay_mean_s, 0.0);
  EXPECT_LT(r->delay_mean_s, 0.5);
  EXPECT_DOUBLE_EQ(r->pdr(), 1.0);
}

TEST(OnOffSource, RespectsStartStopWindow) {
  TrafficBed tb;
  OnOffConfig cfg;
  cfg.flow_id = 3;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 20.0;
  cfg.mean_on = sim::Time::seconds(1.0);
  cfg.mean_off = sim::Time::seconds(1.0);
  cfg.start = sim::Time::seconds(2.0);
  cfg.stop = sim::Time::seconds(12.0);
  OnOffSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(15.0));
  // Roughly half duty cycle: well below the CBR-equivalent 200, above 0.
  EXPECT_GT(src.packets_sent(), 20u);
  EXPECT_LT(src.packets_sent(), 200u);
}

// ----- FlowRegistry unit behaviour ------------------------------------------

TEST(FlowRegistry, DelayStatistics) {
  FlowRegistry reg;
  reg.register_flow(1, net::Address(0), net::Address(1));
  reg.record_sent(1, 100);
  reg.record_sent(1, 100);
  reg.record_sent(1, 100);
  // Delays: 10 ms, 20 ms, 30 ms.
  reg.record_delivery(1, 1, 100, sim::Time::zero(), sim::Time::millis(10.0));
  reg.record_delivery(1, 2, 100, sim::Time::zero(), sim::Time::millis(20.0));
  reg.record_delivery(1, 3, 100, sim::Time::zero(), sim::Time::millis(30.0));
  const FlowRecord* r = reg.find(1);
  EXPECT_NEAR(r->delay_mean_s, 0.020, 1e-9);
  EXPECT_NEAR(r->delay_stddev_s(), 0.010, 1e-9);
  // Jitter: successive diffs are 10 ms, 10 ms.
  EXPECT_NEAR(r->jitter_mean_s, 0.010, 1e-9);
  EXPECT_DOUBLE_EQ(r->pdr(), 1.0);
}

TEST(FlowRegistry, DuplicateAndOutOfOrderDetection) {
  FlowRegistry reg;
  reg.register_flow(1, net::Address(0), net::Address(1));
  for (int i = 0; i < 4; ++i) reg.record_sent(1, 100);
  reg.record_delivery(1, 1, 100, sim::Time::zero(), sim::Time::millis(10.0));
  reg.record_delivery(1, 3, 100, sim::Time::zero(), sim::Time::millis(20.0));
  reg.record_delivery(1, 3, 100, sim::Time::zero(), sim::Time::millis(21.0));  // dup
  reg.record_delivery(1, 2, 100, sim::Time::zero(), sim::Time::millis(22.0));  // late
  const FlowRecord* r = reg.find(1);
  EXPECT_EQ(r->duplicates, 1u);
  EXPECT_EQ(r->out_of_order, 1u);
  EXPECT_EQ(r->delivered, 3u);  // dup not double-counted
}

TEST(FlowRegistry, AggregatesAcrossFlows) {
  FlowRegistry reg;
  reg.register_flow(1, net::Address(0), net::Address(1));
  reg.register_flow(2, net::Address(2), net::Address(3));
  reg.record_sent(1, 100);
  reg.record_sent(2, 100);
  reg.record_sent(2, 100);
  reg.record_delivery(1, 1, 100, sim::Time::zero(), sim::Time::millis(10.0));
  reg.record_delivery(2, 1, 100, sim::Time::zero(), sim::Time::millis(30.0));
  EXPECT_EQ(reg.total_sent(), 3u);
  EXPECT_EQ(reg.total_delivered(), 2u);
  EXPECT_NEAR(reg.aggregate_pdr(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(reg.mean_delay_s(), 0.020, 1e-9);
}

TEST(FlowRegistry, BurstyArrivalsAggregateCorrectly) {
  // Flows register over time (the seeded flow-arrival process) and send
  // in bursts; aggregates must reflect exactly what each flow offered,
  // independent of registration order or interleaving.
  FlowRegistry reg;
  reg.register_flow(1, net::Address(0), net::Address(9));
  for (int i = 0; i < 5; ++i) reg.record_sent(1, 100, sim::Time::seconds(1.0));
  // Second flow joins mid-run, after flow 1 already offered traffic.
  reg.register_flow(2, net::Address(3), net::Address(9));
  for (int i = 0; i < 3; ++i) reg.record_sent(2, 100, sim::Time::seconds(4.0));
  // Flow 1 bursts again after its quiet period.
  for (int i = 0; i < 5; ++i) reg.record_sent(1, 100, sim::Time::seconds(6.0));
  EXPECT_EQ(reg.total_sent(), 13u);
  EXPECT_EQ(reg.find(1)->sent, 10u);
  EXPECT_EQ(reg.find(2)->sent, 3u);
  // Deliveries land out of burst order across flows.
  reg.record_delivery(2, 1, 100, sim::Time::seconds(4.0),
                      sim::Time::seconds(4.1));
  reg.record_delivery(1, 1, 100, sim::Time::seconds(1.0),
                      sim::Time::seconds(1.2));
  reg.record_delivery(1, 6, 100, sim::Time::seconds(6.0),
                      sim::Time::seconds(6.1));
  EXPECT_EQ(reg.total_delivered(), 3u);
  EXPECT_NEAR(reg.find(1)->pdr(), 0.2, 1e-12);
  EXPECT_NEAR(reg.find(2)->pdr(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(reg.aggregate_pdr(), 3.0 / 13.0, 1e-12);
}

TEST(FlowRegistry, UnknownFlowDeliveryIgnored) {
  FlowRegistry reg;
  reg.record_delivery(99, 1, 100, sim::Time::zero(), sim::Time::millis(10.0));
  EXPECT_EQ(reg.total_delivered(), 0u);
}

// ----- Flow builders ---------------------------------------------------------

TEST(FlowBuilder, RandomPairsAreDistinctAndValid) {
  sim::RngStream rng(7, 0);
  const auto pairs = random_pairs(30, 50, rng);
  ASSERT_EQ(pairs.size(), 30u);
  std::set<NodePair> seen;
  for (const auto& [a, b] : pairs) {
    EXPECT_NE(a, b);
    EXPECT_LT(a, 50u);
    EXPECT_LT(b, 50u);
    EXPECT_TRUE(seen.insert({a, b}).second);
  }
}

TEST(FlowBuilder, RandomPairsDeterministic) {
  sim::RngStream rng1(7, 0);
  sim::RngStream rng2(7, 0);
  EXPECT_EQ(random_pairs(10, 20, rng1), random_pairs(10, 20, rng2));
}

// A 10 x 5 grid, 10 m apart, in a 100 m x 50 m field.
std::vector<mobility::Vec2> grid_positions() {
  std::vector<mobility::Vec2> out;
  for (int i = 0; i < 50; ++i) {
    out.push_back({static_cast<double>(i % 10) * 10.0,
                   static_cast<double>(i / 10) * 10.0});
  }
  return out;
}

TEST(FlowBuilder, GatewayFlowsTargetNearestGateway) {
  sim::RngStream rng(7, 0);
  const auto positions = grid_positions();
  const auto flows = gateway_flows(12, 2, positions, {100.0, 50.0}, rng);
  ASSERT_EQ(flows.gateways.size(), 2u);
  ASSERT_EQ(flows.pairs.size(), 12u);
  std::set<std::uint32_t> srcs;
  std::set<std::uint32_t> dsts;
  for (const auto& [src, dst] : flows.pairs) {
    EXPECT_TRUE(dst == flows.gateways[0] || dst == flows.gateways[1]);
    EXPECT_NE(src, dst);
    EXPECT_TRUE(srcs.insert(src).second);  // distinct sources
    for (const std::uint32_t g : flows.gateways) {
      EXPECT_LE(positions[src].distance_to(positions[dst]),
                positions[src].distance_to(positions[g]));
    }
    dsts.insert(dst);
  }
  EXPECT_EQ(dsts.size(), 2u);
}

// 50 nodes and 2 gateways leave 48 possible sources: asking for more
// must fail loudly instead of building fewer flows.
TEST(FlowBuilderDeathTest, GatewayFlowsCheckTheirCount) {
  sim::RngStream rng(7, 0);
  EXPECT_DEATH((void)gateway_flows(49, 2, grid_positions(), {100.0, 50.0}, rng),
               "could not build requested flow count");
}

}  // namespace
}  // namespace wmn::traffic
