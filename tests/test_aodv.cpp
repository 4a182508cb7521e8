// AODV engine integration tests on small deterministic topologies.
#include "routing/aodv.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "mobility/placement.hpp"
#include "phy/channel.hpp"

namespace wmn::routing {
namespace {

using mobility::ConstantPositionModel;
using mobility::Vec2;

struct Delivery {
  std::uint64_t uid;
  net::Address origin;
  net::Address at;
};

// The policies every agent of a bed is built with; a rebroadcast
// policy may read the bed's clock.
struct Policies {
  std::function<std::unique_ptr<RebroadcastPolicy>(const sim::Simulator&)>
      rebroadcast = [](const sim::Simulator&) {
        return std::make_unique<FloodPolicy>();
      };
  std::function<std::unique_ptr<RouteSelectionPolicy>()> selection = [] {
    return std::make_unique<FirstArrivalSelection>();
  };
};

// Full stacks (phy+mac+aodv) at fixed positions; default flood policy.
struct RoutingBed {
  explicit RoutingBed(std::vector<Vec2> positions, AodvConfig cfg = {},
                      std::uint64_t seed = 1, const Policies& policies = {})
      : sim(seed), channel(sim, std::make_unique<phy::LogDistanceModel>()) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      mobilities.push_back(std::make_unique<ConstantPositionModel>(positions[i]));
      phys.push_back(std::make_unique<phy::WifiPhy>(sim, phy::PhyConfig{}, id,
                                                    mobilities.back().get()));
      channel.attach(phys.back().get());
      macs.push_back(std::make_unique<mac::DcfMac>(
          sim, mac::MacConfig{}, net::Address(id), *phys.back(), factory));
      agents.push_back(std::make_unique<AodvAgent>(
          sim, cfg, net::Address(id), *macs.back(), factory,
          policies.rebroadcast(sim), policies.selection(),
          std::make_unique<ZeroLoadSource>()));
      agents.back()->set_deliver_callback(
          [this, id](net::Packet p, net::Address origin) {
            deliveries.push_back({p.uid(), origin, net::Address(id)});
          });
    }
  }

  // Moves node i effectively out of everyone's range.
  void exile(std::size_t i) {
    mobilities[i]->set_position(Vec2{1e7, 1e7});
  }

  void send(std::size_t from, std::size_t to, std::uint32_t bytes = 256) {
    net::Packet p = factory.make(bytes, sim.now());
    agents[from]->send(std::move(p), net::Address(static_cast<std::uint32_t>(to)));
  }

  [[nodiscard]] std::size_t delivered_at(std::size_t node) const {
    std::size_t n = 0;
    for (const auto& d : deliveries) {
      if (d.at == net::Address(static_cast<std::uint32_t>(node))) ++n;
    }
    return n;
  }

  sim::Simulator sim;
  phy::WirelessChannel channel;
  net::PacketFactory factory;
  std::vector<std::unique_ptr<ConstantPositionModel>> mobilities;
  std::vector<std::unique_ptr<phy::WifiPhy>> phys;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::vector<std::unique_ptr<AodvAgent>> agents;
  std::vector<Delivery> deliveries;
};

// 5-node line with 200 m spacing: each node reaches only its direct
// neighbours (250 m range), so 0 -> 4 needs a 4-hop route.
std::vector<Vec2> line5() { return mobility::line_placement(5, 200.0); }

TEST(Aodv, DiscoversMultiHopRouteAndDelivers) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 1u);
  EXPECT_EQ(tb.agents[0]->counters().discovery_succeeded, 1u);
  // Intermediate nodes forwarded data.
  EXPECT_GE(tb.agents[1]->counters().data_forwarded, 1u);
  EXPECT_GE(tb.agents[3]->counters().data_forwarded, 1u);
}

TEST(Aodv, RouteIsReusedForSubsequentPackets) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  for (int i = 0; i < 10; ++i) {
    tb.sim.schedule(sim::Time::seconds(2.0 + i * 0.1), [&] { tb.send(0, 4); });
  }
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 11u);
  // One discovery serves all packets.
  EXPECT_EQ(tb.agents[0]->counters().discovery_started, 1u);
}

TEST(Aodv, PacketsBufferedDuringDiscovery) {
  RoutingBed tb(line5());
  // Burst before any route exists: all must arrive after discovery.
  tb.sim.schedule(sim::Time::seconds(1.0), [&] {
    for (int i = 0; i < 5; ++i) tb.send(0, 4);
  });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 5u);
  EXPECT_EQ(tb.agents[0]->counters().discovery_started, 1u);
}

TEST(Aodv, DeliveryToSelfIsImmediate) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(2, 2); });
  tb.sim.run_until(sim::Time::seconds(2.0));
  EXPECT_EQ(tb.delivered_at(2), 1u);
  EXPECT_EQ(tb.agents[2]->counters().rreq_originated, 0u);
}

TEST(Aodv, HelloBuildsNeighborTables) {
  RoutingBed tb(line5());
  tb.sim.run_until(sim::Time::seconds(5.0));
  // Middle node hears both direct neighbours; end nodes hear one.
  EXPECT_EQ(tb.agents[2]->neighbors().count(), 2u);
  EXPECT_EQ(tb.agents[0]->neighbors().count(), 1u);
  EXPECT_EQ(tb.agents[4]->neighbors().count(), 1u);
}

TEST(Aodv, UnreachableDestinationFailsDiscovery) {
  RoutingBed tb(line5());
  tb.exile(4);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(15.0));
  EXPECT_EQ(tb.delivered_at(4), 0u);
  EXPECT_EQ(tb.agents[0]->counters().discovery_failed, 1u);
  // All attempts were made (initial + retries).
  EXPECT_EQ(tb.agents[0]->counters().rreq_originated, 1u + AodvConfig{}.rreq_retries);
}

TEST(Aodv, LinkBreakTriggersRerrAndRediscovery) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  // Break the route: node 3 vanishes after the route is up.
  tb.sim.schedule(sim::Time::seconds(3.0), [&] { tb.exile(3); });
  // New traffic must fail over; 0->2 still works.
  tb.sim.schedule(sim::Time::seconds(6.0), [&] { tb.send(0, 2); });
  tb.sim.run_until(sim::Time::seconds(20.0));
  EXPECT_EQ(tb.delivered_at(2), 1u);
  // Someone detected the break and sent RERR.
  std::uint64_t rerrs = 0;
  for (const auto& a : tb.agents) rerrs += a->counters().rerr_sent;
  EXPECT_GE(rerrs, 1u);
}

TEST(Aodv, IntermediateNodeAnswersFromCache) {
  RoutingBed tb(line5());
  // First, 1 -> 4 builds state at nodes 1..4.
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(1, 4); });
  // Then 0 asks for 4: node 1 can answer from cache.
  tb.sim.schedule(sim::Time::seconds(3.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 2u);
  std::uint64_t cached = 0;
  for (const auto& a : tb.agents) cached += a->counters().rrep_intermediate;
  EXPECT_GE(cached, 1u);
}

TEST(Aodv, TtlLimitsDataPropagation) {
  AodvConfig cfg;
  cfg.data_ttl = 2;  // 0 -> 4 needs 4 hops; TTL 2 cannot make it
  RoutingBed tb(line5(), cfg);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 0u);
  std::uint64_t ttl_drops = 0;
  for (const auto& a : tb.agents) ttl_drops += a->counters().data_dropped_ttl;
  EXPECT_GE(ttl_drops, 1u);
}

TEST(Aodv, BidirectionalFlowsBothDeliver) {
  RoutingBed tb(line5());
  // Staggered starts: simultaneous first RREQs from marginal-SINR
  // endpoints can legitimately collide (hidden-interferer geometry).
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.schedule(sim::Time::seconds(1.3), [&] { tb.send(4, 0); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(4), 1u);
  EXPECT_EQ(tb.delivered_at(0), 1u);
}

TEST(Aodv, StarTopologyAllPairsThroughHub) {
  // Hub at centre, 4 leaves 200 m out in each direction: leaves cannot
  // hear each other (283-400 m apart), all pairs route via the hub.
  RoutingBed tb({{0, 0}, {200, 0}, {-200, 0}, {0, 200}, {0, -200}});
  tb.sim.schedule(sim::Time::seconds(1.0), [&] {
    tb.send(1, 2);
    tb.send(3, 4);
  });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.delivered_at(2), 1u);
  EXPECT_EQ(tb.delivered_at(4), 1u);
  EXPECT_GE(tb.agents[0]->counters().data_forwarded, 2u);
}

TEST(Aodv, NeighborLossViaHelloSilenceInvalidatesRoutes) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.schedule(sim::Time::seconds(3.0), [&] { tb.exile(1); });
  tb.sim.run_until(sim::Time::seconds(12.0));
  // Node 0 must have noticed neighbour 1 vanished.
  EXPECT_FALSE(tb.agents[0]->neighbors().contains(net::Address(1)));
  // And the route to 4 via 1 must no longer be valid.
  EXPECT_EQ(tb.agents[0]->routes().lookup(net::Address(4), tb.sim.now()),
            nullptr);
}

TEST(Aodv, CountersAreConsistent) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(10.0));
  const auto& c0 = tb.agents[0]->counters();
  EXPECT_EQ(c0.data_originated, 1u);
  EXPECT_EQ(c0.discovery_started, c0.discovery_succeeded + c0.discovery_failed);
  // Every node's RREQ receive count >= forward count.
  for (const auto& a : tb.agents) {
    const auto& c = a->counters();
    EXPECT_LE(c.rreq_forwarded + c.rreq_suppressed, c.rreq_received);
  }
}

TEST(Aodv, ExpandingRingFindsNearDestinationCheaply) {
  AodvConfig ers;
  ers.expanding_ring = true;
  ers.ers_ttl_start = 2;
  ers.ers_ttl_increment = 2;
  ers.ers_ttl_threshold = 4;
  // Destination one hop east; a long tail stretches west. A network-
  // wide RREQ floods the whole tail; a TTL-2 ring stops at the first
  // tail node.
  const std::vector<Vec2> branch{{0, 0},     {200, 0},   {-200, 0},
                                 {-400, 0},  {-600, 0},  {-800, 0}};
  RoutingBed with_ers(branch, ers);
  RoutingBed without(branch);
  // Send before the first HELLOs so a discovery is actually needed.
  with_ers.sim.schedule(sim::Time::millis(5.0), [&] { with_ers.send(0, 1); });
  without.sim.schedule(sim::Time::millis(5.0), [&] { without.send(0, 1); });
  with_ers.sim.run_until(sim::Time::seconds(8.0));
  without.sim.run_until(sim::Time::seconds(8.0));
  EXPECT_EQ(with_ers.delivered_at(1), 1u);
  EXPECT_EQ(without.delivered_at(1), 1u);
  auto total_rreq = [](RoutingBed& tb) {
    std::uint64_t n = 0;
    for (const auto& a : tb.agents) {
      n += a->counters().rreq_forwarded + a->counters().rreq_originated;
    }
    return n;
  };
  // The TTL-2 ring cannot storm the whole line; classic discovery does.
  EXPECT_LT(total_rreq(with_ers), total_rreq(without));
}

TEST(Aodv, ExpandingRingStillReachesFarDestination) {
  AodvConfig ers;
  ers.expanding_ring = true;
  ers.ers_ttl_start = 1;
  ers.ers_ttl_increment = 2;
  ers.ers_ttl_threshold = 3;
  RoutingBed tb(line5(), ers);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(15.0));
  // Rings 1 and 3 fail; the network-wide attempt succeeds.
  EXPECT_EQ(tb.delivered_at(4), 1u);
  EXPECT_GE(tb.agents[0]->counters().rreq_originated, 3u);
}

TEST(Aodv, ExpandingRingFailureExhaustsAllRingsAndRetries) {
  AodvConfig ers;
  ers.expanding_ring = true;
  ers.ers_ttl_start = 2;
  ers.ers_ttl_increment = 2;
  ers.ers_ttl_threshold = 4;
  ers.rreq_retries = 1;
  RoutingBed tb(line5(), ers);
  tb.exile(4);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(20.0));
  EXPECT_EQ(tb.agents[0]->counters().discovery_failed, 1u);
  // Rings {2, 4} + (1 + retries) network-wide attempts = 4 RREQs.
  EXPECT_EQ(tb.agents[0]->counters().rreq_originated, 4u);
}

TEST(Aodv, RerrPropagatesUpstreamOverMultipleHops) {
  RoutingBed tb(line5());
  // Steady traffic 0 -> 4 keeps the whole chain's routes alive.
  for (int i = 0; i < 30; ++i) {
    tb.sim.schedule(sim::Time::seconds(1.0 + i * 0.2), [&] { tb.send(0, 4); });
  }
  // Break the last link mid-stream.
  tb.sim.schedule(sim::Time::seconds(3.05), [&] { tb.exile(4); });
  tb.sim.run_until(sim::Time::seconds(12.0));
  // The break was detected at node 3 and the error reached node 0:
  // its route to 4 is gone even though node 0 never saw the break.
  EXPECT_EQ(tb.agents[0]->routes().lookup(net::Address(4), tb.sim.now()),
            nullptr);
  EXPECT_GE(tb.agents[3]->counters().rerr_sent, 1u);
  std::uint64_t rerr_rx = 0;
  for (const auto& a : tb.agents) rerr_rx += a->counters().rerr_received;
  EXPECT_GE(rerr_rx, 1u);
}

TEST(Aodv, BufferOverflowDropsOldest) {
  AodvConfig cfg;
  cfg.buffer_capacity = 3;
  RoutingBed tb(line5(), cfg);
  tb.exile(4);  // discovery will fail; buffer fills meanwhile
  tb.sim.schedule(sim::Time::seconds(1.0), [&] {
    for (int i = 0; i < 8; ++i) tb.send(0, 4);
  });
  tb.sim.run_until(sim::Time::seconds(15.0));
  const auto& c = tb.agents[0]->counters();
  // 8 offered, capacity 3: at least 5 displaced from the buffer, the
  // remaining 3 dropped when discovery failed.
  EXPECT_GE(c.data_dropped_buffer, 5u);
  EXPECT_GE(c.data_dropped_no_route, 3u);
  EXPECT_EQ(tb.delivered_at(4), 0u);
}

TEST(Aodv, BufferedPacketsExpireOnTimeout) {
  AodvConfig cfg;
  cfg.buffer_timeout = sim::Time::seconds(2.0);
  cfg.rreq_retries = 30;  // discovery keeps trying past buffer expiry
  RoutingBed tb(line5(), cfg);
  tb.exile(4);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(8.0));
  EXPECT_GE(tb.agents[0]->counters().data_dropped_buffer, 1u);
}

TEST(Aodv, SeqnoMonotonicityPreventsStaleRoutes) {
  RoutingBed tb(line5());
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(5.0));
  RouteEntry* e = tb.agents[0]->routes().find(net::Address(4));
  ASSERT_NE(e, nullptr);
  const std::uint32_t seq_before = e->dest_seqno;
  EXPECT_TRUE(e->valid_seqno);
  // Later discovery yields a strictly fresher seqno.
  tb.sim.schedule(sim::Time::seconds(5.5), [&] { tb.exile(3); });
  tb.sim.schedule(sim::Time::seconds(9.0), [&] {
    // Reconnect 3 at a new position still bridging 2 and 4.
    tb.mobilities[3]->set_position(Vec2{600.0, 30.0});
  });
  tb.sim.schedule(sim::Time::seconds(12.0), [&] { tb.send(0, 4); });
  tb.sim.run_until(sim::Time::seconds(25.0));
  RouteEntry* e2 = tb.agents[0]->routes().find(net::Address(4));
  ASSERT_NE(e2, nullptr);
  EXPECT_GT(e2->dest_seqno, seq_before);
}

TEST(Aodv, SeqnoWraparoundAcceptsPostRolloverRoutes) {
  // RFC 3561 section 6.1 regression: a destination whose sequence
  // number rolled over past 0xFFFFFFFF advertises a small seqno that
  // is *fresher* than the huge pre-wrap value. Plain unsigned
  // comparison rejects the update and pins the stale route forever;
  // circular comparison must accept it.
  RoutingBed tb({{0, 0}, {200, 0}});

  tb.sim.schedule(sim::Time::millis(100.0), [&] {
    // Node 0 holds a pre-wrap route to (fictional) destination 9.
    RouteEntry stale;
    stale.dest = net::Address(9);
    stale.next_hop = net::Address(1);
    stale.hop_count = 5;
    stale.dest_seqno = 0xFFFFFFF0u;
    stale.valid_seqno = true;
    stale.state = RouteState::kValid;
    stale.expires = sim::Time::seconds(100.0);
    tb.agents[0]->routes().upsert(stale);
  });

  tb.sim.schedule(sim::Time::millis(200.0), [&] {
    // Node 1 relays an RREP for destination 9 whose seqno wrapped.
    RrepHeader hdr;
    hdr.dest = net::Address(9);
    hdr.dest_seqno = 2;  // post-rollover: circularly newer than 0xFFFFFFF0
    hdr.origin = net::Address(0);
    hdr.hop_count = 1;
    hdr.lifetime_ms = 5000;
    net::Packet pkt = tb.factory.make(0, tb.sim.now());
    pkt.push(hdr);
    tb.macs[1]->enqueue(std::move(pkt), net::Address(0));
  });

  tb.sim.run_until(sim::Time::seconds(1.0));

  RouteEntry* e = tb.agents[0]->routes().find(net::Address(9));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->dest_seqno, 2u) << "post-wrap seqno rejected as stale";
  EXPECT_EQ(e->hop_count, 2u);  // the fresher 2-hop path replaced 5 hops
}

// --- RREQ duplicate set and pending events --------------------------------

// Defers every first copy for `delay`, logs each assessment (when, and
// how many duplicates it counted) and never forwards.
class LoggingDeferPolicy final : public RebroadcastPolicy {
 public:
  struct Assessment {
    sim::Time at;
    std::uint32_t duplicates;
  };

  LoggingDeferPolicy(const sim::Simulator& simulator, sim::Time delay,
                     std::vector<Assessment>& log)
      : sim_(simulator), delay_(delay), log_(log) {}

  RebroadcastDecision decide(const RebroadcastContext&,
                             sim::RngStream&) override {
    return {RebroadcastAction::kDefer, delay_};
  }
  bool assess(const RebroadcastContext& ctx, sim::RngStream&) override {
    log_.push_back({sim_.now(), ctx.duplicates_seen});
    return false;
  }
  [[nodiscard]] std::string name() const override { return "logging-defer"; }

 private:
  const sim::Simulator& sim_;
  sim::Time delay_;
  std::vector<Assessment>& log_;
};

Policies logging_defer(sim::Time delay,
                       std::vector<LoggingDeferPolicy::Assessment>& log) {
  Policies p;
  p.rebroadcast = [delay, &log](const sim::Simulator& simulator) {
    return std::make_unique<LoggingDeferPolicy>(simulator, delay, log);
  };
  return p;
}

// An RREQ from fictional node 9 for fictional node 8, as relayed by
// some node two hops out.
RreqHeader relayed_rreq() {
  RreqHeader h;
  h.rreq_id = 1;
  h.origin = net::Address(9);
  h.origin_seqno = 1;
  h.dest = net::Address(8);
  h.hop_count = 2;
  h.ttl = 10;
  return h;
}

// Node `from` broadcasts one copy of `hdr` (with a path load when the
// agents run the load metric).
void broadcast_rreq(RoutingBed& tb, std::size_t from, const RreqHeader& hdr,
                    std::optional<double> path_load = std::nullopt) {
  net::Packet pkt = tb.factory.make(0, tb.sim.now());
  if (path_load) pkt.push(LoadTlv{*path_load});
  pkt.push(hdr);
  tb.macs[from]->enqueue(std::move(pkt), net::Address::broadcast());
}

// Two nodes in range of each other; node 1 plays the relay.
std::vector<Vec2> pair_placement() { return {{0, 0}, {200, 0}}; }

// Node 1 relays a copy of relayed_rreq() at `at_s` seconds.
void relay_at(RoutingBed& tb, double at_s) {
  tb.sim.schedule_at(sim::Time::seconds(at_s),
                     [&tb] { broadcast_rreq(tb, 1, relayed_rreq()); });
}

TEST(AodvRreqTable, DuplicateAfterForwardIsSuppressedUntilCacheTimeout) {
  RoutingBed tb(pair_placement());
  const AodvAgent::Counters& c = tb.agents[0]->counters();
  AodvAgent::Counters before{};
  relay_at(tb, 0.1);
  tb.sim.run_until(sim::Time::seconds(1.0));
  // Node 0 forwarded its first copy long ago (10 ms jitter at most).
  ASSERT_EQ(c.rreq_received, 1u);
  ASSERT_EQ(c.rreq_forwarded, 1u);

  // Inside rreq_cache_timeout (5 s from 0.1 s) a copy is a duplicate,
  // although the record's event has fired.
  for (const double at : {1.0, 4.0}) {
    before = c;
    relay_at(tb, at);
    tb.sim.run_until(sim::Time::seconds(at + 0.5));
    EXPECT_EQ(c.rreq_received, 1u) << "copy at " << at << " s";
    EXPECT_EQ(c.rreq_duplicates, before.rreq_duplicates + 1)
        << "copy at " << at << " s";
    EXPECT_EQ(c.rreq_forwarded, 1u) << "copy at " << at << " s";
  }

  // Housekeeping (every second) purged it after 5.1 s: the same RREQ
  // is new again.
  relay_at(tb, 7.0);
  tb.sim.run_until(sim::Time::seconds(7.5));
  EXPECT_EQ(c.rreq_received, 2u);
  EXPECT_EQ(c.rreq_forwarded, 2u);
}

TEST(AodvRreqTable, PendingEventOutlivesCacheTimeout) {
  // The deferred assessment (3 s) outlasts the cache timeout (1 s).
  AodvConfig cfg;
  cfg.rreq_cache_timeout = sim::Time::seconds(1.0);
  std::vector<LoggingDeferPolicy::Assessment> log;
  RoutingBed tb(pair_placement(), cfg, 1,
                logging_defer(sim::Time::seconds(3.0), log));
  const AodvAgent::Counters& c = tb.agents[0]->counters();
  relay_at(tb, 0.1);
  // Past the timeout and two housekeeping passes, with the assessment
  // still pending: the RREQ is still known, so this is a duplicate.
  relay_at(tb, 2.5);
  tb.sim.run_until(sim::Time::seconds(2.9));
  EXPECT_EQ(c.rreq_received, 1u);
  EXPECT_EQ(c.rreq_duplicates, 1u);
  EXPECT_TRUE(log.empty());

  tb.sim.run_until(sim::Time::seconds(3.5));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_GE(log[0].at, sim::Time::seconds(3.1));
  EXPECT_EQ(log[0].duplicates, 1u);

  // Once the assessment ran, the next housekeeping pass forgets it.
  relay_at(tb, 5.0);
  tb.sim.run_until(sim::Time::seconds(5.5));
  EXPECT_EQ(c.rreq_received, 2u);
}

TEST(AodvRreqTable, PauseCancelsPendingEventsAndForgetsSeenRreqs) {
  std::vector<LoggingDeferPolicy::Assessment> log;
  RoutingBed tb(pair_placement(), {}, 1,
                logging_defer(sim::Time::seconds(3.0), log));
  const AodvAgent::Counters& c = tb.agents[0]->counters();
  // First copy at 0.1 s defers to about 3.1 s; the node crashes at 1 s
  // and restarts at 1.5 s.
  relay_at(tb, 0.1);
  tb.sim.schedule(sim::Time::seconds(1.0), [&] { tb.agents[0]->pause(); });
  tb.sim.schedule(sim::Time::seconds(1.5), [&] { tb.agents[0]->resume(); });
  relay_at(tb, 2.0);
  tb.sim.run_until(sim::Time::seconds(2.5));
  // Well inside rreq_cache_timeout, yet the restarted node takes the
  // copy as new: the crash forgot the RREQ.
  EXPECT_EQ(c.rreq_received, 2u);
  EXPECT_EQ(c.rreq_duplicates, 0u);

  // Only the second copy's assessment runs, 3 s after it; the first
  // copy's event (due at 3.1 s) died with the crash.
  tb.sim.run_until(sim::Time::seconds(6.0));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_GE(log[0].at, sim::Time::seconds(5.0));
}

TEST(AodvRreqTable, DestinationAnswersBestCopyOfItsReplyWindow) {
  AodvConfig cfg;
  cfg.use_load_metric = true;
  Policies policies;
  policies.selection = [] { return std::make_unique<BestMetricSelection>(); };
  RoutingBed tb(pair_placement(), cfg, 1, policies);
  // Node 1 asks node 0 for a route, three copies in quick succession:
  // inside the destination's 50 ms window, the second has the lowest
  // path load.
  RreqHeader hdr = relayed_rreq();
  hdr.origin = net::Address(1);
  hdr.dest = net::Address(0);
  tb.sim.schedule(sim::Time::seconds(0.1), [&] {
    for (const double load : {0.8, 0.3, 0.6}) broadcast_rreq(tb, 1, hdr, load);
  });
  tb.sim.run_until(sim::Time::seconds(1.0));
  const AodvAgent::Counters& d = tb.agents[0]->counters();
  EXPECT_EQ(d.rreq_received, 1u);
  EXPECT_EQ(d.rreq_duplicates, 2u);
  EXPECT_EQ(d.rrep_originated, 1u);
  // The reply carries the best copy's metric to the origin's route.
  const RouteEntry* r = tb.agents[1]->routes().find(net::Address(0));
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->valid_seqno);
  EXPECT_EQ(r->metric, 0.3);
}

}  // namespace
}  // namespace wmn::routing
