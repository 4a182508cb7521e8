// Traffic-source timing and production-workload model tests.
//
// Pins the timing contract every traffic::Source keeps (see
// source.hpp): absolute-base pacing (no cumulative rounding drift)
// and no events scheduled at or past `stop`. Also exercises the F11
// workload family: heavy-tailed on/off bursts, the per-user session
// aggregation model, and the seeded flow-arrival process.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/protocols.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "traffic/flow_builder.hpp"
#include "traffic/flow_registry.hpp"
#include "traffic/packet_sink.hpp"
#include "traffic/rate_envelope.hpp"
#include "traffic/session_source.hpp"
#include "traffic/source.hpp"

namespace wmn::traffic {
namespace {

using mobility::ConstantPositionModel;
using mobility::Vec2;

// Two adjacent nodes with full stacks and a sink on node 1.
struct TrafficBed {
  explicit TrafficBed(std::uint64_t seed = 1)
      : sim(seed), channel(sim, std::make_unique<phy::LogDistanceModel>()) {
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

// ----- CBR pacing drift (regression) ----------------------------------------
//
// 3 pps has a period of 1/3 s, which rounds DOWN to 333333333 ns. The
// old per-tick rescheduling lost 1/3 ns per packet, so over 100 s the
// schedule ran ~100 ns early and a 301st packet slipped in before the
// stop boundary. Absolute-base pacing puts tick k at start + k/3 s with
// error below one rounding ulp independent of k: exactly 300 packets.
TEST(CbrTiming, NonDyadicRateSendsExactCount) {
  TrafficBed tb;
  CbrConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 3.0;
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(101.0);
  cfg.randomize_start_phase = false;
  CbrSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(102.0));
  EXPECT_EQ(src.packets_sent(), 300u);
}

TEST(CbrTiming, DyadicRateSendsExactCount) {
  TrafficBed tb;
  CbrConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 4.0;
  cfg.start = sim::Time::seconds(2.0);
  cfg.stop = sim::Time::seconds(12.0);
  cfg.randomize_start_phase = false;
  CbrSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(14.0));
  EXPECT_EQ(src.packets_sent(), 40u);
}

// With a random phase the count may only shift by the one packet the
// phase offset displaces across the stop boundary.
TEST(CbrTiming, RandomPhaseCountWithinOne) {
  TrafficBed tb;
  CbrConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 3.0;
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(31.0);
  CbrSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(33.0));
  EXPECT_GE(src.packets_sent(), 89u);
  EXPECT_LE(src.packets_sent(), 90u);
}

// ----- stop-boundary guards (regression) ------------------------------------

TEST(CbrTiming, NoEventsAfterStop) {
  TrafficBed tb;
  CbrConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 10.0;
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(5.0);
  CbrSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(6.0));
  EXPECT_FALSE(src.timer_armed());
  const std::uint64_t at_stop = src.packets_sent();
  tb.sim.run_until(sim::Time::seconds(20.0));
  EXPECT_EQ(src.packets_sent(), at_stop);
  EXPECT_FALSE(src.timer_armed());
}

TEST(OnOffTiming, NoEventsAfterStop) {
  TrafficBed tb;
  OnOffConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 20.0;
  cfg.mean_on = sim::Time::seconds(0.5);
  cfg.mean_off = sim::Time::seconds(0.5);
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(8.0);
  OnOffSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(9.0));
  EXPECT_FALSE(src.timer_armed());
  const std::uint64_t at_stop = src.packets_sent();
  tb.sim.run_until(sim::Time::seconds(25.0));
  EXPECT_EQ(src.packets_sent(), at_stop);
  EXPECT_FALSE(src.timer_armed());
}

// An OFF period that would end past `stop` must not re-arm the burst
// cycle (the stale off->on wakeup bug).
TEST(OnOffTiming, OffPeriodCrossingStopGoesQuiet) {
  TrafficBed tb;
  OnOffConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 50.0;
  cfg.mean_on = sim::Time::seconds(0.2);
  cfg.mean_off = sim::Time::seconds(30.0);  // OFF gaps dwarf the window
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(5.0);
  OnOffSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(40.0));
  EXPECT_FALSE(src.timer_armed());
}

// ----- heavy-tailed on/off source -------------------------------------------

TEST(HeavyTailSource, EmitsBurstsWithinWindow) {
  TrafficBed tb;
  OnOffConfig cfg;
  cfg.on_law = OnOffConfig::OnLaw::kPareto;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.rate_pps = 20.0;
  cfg.mean_on = sim::Time::seconds(1.0);
  cfg.mean_off = sim::Time::seconds(1.0);
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(21.0);
  OnOffSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(23.0));
  EXPECT_GT(src.bursts_started(), 0u);
  EXPECT_GT(src.packets_sent(), 0u);
  // Roughly half duty cycle: well below the CBR-equivalent 400.
  EXPECT_LT(src.packets_sent(), 400u);
  EXPECT_FALSE(src.timer_armed());
  const std::uint64_t at_stop = src.packets_sent();
  tb.sim.run_until(sim::Time::seconds(60.0));
  EXPECT_EQ(src.packets_sent(), at_stop);
}

TEST(HeavyTailSource, SameSeedSameSchedule) {
  auto run_once = [] {
    TrafficBed tb(42);
    OnOffConfig cfg;
    cfg.on_law = OnOffConfig::OnLaw::kPareto;
    cfg.flow_id = 7;
    cfg.dest = net::Address(1);
    cfg.rate_pps = 20.0;
    cfg.start = sim::Time::seconds(1.0);
    cfg.stop = sim::Time::seconds(15.0);
    OnOffSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
    tb.sim.run_until(sim::Time::seconds(16.0));
    return std::pair{src.packets_sent(), src.bursts_started()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// ----- per-user session aggregation -----------------------------------------

TEST(SessionSource, SessionsArriveAndComplete) {
  TrafficBed tb;
  SessionSourceConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.users = 1000;
  cfg.session_rate_per_user_per_s = 0.002;  // 2 sessions/s aggregate
  cfg.session_rate_pps = 16.0;
  cfg.mean_session_pkts = 8.0;
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(21.0);
  SessionSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(23.0));
  EXPECT_GT(src.sessions_started(), 5u);
  EXPECT_GT(src.sessions_completed(), 0u);
  EXPECT_LE(src.sessions_completed(), src.sessions_started());
  EXPECT_GT(src.packets_sent(), src.sessions_started());
  // After stop every session and the arrival process are quiet.
  EXPECT_FALSE(src.timer_armed());
  EXPECT_EQ(src.active_sessions(), 0u);
  // All packets share the node's one aggregate flow.
  const FlowRecord* r = tb.registry.find(1);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->sent, src.packets_sent());
}

TEST(SessionSource, ConcurrencyCapRejectsNotTruncates) {
  TrafficBed tb;
  SessionSourceConfig cfg;
  cfg.flow_id = 1;
  cfg.dest = net::Address(1);
  cfg.users = 1000;
  cfg.session_rate_per_user_per_s = 0.05;  // 50 arrivals/s
  cfg.session_rate_pps = 16.0;
  cfg.mean_session_pkts = 20.0;  // ~1.25 s per session
  cfg.max_active_sessions = 1;
  cfg.start = sim::Time::seconds(1.0);
  cfg.stop = sim::Time::seconds(6.0);
  SessionSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
  tb.sim.run_until(sim::Time::seconds(8.0));
  EXPECT_GT(src.sessions_rejected(), 0u);
  EXPECT_GT(src.sessions_started(), 0u);
  EXPECT_FALSE(src.timer_armed());
}

// Rejected arrivals still consume their RNG draws, so the arrival
// process (and everything after it) is identical whether or not the
// cap bites — same seed, different caps, same arrival count.
TEST(SessionSource, RejectionDoesNotPerturbArrivalProcess) {
  auto arrivals_with_cap = [](std::uint32_t cap) {
    TrafficBed tb(9);
    SessionSourceConfig cfg;
    cfg.flow_id = 3;
    cfg.dest = net::Address(1);
    cfg.users = 1000;
    cfg.session_rate_per_user_per_s = 0.02;  // 20 arrivals/s
    cfg.session_rate_pps = 16.0;
    cfg.mean_session_pkts = 20.0;
    cfg.max_active_sessions = cap;
    cfg.start = sim::Time::seconds(1.0);
    cfg.stop = sim::Time::seconds(11.0);
    SessionSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
    tb.sim.run_until(sim::Time::seconds(12.0));
    return src.sessions_started() + src.sessions_rejected();
  };
  EXPECT_EQ(arrivals_with_cap(1), arrivals_with_cap(64));
}

TEST(SessionSource, SameSeedSameWorkload) {
  auto run_once = [] {
    TrafficBed tb(123);
    SessionSourceConfig cfg;
    cfg.flow_id = 2;
    cfg.dest = net::Address(1);
    cfg.users = 500;
    cfg.session_rate_per_user_per_s = 0.004;
    cfg.start = sim::Time::seconds(1.0);
    cfg.stop = sim::Time::seconds(16.0);
    SessionSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
    tb.sim.run_until(sim::Time::seconds(18.0));
    return std::tuple{src.packets_sent(), src.sessions_started(),
                      src.sessions_completed()};
  };
  EXPECT_EQ(run_once(), run_once());
}

// ----- seeded flow-arrival process ------------------------------------------

TEST(ArrivalOffsets, FirstIsZeroAndNonDecreasing) {
  sim::RngStream rng(7, 0);
  const auto offs = arrival_offsets(8, sim::Time::seconds(2.0),
                                    sim::Time::seconds(60.0), rng);
  ASSERT_EQ(offs.size(), 8u);
  EXPECT_EQ(offs[0], sim::Time::zero());
  for (std::size_t i = 1; i < offs.size(); ++i) {
    EXPECT_GE(offs[i], offs[i - 1]);
    EXPECT_LE(offs[i], sim::Time::seconds(60.0));
  }
}

TEST(ArrivalOffsets, ClampedToHorizon) {
  sim::RngStream rng(7, 1);
  const sim::Time horizon = sim::Time::seconds(1.0);
  const auto offs =
      arrival_offsets(32, sim::Time::seconds(10.0), horizon, rng);
  for (const sim::Time t : offs) EXPECT_LE(t, horizon);
  EXPECT_EQ(offs.back(), horizon);  // mean gap >> horizon: clamp must bite
}

TEST(ArrivalOffsets, Deterministic) {
  sim::RngStream a(11, 3);
  sim::RngStream b(11, 3);
  EXPECT_EQ(arrival_offsets(10, sim::Time::seconds(1.0),
                            sim::Time::seconds(30.0), a),
            arrival_offsets(10, sim::Time::seconds(1.0),
                            sim::Time::seconds(30.0), b));
}

TEST(ArrivalOffsets, ZeroFlows) {
  sim::RngStream rng(1, 0);
  EXPECT_TRUE(arrival_offsets(0, sim::Time::seconds(1.0),
                              sim::Time::seconds(10.0), rng)
                  .empty());
}

// ----- piecewise-linear rate envelope (flash crowd / diurnal) ---------------

TEST(RateEnvelope, InterpolatesAndClampsEnds) {
  const RateEnvelope env({{10.0, 1.0}, {20.0, 5.0}, {30.0, 5.0}, {40.0, 1.0}});
  EXPECT_TRUE(env.active());
  EXPECT_DOUBLE_EQ(env.multiplier_at(0.0), 1.0);   // before first knot
  EXPECT_DOUBLE_EQ(env.multiplier_at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(env.multiplier_at(15.0), 3.0);  // linear ramp
  EXPECT_DOUBLE_EQ(env.multiplier_at(25.0), 5.0);  // plateau
  EXPECT_DOUBLE_EQ(env.multiplier_at(35.0), 3.0);  // ramp down
  EXPECT_DOUBLE_EQ(env.multiplier_at(99.0), 1.0);  // after last knot
}

TEST(RateEnvelope, EmptyIsInactiveIdentity) {
  const RateEnvelope env;
  EXPECT_FALSE(env.active());
  EXPECT_DOUBLE_EQ(env.multiplier_at(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(env.multiplier_at(123.0), 1.0);
}

TEST(RateEnvelope, OriginShiftsKnotTimes) {
  // Knots are relative to the envelope origin (the traffic start), so
  // a source that begins at t=5 sees knot "0" at absolute t=5.
  const RateEnvelope env({{0.0, 2.0}, {10.0, 4.0}}, /*origin_s=*/5.0);
  EXPECT_DOUBLE_EQ(env.multiplier_at(5.0), 2.0);
  EXPECT_DOUBLE_EQ(env.multiplier_at(10.0), 3.0);
  EXPECT_DOUBLE_EQ(env.multiplier_at(15.0), 4.0);
}

TEST(RateEnvelope, ZeroMultiplierFlooredNotDivByZero) {
  const RateEnvelope env({{0.0, 0.0}, {10.0, 1.0}});
  EXPECT_GE(env.multiplier_at(0.0), RateEnvelope::kMinMultiplier);
}

TEST(SessionSource, EnvelopeDeterministic) {
  auto run_once = [] {
    TrafficBed tb(77);
    SessionSourceConfig cfg;
    cfg.flow_id = 2;
    cfg.dest = net::Address(1);
    cfg.users = 1000;
    cfg.session_rate_per_user_per_s = 0.002;
    cfg.start = sim::Time::seconds(1.0);
    cfg.stop = sim::Time::seconds(21.0);
    // Flash crowd: 8x surge in the middle of the window.
    cfg.envelope = RateEnvelope({{0.0, 1.0}, {8.0, 1.0}, {9.0, 8.0},
                                 {14.0, 8.0}, {15.0, 1.0}},
                                /*origin_s=*/1.0);
    SessionSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
    tb.sim.run_until(sim::Time::seconds(23.0));
    return std::tuple{src.packets_sent(), src.sessions_started(),
                      src.sessions_completed()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SessionSource, FlashCrowdRaisesArrivals) {
  auto arrivals = [](const RateEnvelope& env) {
    TrafficBed tb(31);
    SessionSourceConfig cfg;
    cfg.flow_id = 2;
    cfg.dest = net::Address(1);
    cfg.users = 1000;
    cfg.session_rate_per_user_per_s = 0.002;  // 2/s baseline
    cfg.start = sim::Time::seconds(1.0);
    cfg.stop = sim::Time::seconds(21.0);
    cfg.envelope = env;
    SessionSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
    tb.sim.run_until(sim::Time::seconds(23.0));
    return src.sessions_started() + src.sessions_rejected();
  };
  const std::uint64_t flat = arrivals(RateEnvelope{});
  const std::uint64_t surged = arrivals(RateEnvelope(
      {{0.0, 1.0}, {5.0, 1.0}, {6.0, 10.0}, {14.0, 10.0}, {15.0, 1.0}},
      /*origin_s=*/1.0));
  EXPECT_GT(surged, flat + flat / 2);  // clear surge, not noise
}

// A constant-1 envelope multiplies every rate by exactly 1.0, which is
// bit-exact: the workload must be identical to no envelope at all —
// the overload knob cannot perturb baseline results just by existing.
TEST(SessionSource, UnitEnvelopeBitIdenticalToNone) {
  auto workload = [](const RateEnvelope& env) {
    TrafficBed tb(55);
    SessionSourceConfig cfg;
    cfg.flow_id = 2;
    cfg.dest = net::Address(1);
    cfg.users = 1000;
    cfg.session_rate_per_user_per_s = 0.003;
    cfg.start = sim::Time::seconds(1.0);
    cfg.stop = sim::Time::seconds(16.0);
    cfg.envelope = env;
    SessionSource src(tb.sim, cfg, *tb.agents[0], tb.factory, tb.registry);
    tb.sim.run_until(sim::Time::seconds(18.0));
    return std::tuple{src.packets_sent(), src.sessions_started(),
                      tb.sim.events_executed()};
  };
  EXPECT_EQ(workload(RateEnvelope{}),
            workload(RateEnvelope({{0.0, 1.0}, {10.0, 1.0}})));
}

TEST(ArrivalOffsets, EnvelopeOverloadDeterministicAndDenser) {
  const RateEnvelope surge({{0.0, 1.0}, {10.0, 6.0}});
  sim::RngStream a(13, 2);
  sim::RngStream b(13, 2);
  const auto offs_a = arrival_offsets(12, sim::Time::seconds(2.0),
                                      sim::Time::seconds(60.0), a, surge);
  const auto offs_b = arrival_offsets(12, sim::Time::seconds(2.0),
                                      sim::Time::seconds(60.0), b, surge);
  EXPECT_EQ(offs_a, offs_b);
  // Rising rate squeezes the later gaps: the surged schedule finishes
  // no later than the flat one drawn from the same stream.
  sim::RngStream c(13, 2);
  const auto flat = arrival_offsets(12, sim::Time::seconds(2.0),
                                    sim::Time::seconds(60.0), c);
  EXPECT_LE(offs_a.back(), flat.back());
}

TEST(ArrivalOffsets, EmptyEnvelopeMatchesLegacyOverload) {
  sim::RngStream a(17, 4);
  sim::RngStream b(17, 4);
  EXPECT_EQ(arrival_offsets(9, sim::Time::seconds(1.5),
                            sim::Time::seconds(40.0), a),
            arrival_offsets(9, sim::Time::seconds(1.5),
                            sim::Time::seconds(40.0), b, RateEnvelope{}));
}

}  // namespace
}  // namespace wmn::traffic
