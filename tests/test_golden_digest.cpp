// Golden digests: exact fingerprints of sixteen pinned configurations.
//
// test_determinism proves a run repeats itself; it cannot notice a
// change that moves every run the same way. These digests were
// recorded once and must never drift silently: a change that perturbs
// event order (a same-time tie, an extra or missing event, a different
// draw) fails here loudly. A change that is meant to move the physics
// re-pins them, and says why.
//
// Re-pinned when weak copies (below sensitivity) left the calendar for
// the receivers' interference ledgers: every event count fell by
// 77-81%, and the digests moved with it. Re-pinned only after
// tests/test_equivalence.cpp passed on that change: all eight metrics
// of mesh100, mobile100 and mesh100 under churn within their bands,
// Welch and seed for seed (where this build matches the reference
// exactly), with all four controls as specified. With sim_event_count
// zeroed, eight of the nine digests are bit-identical to the old ones;
// Mesh400, a chaotic RREQ storm at this horizon, counts one more SINR
// failure (287,757 for 287,756) with the same PDR and mean delay.
//
// Re-pinned when carrier sense became pulled (DESIGN.md, "Carrier
// sense is pulled"): the radio's CCA watch event and the MAC's DIFS
// and backoff timers gave way to one access timer per contending MAC.
// Every event count fell, by 5.7% (GatewaySessions) to 29.6%
// (Mesh400), and only the event count moved: with sim_event_count
// zeroed, all sixteen digests are bit-identical to the old ones (the
// second Mobile100Blackouts digest pins exactly that), as are the
// simbench batch fingerprints of all four workloads.
//
// The configurations are the simulator benchmark's four workloads
// (simbench/simbench.cpp) at seed 1000, cut to 2 s of warm-up, 3 s of
// traffic and 1 s of drain, plus five variants that take the channel
// paths those four never reach: the per-pair scan (spatial index off),
// the per-pair scan under a fault overlay (churn and an outage),
// RTS/CTS, log-normal shadowing and link blackouts, plus three that run
// the traffic models the four leave out: Poisson on/off, heavy-tail
// on/off, and gateway sessions under a flash-crowd rate envelope, plus
// three that run the RREQ paths CLNLR never takes: blind flooding,
// gossip and counter-based discovery, plus one that turns on the AODV
// resilience extensions, the only runs that send RERRs to precursors.
//
// Mesh400 also carries a memory ceiling: bytes_per_node() may not grow
// more than 10% above its measured value. It replaces the old
// bench-harness counter gate on the same 400-node point, which allowed
// the same 10% but ran only in a separate CI job.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "exp/metrics.hpp"
#include "exp/scenario.hpp"

namespace wmn {
namespace {

exp::ScenarioConfig mesh100() {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 100;
  cfg.area_width_m = 1000.0;
  cfg.area_height_m = 1000.0;
  cfg.placement = exp::Placement::kPerturbedGrid;
  cfg.placement_jitter_m = 60.0;
  cfg.traffic.n_flows = 10;
  cfg.traffic.rate_pps = 6.0;
  cfg.traffic.packet_bytes = 512;
  cfg.warmup = sim::Time::seconds(2.0);
  cfg.traffic_time = sim::Time::seconds(3.0);
  cfg.drain = sim::Time::seconds(1.0);
  cfg.seed = 1000;
  cfg.protocol = core::Protocol::kClnlr;
  return cfg;
}

exp::ScenarioConfig mesh400() {
  exp::ScenarioConfig cfg = mesh100();
  cfg.n_nodes = 400;
  cfg.area_width_m = 2000.0;
  cfg.area_height_m = 2000.0;
  cfg.traffic.n_flows = 40;
  return cfg;
}

exp::ScenarioConfig gateway_sessions() {
  exp::ScenarioConfig cfg = mesh100();
  cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
  cfg.traffic.n_gateways = 3;
  cfg.traffic.n_flows = 12;
  cfg.traffic.model = exp::TrafficSpec::Model::kSessions;
  cfg.traffic.users_per_node = 1000;
  cfg.traffic.session_rate_per_user_per_s = 0.004;
  cfg.traffic.mean_arrival_gap_s = 1.0;
  return cfg;
}

exp::ScenarioConfig mobile100() {
  exp::ScenarioConfig cfg = mesh100();
  cfg.mobility.max_speed_mps = 10.0;
  cfg.mobility.pause = sim::Time::seconds(2.0);
  return cfg;
}

struct Golden {
  std::uint64_t events;
  std::uint64_t digest;
};

// Returns the finished scenario for further checks.
std::unique_ptr<exp::Scenario> expect_golden(const exp::ScenarioConfig& cfg,
                                             Golden want) {
  auto s = std::make_unique<exp::Scenario>(cfg);
  s->run();
  const Golden got{s->simulator().events_executed(),
                   exp::fingerprint(s->metrics())};
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.digest, want.digest)
      << "fingerprint drifted: got 0x" << std::hex << got.digest;
  return s;
}

TEST(GoldenDigest, Mesh100) {
  expect_golden(mesh100(), {185839, 0x88699a735a13ca8b});
}

TEST(GoldenDigest, Mesh400) {
  const auto s = expect_golden(mesh400(), {1403922, 0x45128f57802df937});
  // Measured 11,929 B (15,735 B before static neighbour lists kept
  // 16-byte weak-link records and route entries lost their precursor
  // vectors); the ceiling is that plus 10%.
  EXPECT_LE(s->bytes_per_node(), 13121u);
}

TEST(GoldenDigest, GatewaySessions) {
  expect_golden(gateway_sessions(), {93265, 0x0486588ebe5d64e1});
}

TEST(GoldenDigest, Mobile100) {
  expect_golden(mobile100(), {176401, 0xa12367026e29c76d});
}

TEST(GoldenDigest, Mesh100FullScan) {
  exp::ScenarioConfig cfg = mesh100();
  cfg.spatial_index = false;
  const auto s = expect_golden(cfg, {185839, 0x88699a735a13ca8b});
  EXPECT_EQ(s->channel().spatial_index(), nullptr);
}

TEST(GoldenDigest, Mobile100ChurnAndOutage) {
  exp::ScenarioConfig cfg = mobile100();
  cfg.fault.churn.rate_per_s = 1.0;
  cfg.fault.churn.mean_downtime = sim::Time::seconds(1.0);
  cfg.fault.churn.start = cfg.warmup;
  cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
  cfg.fault.outages.push_back(
      fault::NodeOutage{7, sim::Time::seconds(2.5), sim::Time::seconds(4.0)});
  expect_golden(cfg, {149376, 0xcf132ecf97d78d2e});
}

TEST(GoldenDigest, Mesh100RtsCts) {
  exp::ScenarioConfig cfg = mesh100();
  cfg.mac.rts_threshold_bytes = 256;
  expect_golden(cfg, {243386, 0x3f0eb27f0f27a059});
}

// Two bidirectional 30 dB link blackouts on a mobile mesh. The
// second digest zeroes sim_event_count, so it pins every other field
// apart from the event count.
//
// Re-pinned when fault::FaultTimeline became the only fault model: the
// live injector it replaced toggled each blackout on and off with two
// calendar events, which the timeline's time-based lookup does not
// need. Events fell by exactly 4 (804504 -> 804500) and the digest
// moved with them (was 0x8b9485dceff5272d); the zeroed digest did not
// move. Re-pinned again with the interference ledger (804500 ->
// 185948 events, was 0x22736721d06cc1d5); the zeroed digest held.
TEST(GoldenDigest, Mobile100Blackouts) {
  exp::ScenarioConfig cfg = mobile100();
  for (const auto& [a, b] : {std::pair{3u, 4u}, std::pair{10u, 11u}}) {
    cfg.fault.blackouts.push_back(fault::LinkBlackout{
        a, b, sim::Time::seconds(2.2), sim::Time::seconds(4.1), 30.0, true});
  }
  exp::Scenario s(cfg);
  s.run();
  exp::RunMetrics m = s.metrics();
  EXPECT_EQ(s.simulator().events_executed(), 160588u);
  EXPECT_EQ(exp::fingerprint(m), 0x44ccd7c38b870947ULL);
  m.sim_event_count = 0.0;
  EXPECT_EQ(exp::fingerprint(m), 0xe77965dfcab04a09ULL);
}

TEST(GoldenDigest, Mobile100Shadowing) {
  exp::ScenarioConfig cfg = mobile100();
  cfg.shadowing_sigma_db = 6.0;
  expect_golden(cfg, {166918, 0x0077d5ffb301b28a});
}

TEST(GoldenDigest, Mesh100PoissonOnOff) {
  exp::ScenarioConfig cfg = mesh100();
  cfg.traffic.model = exp::TrafficSpec::Model::kPoissonOnOff;
  expect_golden(cfg, {69810, 0xc96996ab12ea30f0});
}

TEST(GoldenDigest, Mesh100HeavyTailOnOff) {
  exp::ScenarioConfig cfg = mesh100();
  cfg.traffic.model = exp::TrafficSpec::Model::kHeavyTailOnOff;
  expect_golden(cfg, {95675, 0xc4cc7f9623abd716});
}

// An 8x session surge in the middle of the 3 s traffic window; the
// envelope also compresses the staggered flow arrivals.
TEST(GoldenDigest, GatewaySessionsFlashCrowd) {
  exp::ScenarioConfig cfg = gateway_sessions();
  cfg.traffic.rate_envelope = {
      {0.0, 1.0}, {0.5, 1.0}, {1.0, 8.0}, {2.0, 8.0}, {2.5, 1.0}};
  expect_golden(cfg, {143496, 0x909826ea58e25dea});
}

// The baseline discovery schemes on the mesh100 point. CLNLR's
// destinations hold a reply window and its nodes never answer from
// cache; these three answer the first copy at once and let
// intermediate nodes reply, and between them they take the policy's
// other two verdicts: gossip drops copies outright, the counter
// scheme defers each one and counts its duplicates.
TEST(GoldenDigest, Mesh100Flood) {
  exp::ScenarioConfig cfg = mesh100();
  cfg.protocol = core::Protocol::kAodvFlood;
  expect_golden(cfg, {184856, 0xccd5947f22255960});
}

TEST(GoldenDigest, Mesh100Gossip) {
  exp::ScenarioConfig cfg = mesh100();
  cfg.protocol = core::Protocol::kAodvGossip;
  expect_golden(cfg, {175533, 0x9a94d339d9e39bd8});
}

TEST(GoldenDigest, Mesh100Counter) {
  exp::ScenarioConfig cfg = mesh100();
  cfg.protocol = core::Protocol::kAodvCounter;
  expect_golden(cfg, {167365, 0x6ef9c320c0714622});
}

// The resilience extensions on the mobile point: local repair, the
// RREP blacklist and RERR delivery to precursors. The last is the only
// setting under which a route's precursor list reaches a packet, so
// the run must actually take that path: some RERR found no live
// precursor and was suppressed.
TEST(GoldenDigest, Mobile100RepairPrecursors) {
  exp::ScenarioConfig cfg = mobile100();
  cfg.options.aodv.graceful_degradation = true;
  const auto s = expect_golden(cfg, {156348, 0x6141f74b4194282a});
  std::uint64_t suppressed = 0;
  for (std::size_t i = 0; i < s->node_count(); ++i) {
    suppressed += s->agent(i).counters().rerr_suppressed_no_precursor;
  }
  EXPECT_GT(suppressed, 0u);
}

}  // namespace
}  // namespace wmn
