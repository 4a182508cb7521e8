#include "exp/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/check.hpp"
#include "exp/failure.hpp"
#include "mobility/placement.hpp"
#include "stats/fairness.hpp"
#include "traffic/session_source.hpp"

namespace wmn::exp {

namespace {
constexpr std::uint64_t kPlacementSalt = 0x97AC'0000'0000'0000ULL;
constexpr std::uint64_t kFlowSalt = 0xF107'0000'0000'0000ULL;
constexpr std::uint64_t kMobilitySalt = 0x0B11'0000'0000'0000ULL;
constexpr std::uint64_t kArrivalSalt = 0xA881'7A10'0000'0000ULL;
}  // namespace

Scenario::Scenario(const ScenarioConfig& cfg)
    : cfg_(cfg), sim_(cfg.seed), channel_(sim_, make_propagation()) {
  WMN_CHECK_GE(cfg_.n_nodes, std::size_t{2}, "a mesh needs at least two nodes");
  sim_.set_event_budget(cfg_.event_budget);
  if (cfg_.spatial_index) {
    channel_.enable_spatial_index(cfg_.area_width_m, cfg_.area_height_m);
  }
  build_nodes();
  build_traffic();
  if (!cfg_.fault.empty()) build_fault_timeline();
}

Scenario::~Scenario() = default;

std::unique_ptr<phy::PropagationModel> Scenario::make_propagation() const {
  std::unique_ptr<phy::PropagationModel> prop =
      std::make_unique<phy::LogDistanceModel>();
  if (cfg_.shadowing_sigma_db > 0.0) {
    // Shadowing offsets are a pure hash of (seed, link pair).
    prop = std::make_unique<phy::LogNormalShadowing>(
        std::move(prop), cfg_.shadowing_sigma_db, cfg_.seed);
  }
  return prop;
}

// Compute the fault history once (fault::FaultTimeline): overlay
// queries answer from the frozen windows, and the crash/rejoin
// choreography is scheduled onto the calendar before the run starts.
void Scenario::build_fault_timeline() {
  const sim::Time horizon = cfg_.warmup + cfg_.traffic_time + cfg_.drain;
  timeline_ = std::make_unique<fault::FaultTimeline>(cfg_.seed, cfg_.fault,
                                                     nodes_.size(), horizon);
  overlay_ = std::make_unique<fault::TimelineOverlay>(*timeline_, sim_);
  channel_.set_fault_overlay(overlay_.get());
  registry_.set_outage_query(
      [this](sim::Time t) { return timeline_->in_fault_window(t); });
  std::vector<fault::NodeHooks> hooks;
  hooks.reserve(nodes_.size());
  for (NodeStack& n : nodes_) {
    hooks.push_back({n.phy.get(), n.mac.get(), n.agent.get()});
  }
  fault::schedule_crashes(sim_, *timeline_, hooks);
}

void Scenario::build_nodes() {
  sim::RngStream placement_rng(cfg_.seed, kPlacementSalt);
  std::vector<mobility::Vec2> positions;
  switch (cfg_.placement) {
    case Placement::kGrid:
      positions = mobility::grid_placement(cfg_.n_nodes, cfg_.area_width_m,
                                           cfg_.area_height_m);
      break;
    case Placement::kPerturbedGrid:
      positions = mobility::perturbed_grid_placement(
          cfg_.n_nodes, cfg_.area_width_m, cfg_.area_height_m,
          cfg_.placement_jitter_m, placement_rng);
      break;
    case Placement::kUniform:
      positions = mobility::uniform_placement(cfg_.n_nodes, cfg_.area_width_m,
                                              cfg_.area_height_m, placement_rng);
      break;
  }

  nodes_.resize(cfg_.n_nodes);
  for (std::size_t i = 0; i < cfg_.n_nodes; ++i) {
    NodeStack& n = nodes_[i];
    const auto id = static_cast<std::uint32_t>(i);
    const net::Address addr(id);

    if (cfg_.mobility.mobile()) {
      mobility::RandomWaypointConfig rwp;
      rwp.area_width_m = cfg_.area_width_m;
      rwp.area_height_m = cfg_.area_height_m;
      rwp.min_speed_mps = cfg_.mobility.min_speed_mps;
      rwp.max_speed_mps = cfg_.mobility.max_speed_mps;
      rwp.pause = cfg_.mobility.pause;
      n.mobility = std::make_unique<mobility::RandomWaypointModel>(
          sim_, rwp, positions[i], kMobilitySalt ^ id);
    } else {
      n.mobility = std::make_unique<mobility::ConstantPositionModel>(positions[i]);
    }
    n.phy =
        std::make_unique<phy::WifiPhy>(sim_, cfg_.phy, id, n.mobility.get());
    n.mac =
        std::make_unique<mac::DcfMac>(sim_, cfg_.mac, addr, *n.phy, factory_);
    n.agent = core::make_agent(cfg_.protocol, cfg_.options, sim_, addr, *n.mac,
                               factory_, n.mobility.get());
    n.sink = std::make_unique<traffic::PacketSink>(sim_, *n.agent, registry_);
  }
  for (NodeStack& n : nodes_) channel_.attach(n.phy.get());
}

void Scenario::build_traffic() {
  sim::RngStream flow_rng(cfg_.seed, kFlowSalt);
  const TrafficSpec& t = cfg_.traffic;
  switch (t.pattern) {
    case TrafficSpec::Pattern::kRandomPairs:
      flow_pairs_ = traffic::random_pairs(
          t.n_flows, static_cast<std::uint32_t>(cfg_.n_nodes), flow_rng);
      break;
    case TrafficSpec::Pattern::kGateway: {
      std::vector<mobility::Vec2> positions;
      positions.reserve(nodes_.size());
      for (const NodeStack& n : nodes_) {
        positions.push_back(n.mobility->position(sim::Time::zero()));
      }
      traffic::GatewayFlows g = traffic::gateway_flows(
          t.n_flows, t.n_gateways, positions,
          {cfg_.area_width_m, cfg_.area_height_m}, flow_rng);
      gateways_ = std::move(g.gateways);
      flow_pairs_ = std::move(g.pairs);
      break;
    }
  }

  const sim::Time stop = cfg_.warmup + cfg_.traffic_time;

  // Seeded flow-arrival process: flows join over time instead of all
  // at once. A dedicated salted stream keeps the offsets independent of
  // the pair draws above (state-independent draw sequences).
  std::vector<sim::Time> starts(flow_pairs_.size(), cfg_.warmup);
  if (t.mean_arrival_gap_s > 0.0) {
    sim::RngStream arrival_rng(cfg_.seed, kArrivalSalt);
    // Offsets count from the traffic-window start, so the envelope's
    // clock starts at 0 here (vs. `warmup` for the session sources
    // below, which see absolute simulation time).
    const traffic::RateEnvelope offset_env(t.rate_envelope, 0.0);
    const auto offsets = traffic::arrival_offsets(
        flow_pairs_.size(), sim::Time::seconds(t.mean_arrival_gap_s),
        cfg_.traffic_time, arrival_rng, offset_env);
    for (std::size_t i = 0; i < starts.size(); ++i) starts[i] += offsets[i];
  }

  sources_.reserve(flow_pairs_.size());
  for (std::size_t i = 0; i < flow_pairs_.size(); ++i) {
    const auto [src, dst] = flow_pairs_[i];
    const traffic::FlowConfig flow{static_cast<std::uint32_t>(i),
                                   net::Address(dst), t.packet_bytes,
                                   starts[i], stop};
    routing::AodvAgent& agent = *nodes_[src].agent;
    switch (t.model) {
      case TrafficSpec::Model::kCbr: {
        traffic::CbrConfig c{flow};
        c.rate_pps = t.rate_pps;
        sources_.push_back(std::make_unique<traffic::CbrSource>(
            sim_, c, agent, factory_, registry_));
        break;
      }
      case TrafficSpec::Model::kPoissonOnOff:
      case TrafficSpec::Model::kHeavyTailOnOff: {
        traffic::OnOffConfig c{flow};
        if (t.model == TrafficSpec::Model::kHeavyTailOnOff) {
          c.on_law = traffic::OnOffConfig::OnLaw::kPareto;
        }
        c.rate_pps = t.rate_pps;
        c.pareto_shape = t.pareto_shape;
        c.mean_on = sim::Time::seconds(t.mean_on_s);
        c.mean_off = sim::Time::seconds(t.mean_off_s);
        sources_.push_back(std::make_unique<traffic::OnOffSource>(
            sim_, c, agent, factory_, registry_));
        break;
      }
      case TrafficSpec::Model::kSessions: {
        traffic::SessionSourceConfig c{flow};
        c.users = t.users_per_node;
        c.session_rate_per_user_per_s = t.session_rate_per_user_per_s;
        c.session_rate_pps = t.session_rate_pps;
        c.mean_session_pkts = t.mean_session_pkts;
        c.pareto_shape = t.pareto_shape;
        c.max_active_sessions = t.max_active_sessions;
        // Session arrivals see absolute simulation time; anchor the
        // envelope at the traffic-window start.
        c.envelope =
            traffic::RateEnvelope(t.rate_envelope, cfg_.warmup.to_seconds());
        sources_.push_back(std::make_unique<traffic::SessionSource>(
            sim_, c, agent, factory_, registry_));
        break;
      }
    }
  }
}

void Scenario::run() {
  check_violations_before_ = core::check_violations();
  const sim::Time horizon = cfg_.warmup + cfg_.traffic_time + cfg_.drain;
  // The one legitimate wall-clock read in simulation code: it measures
  // how long the run took on the host, is reported as wall_seconds, and
  // never feeds an event time, a seed, or a routing decision.
  const auto t0 = std::chrono::steady_clock::now();  // NOLINT(wmn-nondeterminism)
  sim_.run_until(horizon);
  // Weak copies settle lazily: bring every radio's interference ledger
  // to the horizon so its counters and busy time are final.
  for (NodeStack& n : nodes_) n.phy->settle();
  const auto t1 = std::chrono::steady_clock::now();  // NOLINT(wmn-nondeterminism)
  wall_seconds_ = std::chrono::duration<double>(t1 - t0).count();
  // A run cut short by the event budget produced a truncated trace, not
  // a measurement: surface the structured reason, never partial metrics.
  if (sim_.budget_exhausted()) {
    throw RunAborted(FailureKind::kEventBudgetExhausted,
                     "event budget (" + std::to_string(sim_.event_budget()) +
                         " events) exhausted at t=" +
                         std::to_string(sim_.now().to_seconds()) + "s");
  }
  check_copy_identities();
  ran_ = true;
}

void Scenario::check_copy_identities() const {
  // Every copy of every transmission is delivered (above the floor),
  // floor-dropped or fault-dropped at the channel...
  const phy::WirelessChannel::Counters& cc = channel_.counters();
  WMN_CHECK_EQ(cc.copies_delivered + cc.copies_dropped_floor + cc.copies_dropped_fault,
               (nodes_.size() - 1) * cc.transmissions,
               "channel copies != (N - 1) * transmissions");
  // ...and every delivered copy not still in flight has settled at its
  // receiver: decoded, clobbered, missed, below sensitivity, dropped
  // while down, or holding the receiver's lock right now.
  std::uint64_t settled = 0;
  for (const NodeStack& n : nodes_) {
    const phy::WifiPhy::Counters& pc = n.phy->counters();
    settled += pc.rx_ok + pc.rx_failed_sinr + pc.rx_missed_busy +
               pc.rx_below_sensitivity + pc.rx_dropped_down;
    if (n.phy->state() == phy::WifiPhy::State::kRx) ++settled;
  }
  WMN_CHECK_EQ(cc.copies_delivered - channel_.deliveries_in_flight(), settled,
               "copies landed != copies settled at the receivers");
}

RunMetrics Scenario::metrics() const {
  WMN_CHECK(ran_, "metrics() before run()");
  const traffic::FlowRegistry& registry = registry_;
  RunMetrics m;
  m.seed = cfg_.seed;
  m.wall_seconds = wall_seconds_;
  m.sim_event_count = static_cast<double>(sim_.events_executed());
  m.check_violations = core::check_violations() - check_violations_before_;

  m.data_sent = registry.total_sent();
  m.data_delivered = registry.total_delivered();
  m.pdr = registry.aggregate_pdr();
  m.mean_delay_ms = registry.mean_delay_s() * 1e3;
  m.mean_jitter_ms = registry.mean_jitter_s() * 1e3;
  const double traffic_s = cfg_.traffic_time.to_seconds();
  m.throughput_kbps =
      static_cast<double>(registry.total_delivered_bytes()) * 8.0 / traffic_s /
      1e3;

  double busy_sum = 0.0;
  std::uint64_t data_forwarded_total = 0;
  std::uint64_t recovery_ns = 0;
  m.per_node_forwarded.reserve(nodes_.size());
  for (const NodeStack& n : nodes_) {
    const auto& rc = n.agent->counters();
    m.rreq_tx += rc.rreq_tx();
    m.rreq_suppressed += rc.rreq_suppressed;
    m.rrep_tx += rc.rrep_tx();
    m.rerr_tx += rc.rerr_sent;
    m.hello_tx += rc.hello_sent;
    m.control_tx += rc.control_tx();
    m.discoveries += rc.discovery_started;
    m.discoveries_failed += rc.discovery_failed;
    data_forwarded_total += rc.data_forwarded;
    m.per_node_forwarded.push_back(static_cast<double>(rc.data_forwarded));
    m.local_repairs_attempted += rc.local_repair_attempted;
    m.local_repairs_succeeded += rc.local_repair_succeeded;
    m.route_recoveries += rc.route_recoveries;
    recovery_ns += rc.route_recovery_ns_total;
    m.route_recoveries_abandoned += rc.route_recovery_abandoned;

    const auto& mc = n.mac->counters();
    m.mac_queue_drops += mc.queue_drops;
    m.mac_retry_drops += mc.retry_drops;
    m.mac_retries += mc.retries;
    busy_sum += n.mac->busy_ratio();

    m.phy_collisions += n.phy->counters().rx_failed_sinr;
    m.total_energy_j += n.phy->energy_joules();
  }
  m.mean_busy_ratio = busy_sum / static_cast<double>(nodes_.size());
  if (m.discoveries > 0) {
    m.rreq_per_discovery =
        static_cast<double>(m.rreq_tx) / static_cast<double>(m.discoveries);
  }
  if (m.data_delivered > 0) {
    m.nrl = static_cast<double>(m.control_tx) /
            static_cast<double>(m.data_delivered);
    m.nrl_on_demand = static_cast<double>(m.control_tx - m.hello_tx) /
                      static_cast<double>(m.data_delivered);
    m.avg_path_hops = 1.0 + static_cast<double>(data_forwarded_total) /
                                static_cast<double>(m.data_delivered);
  }
  if (m.route_recoveries > 0) {
    m.route_recovery_mean_ms = static_cast<double>(recovery_ns) /
                               static_cast<double>(m.route_recoveries) / 1e6;
  }
  m.mean_node_energy_j = m.total_energy_j / static_cast<double>(nodes_.size());
  const double delivered_kbit =
      static_cast<double>(registry.total_delivered_bytes()) * 8.0 / 1e3;
  if (delivered_kbit > 0.0) {
    m.energy_mj_per_kbit = m.total_energy_j * 1e3 / delivered_kbit;
  }

  std::vector<double> active;
  for (double f : m.per_node_forwarded) {
    if (f > 0.0) active.push_back(f);
  }
  m.forwarding_active_nodes = active.size();
  m.forwarding_jain = stats::jain_index(active);
  m.forwarding_peak_to_mean = stats::peak_to_mean(active);

  // Gateway-aggregation fairness (F11): delivered load per gateway, in
  // gateway discovery order. A protocol collapsing at one hotspot shows
  // up as Jain falling toward 1/K with the variance exploding.
  if (!gateways_.empty()) {
    m.gateway_count = gateways_.size();
    m.per_gateway_delivered.assign(gateways_.size(), 0.0);
    const auto flow_snapshot = registry.snapshot();
    for (std::size_t g = 0; g < gateways_.size(); ++g) {
      const net::Address addr(gateways_[g]);
      for (const auto& f : flow_snapshot) {
        if (f.dst == addr) {
          m.per_gateway_delivered[g] += static_cast<double>(f.delivered);
        }
      }
    }
    m.gateway_jain = stats::jain_index(m.per_gateway_delivered);
    m.gateway_load_variance = stats::load_variance(m.per_gateway_delivered);
  }

  for (const auto& src : sources_) {
    if (const auto* s = dynamic_cast<const traffic::SessionSource*>(src.get())) {
      m.sessions_started += s->sessions_started();
      m.sessions_completed += s->sessions_completed();
      m.sessions_rejected += s->sessions_rejected();
    }
  }

  if (timeline_ != nullptr) {
    m.fault_enabled = true;
    const auto& fc = timeline_->counters();
    m.fault_crashes = fc.crashes;
    m.fault_rejoins = fc.rejoins;
    m.fault_blackouts = fc.blackouts;
    m.fault_downtime_s =
        timeline_->total_node_downtime(sim_.now()).to_seconds();

    m.sent_during_outage = registry.sent_during_outage();
    m.delivered_during_outage = registry.delivered_during_outage();
    if (m.sent_during_outage > 0) {
      m.pdr_during_outage = static_cast<double>(m.delivered_during_outage) /
                            static_cast<double>(m.sent_during_outage);
    }
    const std::uint64_t sent_out = m.data_sent - m.sent_during_outage;
    if (sent_out > 0) {
      m.pdr_outside_outage =
          static_cast<double>(m.data_delivered - m.delivered_during_outage) /
          static_cast<double>(sent_out);
    }

    // Stranded: the flow offered traffic but nothing ever arrived, or
    // deliveries dried up well before the senders stopped.
    const sim::Time traffic_end = cfg_.warmup + cfg_.traffic_time;
    const sim::Time slack =
        std::min(cfg_.traffic_time.scaled(0.25), sim::Time::seconds(10.0));
    for (const auto& f : registry.snapshot()) {
      if (f.sent == 0) continue;
      if (!f.any_delivered || f.last_delivery < traffic_end - slack) {
        ++m.flows_stranded;
      }
    }
  }
  return m;
}

}  // namespace wmn::exp
