// Scenario: the top-level facade assembling a complete mesh simulation.
//
// One Scenario = one network (placement + radios + MACs + routing
// agents + traffic) on one sim::Simulator, one phy::WirelessChannel,
// one net::PacketFactory and one traffic::FlowRegistry. Construction
// wires everything; run() executes; metrics() aggregates the paper's
// quantities. Scenarios are self-contained and share nothing, so the
// sweep layer runs them concurrently on its own workers.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/protocols.hpp"
#include "exp/metrics.hpp"
#include "fault/fault_timeline.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"
#include "traffic/flow_builder.hpp"
#include "traffic/packet_sink.hpp"
#include "traffic/source.hpp"

namespace wmn::exp {

enum class Placement { kGrid, kPerturbedGrid, kUniform };

struct MobilitySpec {
  // max_speed == 0 -> static mesh routers (the WMN backbone default).
  double min_speed_mps = 0.5;
  double max_speed_mps = 0.0;
  sim::Time pause = sim::Time::seconds(2.0);
  [[nodiscard]] bool mobile() const { return max_speed_mps > 0.0; }
};

struct TrafficSpec {
  enum class Pattern { kRandomPairs, kGateway };
  // Source model per flow:
  //   kCbr          — constant bit rate (the paper's evaluation load);
  //   kPoissonOnOff — exponential ON/OFF bursts of CBR;
  //   kHeavyTailOnOff — Pareto ON periods (self-similar aggregate load);
  //   kSessions     — per-user session aggregation: each source node
  //                   carries `users_per_node` users whose sessions
  //                   arrive as a seeded Poisson process and transfer
  //                   Pareto-sized packet batches (the F11 production
  //                   workload).
  enum class Model { kCbr, kPoissonOnOff, kHeavyTailOnOff, kSessions };
  Pattern pattern = Pattern::kRandomPairs;
  Model model = Model::kCbr;
  std::size_t n_flows = 10;
  double rate_pps = 4.0;
  std::uint32_t packet_bytes = 512;
  // kGateway: this many gateways are placed spread across the area
  // (the nodes nearest to evenly spaced anchor points); each source
  // sends to its *nearest* gateway, as real WMN backhaul does.
  std::size_t n_gateways = 1;

  // kPoissonOnOff / kHeavyTailOnOff burst shape.
  double mean_on_s = 2.0;
  double mean_off_s = 2.0;
  double pareto_shape = 1.5;  // kHeavyTailOnOff / kSessions tail index

  // kSessions knobs (per source node).
  std::uint32_t users_per_node = 1000;
  double session_rate_per_user_per_s = 0.002;
  double session_rate_pps = 16.0;
  double mean_session_pkts = 20.0;
  std::uint32_t max_active_sessions = 64;

  // Seeded flow-arrival process: when > 0, flow start times are
  // staggered by a Poisson process with this mean inter-arrival gap
  // (clamped to the traffic window) instead of all flows starting at
  // once — new flows join a mesh that is already carrying load.
  double mean_arrival_gap_s = 0.0;

  // Piecewise-linear arrival-rate multiplier over the traffic window:
  // (seconds since traffic start, multiplier) knots, strictly
  // increasing in time. Scales session arrival rates and the staggered
  // flow-arrival process — a flash crowd is e.g. {0:1, 10:1, 12:8,
  // 20:8, 22:1}, a diurnal cycle a slow triangle wave. Empty (the
  // default) bypasses the envelope entirely: RNG draw sequence and
  // fingerprints are bit-identical to builds that predate it.
  std::vector<std::pair<double, double>> rate_envelope;
};

struct ScenarioConfig {
  std::size_t n_nodes = 100;
  double area_width_m = 1000.0;
  double area_height_m = 1000.0;
  Placement placement = Placement::kPerturbedGrid;
  double placement_jitter_m = 60.0;
  MobilitySpec mobility;
  TrafficSpec traffic;

  core::Protocol protocol = core::Protocol::kClnlr;
  core::ProtocolOptions options;
  phy::PhyConfig phy;
  mac::MacConfig mac;
  double shadowing_sigma_db = 0.0;

  // Deterministic fault schedule; empty (the default) means the fault
  // layer is never constructed — zero cost, zero RNG draws.
  fault::FaultPlan fault;

  sim::Time warmup = sim::Time::seconds(5.0);    // hellos settle
  sim::Time traffic_time = sim::Time::seconds(60.0);
  sim::Time drain = sim::Time::seconds(2.0);     // in-flight packets land
  std::uint64_t seed = 1;

  // Deterministic run-away guard: abort the run (Scenario::run() throws
  // exp::RunAborted, kEventBudgetExhausted) once the simulator has
  // executed this many events. A pure function of the event count, so
  // bit-reproducible across hosts. 0 (the default) disables the budget;
  // existing fingerprints are untouched.
  std::uint64_t event_budget = 0;

  // Channel spatial neighbourhood index + link-budget cache. Off, the
  // channel runs its per-pair reference scan, which never uses the
  // model's max_range_m. Results are bit-identical either way (see
  // docs/TOOLING.md); turn off only to check the index against the
  // reference or to isolate a suspected index bug.
  bool spatial_index = true;
};

class Scenario {
 public:
  explicit Scenario(const ScenarioConfig& cfg);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  // Execute warmup + traffic + drain. Throws exp::RunAborted
  // (kEventBudgetExhausted) when the event budget cut the run short — a
  // truncated trace is not a measurement, so no metrics survive it.
  void run();

  // Aggregate metrics; valid after run().
  [[nodiscard]] RunMetrics metrics() const;

  // --- component access (tests, examples, custom experiments) ---------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] phy::WirelessChannel& channel() { return channel_; }
  [[nodiscard]] net::PacketFactory& packet_factory() { return factory_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] routing::AodvAgent& agent(std::size_t i) { return *nodes_[i].agent; }
  [[nodiscard]] mac::DcfMac& node_mac(std::size_t i) { return *nodes_[i].mac; }
  [[nodiscard]] phy::WifiPhy& node_phy(std::size_t i) { return *nodes_[i].phy; }
  [[nodiscard]] const traffic::FlowRegistry& flows() const { return registry_; }
  [[nodiscard]] const std::vector<traffic::NodePair>& flow_pairs() const {
    return flow_pairs_;
  }
  // Gateway node indices (kGateway traffic only; empty otherwise).
  [[nodiscard]] const std::vector<std::uint32_t>& gateways() const {
    return gateways_;
  }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }
  // Null when the config's FaultPlan is empty.
  [[nodiscard]] const fault::FaultTimeline* fault_timeline() const {
    return timeline_.get();
  }

  // Dynamic footprint by layer, each summed over the whole network:
  // every node's PHY, MAC and routing agent state, the channel (caches,
  // index, pending slots), and the NodeStack records that wire each
  // node's layers together. per_node() divides a sum by the node count.
  struct Footprint {
    std::size_t nodes = 0;
    std::size_t phy = 0;
    std::size_t mac = 0;
    std::size_t routing = 0;
    std::size_t channel = 0;
    std::size_t stacks = 0;

    [[nodiscard]] std::size_t total() const {
      return phy + mac + routing + channel + stacks;
    }
    [[nodiscard]] double per_node(std::size_t bytes) const {
      if (nodes == 0) return 0.0;
      return static_cast<double>(bytes) / static_cast<double>(nodes);
    }
  };
  [[nodiscard]] Footprint footprint() const {
    Footprint f;
    f.nodes = nodes_.size();
    for (const NodeStack& n : nodes_) {
      f.phy += n.phy->memory_bytes();
      f.mac += n.mac->memory_bytes();
      f.routing += n.agent->memory_bytes();
    }
    f.channel = channel_.memory_bytes();
    f.stacks = nodes_.size() * sizeof(NodeStack);
    return f;
  }

  // Mean per-node dynamic footprint: the footprint() total over the
  // node count, each node taking an equal share of the channel.
  // Reported by simbench as bytes_per_node; GoldenDigest.Mesh400 holds
  // it under a ceiling.
  [[nodiscard]] std::size_t bytes_per_node() const {
    const Footprint f = footprint();
    return f.nodes == 0 ? 0 : f.total() / f.nodes;
  }

 private:
  struct NodeStack {
    std::unique_ptr<mobility::MobilityModel> mobility;
    std::unique_ptr<phy::WifiPhy> phy;
    std::unique_ptr<mac::DcfMac> mac;
    std::unique_ptr<routing::AodvAgent> agent;
    std::unique_ptr<traffic::PacketSink> sink;
  };

  void build_nodes();
  void build_traffic();
  void build_fault_timeline();
  // The channel's two copy-conservation identities, checked at the end
  // of every completed run.
  void check_copy_identities() const;
  [[nodiscard]] std::unique_ptr<phy::PropagationModel> make_propagation() const;

  ScenarioConfig cfg_;
  // The simulator owns the calendar every component schedules on, so
  // it is declared first — destroyed after everything else.
  sim::Simulator sim_;
  // The arena/registry outlive the node stacks and channel below
  // (parked packets release arena references at channel teardown).
  net::PacketFactory factory_;
  traffic::FlowRegistry registry_;
  // nodes_ before channel_: the channel's spatial index detaches from
  // the mobility models in its destructor, so it must die first.
  std::vector<NodeStack> nodes_;
  phy::WirelessChannel channel_;
  std::unique_ptr<fault::FaultTimeline> timeline_;
  std::unique_ptr<fault::TimelineOverlay> overlay_;
  std::vector<traffic::NodePair> flow_pairs_;
  std::vector<std::uint32_t> gateways_;
  // One source per flow, in flow order (construction order fixes the
  // calendar seqs of their first wakeups).
  std::vector<std::unique_ptr<traffic::Source>> sources_;
  bool ran_ = false;
  double wall_seconds_ = 0.0;
  // Snapshot of the global invariant-violation counter at run() start;
  // metrics() reports the per-run delta.
  std::uint64_t check_violations_before_ = 0;
};

}  // namespace wmn::exp
