#include "fault/fault_timeline.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "mac/dcf_mac.hpp"
#include "phy/wifi_phy.hpp"
#include "routing/aodv.hpp"
#include "sim/rng.hpp"

namespace wmn::fault {

namespace {

// The crash/churn state machine, run on a private calendar. Outages and
// churn crash a node only if it is up (whoever crashed it first owns
// it until its rejoin); a rejoin from an earlier crash of a node that
// has since been re-crashed is stale and ignored.
class Replayer {
 public:
  Replayer(std::uint64_t master_seed, const FaultPlan& plan, std::size_t n_nodes,
           std::vector<FaultTimeline::NodeWindow>& windows,
           FaultTimeline::Counters& counters)
      : sim_(master_seed),
        plan_(plan),
        windows_(windows),
        counters_(counters),
        down_(n_nodes, 0),
        epoch_(n_nodes, 0),
        open_window_(n_nodes, 0),
        churn_rng_(sim_.make_stream(kFaultStreamSalt)) {}

  void run(sim::Time horizon) {
    const auto n = static_cast<std::uint32_t>(down_.size());
    for (const NodeOutage& o : plan_.outages) {
      WMN_CHECK(o.node < n, "outage for a node outside the topology");
      WMN_CHECK(o.down_at < o.up_at, "outage window must have positive length");
      const std::uint32_t node = o.node;
      const sim::Time up_at = o.up_at;
      sim_.schedule_at(o.down_at, [this, node, up_at] { crash(node, up_at); });
    }
    for (const LinkBlackout& b : plan_.blackouts) {
      WMN_CHECK(b.a < n && b.b < n, "blackout for a node outside the topology");
      WMN_CHECK(b.a != b.b, "blackout needs two distinct endpoints");
      WMN_CHECK(b.from < b.to, "blackout window must have positive length");
      WMN_CHECK_GE(b.attenuation_db, 0.0, "blackout attenuation must be >= 0");
      ++counters_.blackouts;
    }
    if (plan_.churn.enabled()) {
      WMN_CHECK_GT(plan_.churn.mean_downtime.ns(), std::int64_t{0},
                   "churn needs a positive mean downtime");
      WMN_CHECK_GT(n, 0u, "churn needs at least one node");
      schedule_next_churn();
    }
    sim_.run_until(horizon);
  }

 private:
  void crash(std::uint32_t node, sim::Time up_at) {
    if (down_[node] != 0) return;
    down_[node] = 1;
    ++epoch_[node];
    ++counters_.crashes;
    open_window_[node] = windows_.size();
    windows_.push_back(
        FaultTimeline::NodeWindow{node, sim_.now(), sim::Time{}, true});
    const std::uint64_t epoch = epoch_[node];
    sim_.schedule_at(up_at, [this, node, epoch] { rejoin(node, epoch); });
  }

  void rejoin(std::uint32_t node, std::uint64_t epoch) {
    if (down_[node] == 0 || epoch_[node] != epoch) return;
    down_[node] = 0;
    ++counters_.rejoins;
    FaultTimeline::NodeWindow& w = windows_[open_window_[node]];
    WMN_CHECK(w.open, "rejoin closing the wrong window");
    w.up_at = sim_.now();
    w.open = false;
  }

  void schedule_next_churn() {
    const double mean_gap_s = 1.0 / plan_.churn.rate_per_s;
    const sim::Time base = std::max(sim_.now(), plan_.churn.start);
    const sim::Time t =
        base + sim::Time::seconds(churn_rng_.exponential(mean_gap_s));
    if (t >= plan_.churn.stop) return;
    sim_.schedule_at(t, [this] { churn_event(); });
  }

  void churn_event() {
    const auto victim = static_cast<std::uint32_t>(
        churn_rng_.uniform_u64(0, down_.size() - 1));
    if (down_[victim] == 0) {
      // Clamp tiny downtime draws: a sub-100ms reboot is not a fault
      // worth modelling and would just thrash the timers.
      const double down_s = std::max(
          0.1, churn_rng_.exponential(plan_.churn.mean_downtime.to_seconds()));
      crash(victim, sim_.now() + sim::Time::seconds(down_s));
    }
    // A victim that was already down still consumed this event slot;
    // the process rate is over attempts, which keeps the draw sequence
    // independent of network state.
    schedule_next_churn();
  }

  sim::Simulator sim_;
  const FaultPlan& plan_;
  std::vector<FaultTimeline::NodeWindow>& windows_;
  FaultTimeline::Counters& counters_;
  std::vector<std::uint8_t> down_;
  std::vector<std::uint64_t> epoch_;
  std::vector<std::size_t> open_window_;
  sim::RngStream churn_rng_;
};

}  // namespace

FaultTimeline::FaultTimeline(std::uint64_t master_seed, const FaultPlan& plan,
                             std::size_t n_nodes, sim::Time horizon)
    : blackouts_(plan.blackouts) {
  Replayer replayer(master_seed, plan, n_nodes, node_windows_, counters_);
  replayer.run(horizon);
  by_node_.resize(n_nodes);
  for (std::uint32_t i = 0; i < node_windows_.size(); ++i) {
    by_node_[node_windows_[i].node].push_back(i);
  }
}

bool FaultTimeline::node_up(std::uint32_t node, sim::Time now) const {
  if (node >= by_node_.size()) return true;
  for (const std::uint32_t wi : by_node_[node]) {
    const NodeWindow& w = node_windows_[wi];
    if (now < w.down_at) continue;
    if (w.open || now < w.up_at) return false;
  }
  return true;
}

double FaultTimeline::link_loss_db(std::uint32_t tx, std::uint32_t rx,
                                   sim::Time now) const {
  double loss = 0.0;
  for (const LinkBlackout& b : blackouts_) {
    if (now < b.from || now >= b.to) continue;
    const bool forward = b.a == tx && b.b == rx;
    const bool reverse = b.bidirectional && b.a == rx && b.b == tx;
    if (forward || reverse) loss += b.attenuation_db;
  }
  return loss;
}

bool FaultTimeline::in_fault_window(sim::Time t) const {
  for (const NodeWindow& w : node_windows_) {
    if (t < w.down_at) continue;
    if (w.open || t < w.up_at) return true;
  }
  for (const LinkBlackout& b : blackouts_) {
    if (t >= b.from && t < b.to) return true;
  }
  return false;
}

sim::Time FaultTimeline::total_node_downtime(sim::Time now) const {
  sim::Time total{};
  for (const NodeWindow& w : node_windows_) {
    total += (w.open ? now : w.up_at) - w.down_at;
  }
  return total;
}

void schedule_crashes(sim::Simulator& sim, const FaultTimeline& timeline,
                      const std::vector<NodeHooks>& hooks) {
  for (const FaultTimeline::NodeWindow& w : timeline.node_windows()) {
    const NodeHooks& h = hooks[w.node];
    WMN_CHECK_NOTNULL(h.agent, "crash injection needs an agent hook");
    WMN_CHECK_NOTNULL(h.mac, "crash injection needs a MAC hook");
    WMN_CHECK_NOTNULL(h.phy, "crash injection needs a phy hook");
    sim.schedule_at(w.down_at, [h] {
      h.agent->pause();
      h.mac->power_down();
      h.phy->set_up(false);
    });
    if (!w.open) {
      sim.schedule_at(w.up_at, [h] {
        h.phy->set_up(true);
        h.mac->power_up();
        h.agent->resume();
      });
    }
  }
}

}  // namespace wmn::fault
