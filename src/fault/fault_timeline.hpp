// FaultTimeline: the fault model. A FaultPlan's realized history,
// computed once before the run.
//
// The whole fault history is a pure function of (plan, master seed,
// node count): static outages and blackouts come verbatim from the
// plan, and churn draws its gaps, victims and downtimes from one RNG
// stream (kFaultStreamSalt) consumed in event order regardless of
// network state — a churn draw whose victim is already down still
// consumes its slot. So the timeline replays the crash/churn state
// machine up front, on a private calendar, to the scenario horizon and
// freezes the result into immutable windows. Queries take the time as
// an argument and touch no mutable state.
//
// The layer choreography is separate: schedule_crashes() puts every
// realized crash and rejoin onto the simulator at construction time,
// before the run starts, so those events take the earliest insertion
// sequence at their timestamp.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "phy/fault_overlay.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wmn::phy {
class WifiPhy;
}
namespace wmn::mac {
class DcfMac;
}
namespace wmn::routing {
class AodvAgent;
}

namespace wmn::fault {

inline constexpr std::uint64_t kFaultStreamSalt = 0xFA17'0000'0000'0000ULL;

class FaultTimeline {
 public:
  // One realized node outage. `open` means no rejoin before the
  // horizon (the node stays down to the end of the run).
  struct NodeWindow {
    std::uint32_t node = 0;
    sim::Time down_at{};
    sim::Time up_at{};
    bool open = false;
  };

  struct Counters {
    std::uint64_t crashes = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t blackouts = 0;
  };

  // Replays `plan` for `n_nodes` nodes to `horizon` (the scenario end,
  // inclusive, like Simulator::run_until).
  FaultTimeline(std::uint64_t master_seed, const FaultPlan& plan,
                std::size_t n_nodes, sim::Time horizon);

  FaultTimeline(const FaultTimeline&) = delete;
  FaultTimeline& operator=(const FaultTimeline&) = delete;

  // --- queries (thread-safe: all state is frozen after construction) --
  [[nodiscard]] bool node_up(std::uint32_t node, sim::Time now) const;
  // Blackouts are in force on [from, to).
  [[nodiscard]] double link_loss_db(std::uint32_t tx, std::uint32_t rx,
                                    sim::Time now) const;
  // True when `t` falls inside any node outage or link blackout. Used
  // to split PDR into during/outside-outage.
  [[nodiscard]] bool in_fault_window(sim::Time t) const;
  // Total node downtime up to `now` (open outages included).
  [[nodiscard]] sim::Time total_node_downtime(sim::Time now) const;

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::vector<NodeWindow>& node_windows() const {
    return node_windows_;
  }

 private:
  std::vector<NodeWindow> node_windows_;          // replay order
  std::vector<std::vector<std::uint32_t>> by_node_;  // node -> window indices
  std::vector<LinkBlackout> blackouts_;           // from the plan verbatim
  Counters counters_;
};

// Adapter installed on one channel: a phy::FaultOverlay whose "now" is
// that channel's simulator clock (node_up takes no time argument).
class TimelineOverlay final : public phy::FaultOverlay {
 public:
  TimelineOverlay(const FaultTimeline& timeline, const sim::Simulator& sim)
      : timeline_(timeline), sim_(sim) {}

  [[nodiscard]] bool node_up(std::uint32_t node) const override {
    return timeline_.node_up(node, sim_.now());
  }
  [[nodiscard]] double link_loss_db(std::uint32_t tx, std::uint32_t rx,
                                    sim::Time now) const override {
    return timeline_.link_loss_db(tx, rx, now);
  }

 private:
  const FaultTimeline& timeline_;
  const sim::Simulator& sim_;
};

// One node's layers.
struct NodeHooks {
  phy::WifiPhy* phy = nullptr;
  mac::DcfMac* mac = nullptr;
  routing::AodvAgent* agent = nullptr;
};

// Schedules every realized crash and rejoin of `timeline` onto `sim`,
// acting on the victim's layers, hooks[node]:
//
//   crash:  agent.pause() -> mac.power_down() -> phy.set_up(false)
//   rejoin: phy.set_up(true) -> mac.power_up() -> agent.resume()
//
// Routing goes first on the way down so no layer below can call back
// into a half-dead agent; the order reverses on the way up so every
// layer an upper one relies on is already alive.
void schedule_crashes(sim::Simulator& sim, const FaultTimeline& timeline,
                      const std::vector<NodeHooks>& hooks);

}  // namespace wmn::fault
