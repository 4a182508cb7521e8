// Declarative fault schedule for one run.
//
// A FaultPlan is pure data — three kinds of disruption, all resolved
// against simulated time so the same (plan, seed) pair always replays
// the same failure history:
//
//   * NodeOutage    — a scheduled crash/recover pair for one node;
//   * LinkBlackout  — a time window during which a node pair's link is
//                     attenuated (default hard enough to sever it)
//                     while both radios stay up;
//   * ChurnSpec     — a Poisson process of crash -> down -> rejoin
//                     cycles over random victims, drawn from a
//                     dedicated RNG stream derived from the scenario
//                     master seed (see fault::FaultTimeline).
//
// An empty plan is the default everywhere and must be indistinguishable
// from not having a fault layer at all: no RNG draws, no events, no
// extra work on any hot path.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace wmn::fault {

struct NodeOutage {
  std::uint32_t node = 0;
  sim::Time down_at{};
  sim::Time up_at{};
};

struct LinkBlackout {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  sim::Time from{};
  sim::Time to{};
  // Extra path loss during the window. 200 dB pushes any realistic
  // link far below the detection floor — a severed link — while
  // smaller values model deep fades.
  double attenuation_db = 200.0;
  bool bidirectional = true;
};

struct ChurnSpec {
  double rate_per_s = 0.0;  // crash events per second (0 = off)
  sim::Time mean_downtime = sim::Time::seconds(10.0);
  sim::Time start{};
  sim::Time stop{};

  [[nodiscard]] bool enabled() const {
    return rate_per_s > 0.0 && stop > start;
  }
};

struct FaultPlan {
  std::vector<NodeOutage> outages;
  std::vector<LinkBlackout> blackouts;
  ChurnSpec churn;

  [[nodiscard]] bool empty() const {
    return outages.empty() && blackouts.empty() && !churn.enabled();
  }
};

}  // namespace wmn::fault
