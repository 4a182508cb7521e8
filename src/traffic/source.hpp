// Application-layer traffic sources.
//
// Every source is a traffic::Source: it owns one FlowRegistry flow from
// its node to `dest`, one salted RngStream and the packet emission, and
// keeps only its own arrival logic:
//
//   CbrSource     — fixed-size packets at a constant rate between start
//                   and stop (the evaluation workload: 512-byte
//                   UDP-style CBR);
//   OnOffSource   — CBR bursts separated by exponential OFF gaps, with
//                   exponential ON periods (the bursty congestion-bench
//                   variant) or Pareto ones (self-similar aggregate
//                   load, the F11 production-workload burst model);
//   SessionSource — per-user session aggregation (session_source.hpp).
//
// Timing contract, enforced here for all of them: packet k of a pacing
// run is scheduled at the *absolute* time base + k/rate (paced()), not
// by repeatedly adding a rounded per-tick interval. Rounding 1/rate to
// integer nanoseconds once per tick compounds (3 pps drifts 1/3 ns per
// packet, and any non-dyadic rate drifts), which shifts packets across
// the stop boundary and silently distorts offered-load sweeps; the
// absolute form keeps the error of tick k below one rounding ulp
// independent of k. A source never schedules an event at or past
// `stop` (arm()): the timer is cleared the moment the next wakeup would
// cross the horizon, so no dead wakeups churn the calendar after the
// traffic window closes, and no stale EventId is left behind.
//
// Determinism contract: all randomness comes from the source's salted
// stream, whose draw sequence is a pure function of the source's own
// history — never of other components' state — so same-seed
// fingerprints are bit-identical serial vs pooled.
#pragma once

#include <cstdint>

#include "routing/aodv.hpp"
#include "traffic/flow_registry.hpp"

namespace wmn::traffic {

// The fields every source shares.
struct FlowConfig {
  std::uint32_t flow_id = 0;
  net::Address dest;
  std::uint32_t packet_bytes = 512;
  sim::Time start{};
  sim::Time stop = sim::Time::max();
};

class Source {
 public:
  virtual ~Source();

  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;

  [[nodiscard]] std::uint64_t packets_sent() const { return seq_; }
  // True while a wakeup is scheduled; false once the source has gone
  // quiet for good.
  [[nodiscard]] virtual bool timer_armed() const { return timer_.valid(); }

 protected:
  // Registers the flow and derives the stream from `salt ^ flow_id`.
  Source(sim::Simulator& simulator, const FlowConfig& flow, std::uint64_t salt,
         routing::AodvAgent& agent, net::PacketFactory& factory,
         FlowRegistry& registry);

  // Absolute send time of packet k of a run paced from `base`: one
  // divide and one rounding, so the error never accumulates across k.
  [[nodiscard]] static sim::Time paced(sim::Time base, std::uint64_t k,
                                       double rate_pps) {
    return base + sim::Time::seconds(static_cast<double>(k) / rate_pps);
  }

  // Schedules `fn` on `timer` at `at` unless that would cross `stop`,
  // in which case `timer` is cleared; returns whether it scheduled.
  // The wakeup clears its own timer before running `fn`.
  template <typename Fn>
  bool arm(sim::EventId& timer, sim::Time at, Fn fn) {
    if (at >= flow_.stop) {
      timer = sim::EventId{};
      return false;
    }
    timer = sim_.schedule_at(at, [&timer, fn] {
      timer = sim::EventId{};
      fn();
    });
    return true;
  }
  template <typename Fn>
  bool arm(sim::Time at, Fn fn) {
    return arm(timer_, at, fn);
  }

  // Sends the next packet of the flow, stamped with the current time.
  void send_packet();

  sim::Simulator& sim_;
  const FlowConfig flow_;
  sim::RngStream rng_;

 private:
  routing::AodvAgent& agent_;
  net::PacketFactory& factory_;
  FlowRegistry& registry_;
  std::uint64_t seq_ = 0;
  sim::EventId timer_{};
};

struct CbrConfig : FlowConfig {
  double rate_pps = 4.0;
  // First packet is offset uniformly within one interval so flows
  // starting together do not phase-align.
  bool randomize_start_phase = true;
};

class CbrSource final : public Source {
 public:
  CbrSource(sim::Simulator& simulator, const CbrConfig& cfg,
            routing::AodvAgent& agent, net::PacketFactory& factory,
            FlowRegistry& registry);

 private:
  void emit();

  double rate_pps_;
  sim::Time base_{};  // time of packet 0 (start + random phase)
};

struct OnOffConfig : FlowConfig {
  // Law of the ON periods; OFF gaps are always exponential. Each law
  // draws from its own salted stream.
  enum class OnLaw { kExponential, kPareto };
  OnLaw on_law = OnLaw::kExponential;
  double rate_pps = 8.0;       // emission rate while ON
  double pareto_shape = 1.5;   // kPareto: alpha, must be > 1 (finite mean)
  sim::Time mean_on = sim::Time::seconds(2.0);
  sim::Time mean_off = sim::Time::seconds(2.0);
};

// Draw order: OFF gap, ON period, OFF gap, ... The first OFF gap
// starts at `start`.
class OnOffSource final : public Source {
 public:
  OnOffSource(sim::Simulator& simulator, const OnOffConfig& cfg,
              routing::AodvAgent& agent, net::PacketFactory& factory,
              FlowRegistry& registry);

  [[nodiscard]] std::uint64_t bursts_started() const { return bursts_; }

 private:
  void begin_on();
  void begin_off();
  void emit();

  OnOffConfig cfg_;
  std::uint64_t bursts_ = 0;
  sim::Time on_ends_{};
  sim::Time burst_base_{};        // time of packet 0 of the current burst
  std::uint64_t burst_sent_ = 0;  // packets emitted in the current burst
};

}  // namespace wmn::traffic
