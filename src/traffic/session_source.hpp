// Per-user session aggregation — one mesh node carrying the traffic of
// thousands of users (the ROADMAP's "millions of users" workload item).
//
// A mesh router in a deployed WMN does not originate one CBR flow: it
// aggregates the sessions of every user behind it. This source models
// that directly: sessions arrive as a Poisson process with aggregate
// rate `users * session_rate_per_user_per_s` (the seeded flow-arrival
// process — new sessions arrive over time instead of a fixed set), each
// session transfers a Pareto-distributed number of packets (heavy-tailed
// "file sizes"), paced at `session_rate_pps` with the drift-free
// absolute-base schedule of every traffic::Source. Concurrent
// sessions overlap, so the node's offered load is bursty and
// long-range-dependent even though each session is simple.
//
// All sessions of a source share one FlowRegistry flow (the node's
// aggregate toward its gateway) and one monotone sequence space, so
// PDR/delay/duplicate accounting works unchanged.
//
// Draw order per arrival is fixed — (session size, next inter-arrival
// gap) — and is consumed even when the session is rejected by the
// concurrency cap, so the stream's state is a pure function of the
// source's own arrival count, never of downstream state.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic/rate_envelope.hpp"
#include "traffic/source.hpp"

namespace wmn::traffic {

// `dest` is the node's gateway.
struct SessionSourceConfig : FlowConfig {
  std::uint32_t users = 1000;  // users aggregated behind this node
  double session_rate_per_user_per_s = 0.002;  // session arrivals per user
  double session_rate_pps = 16.0;              // pacing within a session
  double mean_session_pkts = 20.0;             // Pareto mean size
  double pareto_shape = 1.5;                   // alpha > 1
  // Concurrency cap: arrivals beyond this many overlapping sessions are
  // counted as rejected instead of exploding the event calendar.
  std::uint32_t max_active_sessions = 64;
  // Time-varying arrival-rate multiplier (flash crowds, diurnal load).
  // Inactive (the default) keeps the draw sequence — and therefore all
  // existing fingerprints — bit-identical to the constant-rate source.
  RateEnvelope envelope{};
};

class SessionSource final : public Source {
 public:
  SessionSource(sim::Simulator& simulator, const SessionSourceConfig& cfg,
                routing::AodvAgent& agent, net::PacketFactory& factory,
                FlowRegistry& registry);
  ~SessionSource() override;

  [[nodiscard]] std::uint64_t sessions_started() const { return started_; }
  [[nodiscard]] std::uint64_t sessions_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t sessions_rejected() const { return rejected_; }
  [[nodiscard]] std::uint32_t active_sessions() const { return active_; }
  // True while the arrival process or any session is scheduled.
  [[nodiscard]] bool timer_armed() const override;

 private:
  struct Session {
    bool active = false;
    std::uint64_t remaining = 0;  // packets left to send
    std::uint64_t sent = 0;       // packets sent so far (pacing index)
    sim::Time base{};             // time of the session's packet 0
    sim::EventId timer{};
  };

  // Aggregate session arrival rate in force at `now`.
  [[nodiscard]] double arrival_rate(sim::Time now) const;
  void on_arrival();
  void emit(std::uint32_t slot);
  void finish_session(std::uint32_t slot);

  SessionSourceConfig cfg_;
  std::vector<Session> sessions_;  // fixed pool, size max_active_sessions
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint32_t active_ = 0;
};

}  // namespace wmn::traffic
