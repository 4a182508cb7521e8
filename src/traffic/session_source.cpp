#include "traffic/session_source.hpp"

#include <cmath>

#include "core/check.hpp"

namespace wmn::traffic {

namespace {
constexpr std::uint64_t kSessionStreamSalt = 0x5E55'1040'0000'0000ULL;
}  // namespace

SessionSource::SessionSource(sim::Simulator& simulator,
                             const SessionSourceConfig& cfg,
                             routing::AodvAgent& agent,
                             net::PacketFactory& factory,
                             FlowRegistry& registry)
    : Source(simulator, cfg, kSessionStreamSalt, agent, factory, registry),
      cfg_(cfg) {
  WMN_CHECK_GT(cfg_.users, 0u, "session source needs at least one user");
  WMN_CHECK_GT(cfg_.session_rate_per_user_per_s, 0.0,
               "per-user session rate must be positive");
  WMN_CHECK_GT(cfg_.session_rate_pps, 0.0, "session pacing must be positive");
  WMN_CHECK_GT(cfg_.mean_session_pkts, 0.0,
               "mean session size must be positive");
  WMN_CHECK_GT(cfg_.pareto_shape, 1.0,
               "Pareto shape must exceed 1 (finite mean session size)");
  WMN_CHECK_GT(cfg_.max_active_sessions, 0u,
               "session concurrency cap must be positive");
  sessions_.resize(cfg_.max_active_sessions);
  arm(cfg_.start + sim::Time::seconds(
                       rng_.exponential(1.0 / arrival_rate(cfg_.start))),
      [this] { on_arrival(); });
}

SessionSource::~SessionSource() {
  for (Session& s : sessions_) sim_.cancel(s.timer);
}

bool SessionSource::timer_armed() const {
  if (Source::timer_armed()) return true;
  for (const Session& s : sessions_) {
    if (s.timer.valid()) return true;
  }
  return false;
}

double SessionSource::arrival_rate(sim::Time now) const {
  double rate = static_cast<double>(cfg_.users) *
                cfg_.session_rate_per_user_per_s;
  // Frozen-rate envelope application: the rate in force at the moment
  // of the draw shapes this gap (see traffic/rate_envelope.hpp). The
  // branch keeps the inactive path's arithmetic untouched.
  if (cfg_.envelope.active()) {
    rate *= cfg_.envelope.multiplier_at(now.to_seconds());
  }
  return rate;
}

void SessionSource::on_arrival() {
  // Fixed draw order per arrival — (size, next gap) — consumed whether
  // or not the session is admitted, so the stream's state depends only
  // on how many arrivals occurred.
  const double alpha = cfg_.pareto_shape;
  const double scale = cfg_.mean_session_pkts * (alpha - 1.0) / alpha;
  const double size = rng_.pareto(alpha, scale);
  const sim::Time next_arrival =
      sim_.now() + sim::Time::seconds(
                       rng_.exponential(1.0 / arrival_rate(sim_.now())));

  std::uint32_t slot = cfg_.max_active_sessions;
  for (std::uint32_t i = 0; i < sessions_.size(); ++i) {
    if (!sessions_[i].active) {
      slot = i;
      break;
    }
  }
  if (slot == cfg_.max_active_sessions) {
    ++rejected_;
  } else {
    Session& s = sessions_[slot];
    s.active = true;
    s.remaining = static_cast<std::uint64_t>(std::llround(std::max(1.0, size)));
    s.sent = 0;
    s.base = sim_.now();
    ++started_;
    ++active_;
    emit(slot);
  }
  arm(next_arrival, [this] { on_arrival(); });
}

void SessionSource::emit(std::uint32_t slot) {
  Session& s = sessions_[slot];
  send_packet();
  ++s.sent;
  --s.remaining;
  if (s.remaining == 0 ||
      !arm(s.timer, paced(s.base, s.sent, cfg_.session_rate_pps),
           [this, slot] { emit(slot); })) {
    finish_session(slot);
  }
}

void SessionSource::finish_session(std::uint32_t slot) {
  Session& s = sessions_[slot];
  s.active = false;
  --active_;
  ++completed_;
}

}  // namespace wmn::traffic
