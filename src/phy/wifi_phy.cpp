#include "phy/wifi_phy.hpp"

#include <algorithm>

#include "core/check.hpp"
#include "phy/channel.hpp"

namespace wmn::phy {

namespace {
// Weak power units per sensitivity power: a weak copy is below 2^40
// units, so 2^23 of them fit in the int64 sum.
constexpr double kWeakUnitsPerSensitivity = 1099511627776.0;  // 2^40
}  // namespace

WifiPhy::WifiPhy(sim::Simulator& simulator, const PhyConfig& cfg,
                 std::uint32_t node_id, const mobility::MobilityModel* mobility)
    : sim_(simulator),
      weak_units_per_mw_(kWeakUnitsPerSensitivity / dbm_to_mw(cfg.rx_sensitivity_dbm)),
      weak_unit_mw_(1.0 / weak_units_per_mw_),
      cfg_(cfg),
      noise_floor_mw_(dbm_to_mw(cfg.noise_floor_dbm)),
      cca_threshold_mw_(dbm_to_mw(cfg.cca_threshold_dbm)),
      sinr_threshold_lin_(db_to_linear(cfg.sinr_threshold_db)),
      node_id_(node_id),
      mobility_(mobility) {
  WMN_CHECK_NOTNULL(mobility_, "WifiPhy needs a mobility model");
  set_lockable_energy(0.0);
}

sim::Time WifiPhy::tx_duration(std::uint32_t bytes) const {
  const double payload_s = static_cast<double>(bytes) * 8.0 / cfg_.bit_rate_bps;
  return cfg_.preamble + sim::Time::seconds(payload_s);
}

void WifiPhy::watch_cca(bool on) {
  if (on == watched_) return;
  // Settle while still unwatched: edges before now are history.
  if (on) settle();
  watched_ = on;
}

void WifiPhy::set_up(bool up) {
  if (up == up_) return;
  settle();
  if (!up) {
    // Drop a reception lock without notifying the listener — the MAC is
    // powered down before the radio and must see no further callbacks.
    // The locked copy settles as dropped while down.
    if (locked_) {
      ++counters_.rx_dropped_down;
      locked_ = false;
      locked_packet_.reset();
      counters_.rx_airtime += sim_.now() - locked_since_;
      if (state_ == State::kRx) state_ = State::kIdle;
    }
    up_ = false;
    down_since_ = sim_.now();
  } else {
    up_ = true;
    down_time_ += sim_.now() - down_since_;
  }
  if (sensed_busy() != last_cca_busy_) refresh_cca(sim_.now());
}

void WifiPhy::refresh_cca(sim::Time at) {
  const bool busy = !last_cca_busy_;
  if (!busy) counters_.busy_time += at - cca_since_;
  cca_since_ = at;
  last_cca_busy_ = busy;
  if (watched_ && listener_ != nullptr) listener_->on_cca_change(busy);
}

sim::Time WifiPhy::earliest_idle() const {
  if (!up_) return sim_.now();  // a dead radio senses nothing
  if (state_ != State::kIdle) return sim::Time::max();
  const sim::Time next_transition = std::min(next_weak_begin(), next_weak_end());
  WMN_CHECK_GT(next_transition, sim_.now(), "earliest_idle on an unsettled radio");
  if (!sensed_busy()) return sim_.now();
  // Busy on energy alone. Busy turns idle only when a copy ends, and an
  // end lowers the weak sum by at most its own units (copies that begin
  // in between only raise it), so the first end at which that bound
  // drops below the threshold is the earliest candidate. Lockable
  // copies still on the air began during a transmission or a lock and
  // end in events the listener does not hear, so the bound is taken
  // against the threshold as if they had ended.
  const std::int64_t busy_units =
      arrivals_.empty() ? weak_busy_units_ : busy_units_over(0.0);
  std::int64_t bound = weak_units_;
  if (bound < busy_units) return sim_.now();
  for (std::size_t i = weak_ends_head_; i < weak_ends_.size(); ++i) {
    bound -= weak_ends_[i].units;
    if (bound < busy_units) return weak_ends_[i].end;
  }
  return sim::Time::max();
}

double WifiPhy::lockable_mw(std::uint64_t except_key) const {
  double sum = 0.0;
  for (const auto& a : arrivals_) {
    if (a.key != except_key) sum += a.power_mw;
  }
  return sum;
}

std::int64_t WifiPhy::busy_units_over(double mw) const {
  // The least unit count whose power reaches what the lockable sum
  // leaves of the threshold (rounded up).
  const double need = (cca_threshold_mw_ - mw) * weak_units_per_mw_;
  if (need <= 0.0) return 0;
  auto units = static_cast<std::int64_t>(need);
  if (static_cast<double>(units) < need) ++units;
  return units;
}

// --- interference ledger ----------------------------------------------------

void WifiPhy::settle_due() {
  const sim::Time now = sim_.now();
  for (;;) {
    const sim::Time t = std::min(next_weak_end(), next_weak_begin());
    if (t > now) break;
    // Tie rule: ends at t leave before begins at t arrive.
    for (; weak_ends_head_ < weak_ends_.size() && weak_ends_[weak_ends_head_].end == t;
         ++weak_ends_head_) {
      weak_units_ -= weak_ends_[weak_ends_head_].units;
    }
    bool began = false;
    // The heads advance before any callback, which may settle again.
    for (; ledger_head_ < ledger_.size() && ledger_[ledger_head_].begin == t;
         ++ledger_head_) {
      if (!up_) {
        if (channel_ == nullptr || !channel_->fault_drop_weak_copy()) {
          ++counters_.rx_dropped_down;
        }
        continue;
      }
      const WeakCopy& w = ledger_[ledger_head_];
      ++counters_.rx_below_sensitivity;
      weak_units_ += w.units;
      began = true;
      // Ends arrive nearly in order too: frames of one size end in the
      // order they began.
      enqueue(weak_ends_, weak_ends_head_, WeakEnd{w.end, w.units},
              [](const WeakEnd& e) { return e.end; });
    }
    // Begins only raise the sum, so the interference once every
    // transition at t is in is the largest any begin at t saw.
    if (began && locked_) {
      locked_max_interference_mw_ =
          std::max(locked_max_interference_mw_, lock_interference_mw());
    }
    if (sensed_busy() != last_cca_busy_) refresh_cca(t);
  }
  if (ledger_head_ == ledger_.size()) {
    ledger_.clear();
    ledger_head_ = 0;
  }
  if (weak_ends_head_ == weak_ends_.size()) {
    weak_ends_.clear();
    weak_ends_head_ = 0;
  }
}

// --- own transmissions and lockable arrivals --------------------------------

void WifiPhy::send(net::Packet packet) {
  WMN_CHECK(up_, "send() on a powered-down radio");
  WMN_CHECK(state_ == State::kIdle, "send() requires an idle radio");
  WMN_CHECK_NOTNULL(channel_, "radio not attached to a channel");
  settle();
  state_ = State::kTx;
  const sim::Time duration = tx_duration(packet.size_bytes());
  counters_.tx_airtime += duration;
  ++counters_.tx_frames;
  channel_->transmit(*this, packet, duration);
  sim_.schedule(duration, [this] { finish_tx(); });
  if (sensed_busy() != last_cca_busy_) refresh_cca(sim_.now());
}

void WifiPhy::finish_tx() {
  WMN_CHECK(state_ == State::kTx, "finish_tx outside an active transmission");
  settle();
  state_ = State::kIdle;
  // Energy that arrived while we were transmitting may still be on the
  // air; CCA reflects it now that TX no longer dominates.
  if (sensed_busy() != last_cca_busy_) refresh_cca(sim_.now());
  if (listener_ != nullptr) listener_->on_tx_end();
}

WifiPhy::ArrivalEnd WifiPhy::begin_arrival(const net::Packet& packet,
                                            double rx_power_dbm,
                                            double rx_power_mw) {
  WMN_CHECK(!is_weak(rx_power_dbm), "a weak copy belongs in the ledger, not the stream");
  // While transmitting, no weak transition can flip CCA or reach a
  // lock: the ledger waits for finish_tx.
  if (state_ != State::kTx) settle();
  if (!up_) {
    // Crashed mid-window: energy that was already in flight when the
    // channel-side fault check ran lands here and evaporates.
    ++counters_.rx_dropped_down;
    return {};
  }
  const std::uint64_t key = ++next_arrival_key_;
  // The energy before this arrival is the sum over every other one.
  const double lockable_before_mw = energy_mw_;
  arrivals_.push_back(Arrival{key, rx_power_mw});
  set_lockable_energy(energy_mw_ + rx_power_mw);

  if (state_ == State::kIdle && !locked_) {
    // Lock onto this frame.
    locked_ = true;
    locked_key_ = key;
    locked_packet_.emplace(packet);
    locked_since_ = sim_.now();
    locked_power_mw_ = rx_power_mw;
    locked_power_dbm_ = rx_power_dbm;
    locked_others_mw_ = lockable_before_mw;
    locked_max_interference_mw_ = lock_interference_mw();
    state_ = State::kRx;
    if (listener_ != nullptr) listener_->on_rx_start();
  } else {
    ++counters_.rx_missed_busy;
    // This arrival raises the interference seen by a locked frame.
    if (locked_) {
      locked_others_mw_ = lockable_mw(locked_key_);
      locked_max_interference_mw_ =
          std::max(locked_max_interference_mw_, lock_interference_mw());
    }
  }

  const ArrivalEnd end{key, sim_.reserve_seq()};
  if (sensed_busy() != last_cca_busy_) refresh_cca(sim_.now());
  return end;
}

void WifiPhy::end_arrival(std::uint64_t key) {
  // Settle before the lockable sum changes: a weak begin due by now
  // must meet the CCA threshold and the locked frame's interference
  // with this copy still on the air. While transmitting, neither
  // depends on the weak sum (as in begin_arrival).
  if (state_ != State::kTx) settle();
  const auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                               [key](const Arrival& a) { return a.key == key; });
  WMN_CHECK(it != arrivals_.end(), "end_arrival for an unknown arrival key");
  arrivals_.erase(it);
  // Re-sum rather than subtract: the running sum stays bit-equal to a
  // fresh sum over the arrivals still on the air.
  set_lockable_energy(lockable_mw(~0ULL));
  if (locked_ && key != locked_key_) locked_others_mw_ = lockable_mw(locked_key_);

  if (locked_ && key == locked_key_) {
    locked_ = false;
    counters_.rx_airtime += sim_.now() - locked_since_;
    state_ = State::kIdle;
    const double sinr_lin =
        locked_power_mw_ / (noise_floor_mw_ + locked_max_interference_mw_);
    // Same comparison as linear_to_db(sinr) >= threshold_db, kept in
    // the linear domain so the decode path never calls log10.
    const bool ok = sinr_lin >= sinr_threshold_lin_;
    const double rx_dbm = locked_power_dbm_;
    std::optional<net::Packet> packet = std::move(locked_packet_);
    locked_packet_.reset();
    if (ok) {
      ++counters_.rx_ok;
      if (listener_ != nullptr) listener_->on_rx_end(std::move(packet), rx_dbm);
    } else {
      ++counters_.rx_failed_sinr;
      if (listener_ != nullptr) listener_->on_rx_end(std::nullopt, rx_dbm);
    }
  }
  if (sensed_busy() != last_cca_busy_) refresh_cca(sim_.now());
}

}  // namespace wmn::phy
