#include "phy/wifi_phy.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "phy/channel.hpp"

namespace wmn::phy {

WifiPhy::WifiPhy(sim::Simulator& simulator, const PhyConfig& cfg,
                 std::uint32_t node_id, const mobility::MobilityModel* mobility)
    : sim_(simulator),
      cfg_(cfg),
      noise_floor_mw_(dbm_to_mw(cfg.noise_floor_dbm)),
      cca_threshold_mw_(dbm_to_mw(cfg.cca_threshold_dbm)),
      sinr_threshold_lin_(db_to_linear(cfg.sinr_threshold_db)),
      node_id_(node_id),
      mobility_(mobility) {
  WMN_CHECK_NOTNULL(mobility_, "WifiPhy needs a mobility model");
}

sim::Time WifiPhy::tx_duration(std::uint32_t bytes) const {
  const double payload_s = static_cast<double>(bytes) * 8.0 / cfg_.bit_rate_bps;
  return cfg_.preamble + sim::Time::seconds(payload_s);
}

bool WifiPhy::cca_busy() const {
  if (!up_) return false;  // a dead radio senses nothing
  if (state_ != State::kIdle) return true;
  return energy_mw_ >= cca_threshold_mw_;
}

void WifiPhy::set_up(bool up) {
  if (up == up_) return;
  if (!up) {
    // Drop a reception lock without notifying the listener — the MAC is
    // powered down before the radio and must see no further callbacks.
    if (locked_) {
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
  refresh_cca();
}

void WifiPhy::refresh_cca() {
  const bool busy = cca_busy();
  if (busy == last_cca_busy_) return;
  if (busy) {
    busy_since_ = sim_.now();
  } else {
    counters_.busy_time += sim_.now() - busy_since_;
  }
  last_cca_busy_ = busy;
  if (listener_ != nullptr) listener_->on_cca_change(busy);
}

double WifiPhy::interference_mw(std::uint64_t except_key) const {
  double sum = 0.0;
  for (const auto& a : arrivals_) {
    if (a.key != except_key) sum += a.power_mw;
  }
  return sum;
}

void WifiPhy::send(net::Packet packet) {
  WMN_CHECK(up_, "send() on a powered-down radio");
  WMN_CHECK(state_ == State::kIdle, "send() requires an idle radio");
  WMN_CHECK_NOTNULL(channel_, "radio not attached to a channel");
  state_ = State::kTx;
  const sim::Time duration = tx_duration(packet.size_bytes());
  counters_.tx_airtime += duration;
  ++counters_.tx_frames;
  channel_->transmit(*this, packet, duration);
  sim_.schedule(duration, [this] { finish_tx(); });
  refresh_cca();
}

void WifiPhy::finish_tx() {
  WMN_CHECK(state_ == State::kTx, "finish_tx outside an active transmission");
  state_ = State::kIdle;
  // Energy that arrived while we were transmitting may still be on the
  // air; CCA reflects it now that TX no longer dominates.
  refresh_cca();
  if (listener_ != nullptr) listener_->on_tx_end();
}

WifiPhy::ArrivalEnd WifiPhy::begin_arrival(const net::Packet& packet,
                                            double rx_power_dbm,
                                            double rx_power_mw) {
  if (!up_) {
    // Crashed mid-window: energy that was already in flight when the
    // channel-side fault check ran lands here and evaporates.
    ++counters_.rx_dropped_down;
    return {};
  }
  const std::uint64_t key = ++next_arrival_key_;
  // The energy before this arrival is the sum over every other one:
  // exactly interference_mw(key), with the same additions in the same
  // order.
  const double others_mw = energy_mw_;
  arrivals_.push_back(Arrival{key, rx_power_mw});
  energy_mw_ += rx_power_mw;

  const bool decodable = rx_power_dbm >= cfg_.rx_sensitivity_dbm;
  if (state_ == State::kIdle && !locked_ && decodable) {
    // Lock onto this frame.
    locked_ = true;
    locked_key_ = key;
    locked_packet_.emplace(packet);
    locked_since_ = sim_.now();
    locked_power_mw_ = rx_power_mw;
    locked_power_dbm_ = rx_power_dbm;
    locked_max_interference_mw_ = others_mw;
    state_ = State::kRx;
    if (listener_ != nullptr) listener_->on_rx_start();
  } else {
    if (decodable) {
      if (state_ == State::kIdle && !locked_) {
        WMN_UNREACHABLE("decodable arrival on an idle, unlocked radio");
      } else {
        ++counters_.rx_missed_busy;
      }
    } else {
      ++counters_.rx_below_sensitivity;
    }
    // This arrival raises the interference seen by a locked frame.
    if (locked_) {
      locked_max_interference_mw_ =
          std::max(locked_max_interference_mw_, interference_mw(locked_key_));
    }
  }

  const ArrivalEnd end{key, sim_.reserve_seq()};
  refresh_cca();
  return end;
}

void WifiPhy::end_arrival(std::uint64_t key) {
  const auto it = std::find_if(arrivals_.begin(), arrivals_.end(),
                               [key](const Arrival& a) { return a.key == key; });
  WMN_CHECK(it != arrivals_.end(), "end_arrival for an unknown arrival key");
  arrivals_.erase(it);
  // Re-sum rather than subtract: the running sum stays bit-equal to a
  // fresh sum over the arrivals still on the air.
  energy_mw_ = interference_mw(~0ULL);

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
  refresh_cca();
}

}  // namespace wmn::phy
