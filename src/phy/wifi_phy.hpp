// Half-duplex radio with SINR-based reception.
//
// State machine: IDLE -> TX (MAC asked to send), IDLE -> RX (locked
// onto the first arrival strong enough to decode), arrivals during TX
// or RX are interference. CCA reports busy whenever the radio is not
// IDLE or the summed arrival energy exceeds the CCA threshold, which is
// how carrier sensing extends beyond decode range (the hidden/exposed
// terminal geometry the MAC must live with). The summed energy is kept
// as a running sum: each begin adds its power, each end re-sums the
// remaining arrivals in arrival order, so CCA is O(1) per begin and
// the sum is bit-equal to summing the arrival list afresh.
//
// Reception outcome: a locked frame is decoded successfully iff the
// SINR — locked power over (noise floor + the *maximum* concurrent
// interference seen during the frame) — clears the capture threshold.
// The max-interference rule is the standard conservative approximation
// (a frame clobbered for any part of its duration is lost).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "net/packet.hpp"
#include "phy/units.hpp"
#include "sim/simulator.hpp"

namespace wmn::phy {

class WirelessChannel;

struct PhyConfig {
  double tx_power_dbm = 15.0;
  double bit_rate_bps = 2e6;           // 802.11 (1999) 2 Mb/s DSSS regime
  sim::Time preamble = sim::Time::micros(192.0);
  double noise_floor_dbm = -96.0;      // thermal + NF over ~22 MHz
  double rx_sensitivity_dbm = -85.0;   // min power to lock/decode
  double cca_threshold_dbm = -92.0;    // energy-detect busy threshold
  double detection_floor_dbm = -98.0;  // below this the channel drops the copy
  double sinr_threshold_db = 10.0;     // capture/decode threshold

  // Radio power draw for the energy model (typical 802.11b card).
  double power_tx_w = 1.4;
  double power_rx_w = 0.9;    // actively decoding a locked frame
  double power_idle_w = 0.8;  // listening (idle or CCA-busy unlocked)
};

// Upper-layer (MAC) callbacks. All are invoked from the event loop.
class PhyListener {
 public:
  virtual ~PhyListener() = default;

  // A decodable frame started arriving (the radio locked onto it).
  virtual void on_rx_start() = 0;

  // Frame reception finished. `packet` is empty on decode failure
  // (SINR below threshold). `rx_power_dbm` is the locked frame power.
  virtual void on_rx_end(std::optional<net::Packet> packet,
                         double rx_power_dbm) = 0;

  // Our own transmission completed; the radio is free again.
  virtual void on_tx_end() = 0;

  // Carrier-sense state changed (true = busy).
  virtual void on_cca_change(bool busy) = 0;
};

class WifiPhy {
 public:
  enum class State { kIdle, kTx, kRx };

  WifiPhy(sim::Simulator& simulator, const PhyConfig& cfg, std::uint32_t node_id,
          const mobility::MobilityModel* mobility);

  WifiPhy(const WifiPhy&) = delete;
  WifiPhy& operator=(const WifiPhy&) = delete;

  void attach(WirelessChannel* channel) { channel_ = channel; }
  void set_listener(PhyListener* listener) { listener_ = listener; }

  // --- MAC-facing API --------------------------------------------------
  // Transmit a frame. Precondition: can_transmit(). The MAC is notified
  // via on_tx_end() when the air time elapses.
  void send(net::Packet packet);

  [[nodiscard]] bool can_transmit() const { return state_ == State::kIdle; }

  // Full frame air time for a given size at the configured rate.
  [[nodiscard]] sim::Time tx_duration(std::uint32_t bytes) const;

  // Carrier-sense: busy if transmitting, receiving, or summed arrival
  // energy above the CCA threshold.
  [[nodiscard]] bool cca_busy() const;

  [[nodiscard]] State state() const { return state_; }

  // --- fault-injection API ---------------------------------------------
  // Power the radio down/up (fault::schedule_crashes). A down radio drops every
  // arrival, reports CCA idle, and must not be asked to send(). Going
  // down releases a reception lock silently (no on_rx_end); an in-flight
  // own transmission still runs to its scheduled end — the MAC is
  // powered down first and ignores the on_tx_end. Down time draws no
  // energy. No-op when already in the requested state.
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  // --- channel-facing API ----------------------------------------------
  // Where an arrival's end goes: `key` names it to end_arrival(), `seq`
  // is the calendar sequence number reserved for it. key == 0 means the
  // arrival was dropped on the spot and has no end.
  struct ArrivalEnd {
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
  };

  // An energy arrival begins at this radio (run by the channel's arrival
  // stream after the propagation delay). `rx_power_dbm` is already
  // path-loss adjusted; `rx_power_mw` is the same power in linear units
  // — the channel memoises the dBm->mW conversion per cached link, so
  // the radio's hot path never calls pow(). `packet` is the stream's one
  // shared copy: it is read only before the first listener callback,
  // and only the frame the radio locks onto copies it. The caller runs
  // end_arrival(key) when the frame's air time has elapsed, in the
  // calendar position of the returned seq — reserved where a scheduled
  // end event would have taken it (after the lock decision, before the
  // CCA update).
  [[nodiscard]] ArrivalEnd begin_arrival(const net::Packet& packet,
                                         double rx_power_dbm,
                                         double rx_power_mw);

  // The arrival `key` (from begin_arrival) leaves the air: decode the
  // locked frame if this was it, then update CCA.
  void end_arrival(std::uint64_t key);

  [[nodiscard]] mobility::Vec2 position(sim::Time now) const {
    return mobility_->position(now);
  }
  [[nodiscard]] const mobility::MobilityModel* mobility() const {
    return mobility_;
  }
  // Dense position in the channel's radio list, assigned by
  // WirelessChannel::attach(); keys the channel's spatial index and
  // neighbour caches (node_id is user-chosen and need not be dense).
  void set_channel_index(std::uint32_t i) { channel_index_ = i; }
  [[nodiscard]] std::uint32_t channel_index() const { return channel_index_; }
  [[nodiscard]] std::uint32_t node_id() const { return node_id_; }
  [[nodiscard]] const PhyConfig& config() const { return cfg_; }

  // Total time this radio has seen the medium busy (including its own
  // transmissions), up to the current instant. Monotone; the
  // LoadMonitor differences it over windows.
  [[nodiscard]] sim::Time cumulative_busy_time() const {
    sim::Time t = counters_.busy_time;
    if (last_cca_busy_) t += sim_.now() - busy_since_;
    return t;
  }

  // --- diagnostics ------------------------------------------------------
  struct Counters {
    std::uint64_t tx_frames = 0;
    std::uint64_t rx_ok = 0;
    std::uint64_t rx_failed_sinr = 0;   // locked but clobbered
    std::uint64_t rx_missed_busy = 0;   // arrival while TX/RX-locked
    std::uint64_t rx_below_sensitivity = 0;
    std::uint64_t rx_dropped_down = 0;  // arrival while powered down
    sim::Time tx_airtime{};
    sim::Time rx_airtime{};             // time spent RX-locked
    sim::Time busy_time{};              // cumulative CCA-busy time
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Summed power of the arrivals on the air (linear mW): what CCA
  // compares with its threshold.
  [[nodiscard]] double arrival_energy_mw() const { return energy_mw_; }

  // Dynamic footprint of this radio's state (arrival list) — feeds the
  // bytes_per_node bench counter.
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + arrivals_.capacity() * sizeof(Arrival);
  }

  // Energy consumed since t=0 under the configured power draws:
  // TX at power_tx_w, RX-locked at power_rx_w, everything else
  // (listening, idle, carrier-sensing) at power_idle_w. Powered-down
  // intervals draw nothing.
  [[nodiscard]] double energy_joules() const {
    const double total_s = sim_.now().to_seconds();
    const double tx_s = counters_.tx_airtime.to_seconds();
    double rx_s = counters_.rx_airtime.to_seconds();
    if (locked_) rx_s += (sim_.now() - locked_since_).to_seconds();
    double down_s = down_time_.to_seconds();
    if (!up_) down_s += (sim_.now() - down_since_).to_seconds();
    const double idle_s = total_s - tx_s - rx_s - down_s;
    return cfg_.power_tx_w * tx_s + cfg_.power_rx_w * rx_s +
           cfg_.power_idle_w * (idle_s > 0.0 ? idle_s : 0.0);
  }

 private:
  struct Arrival {
    std::uint64_t key;
    double power_mw;
  };

  void finish_tx();
  // Sum of arrival power excluding the given key (linear mW).
  [[nodiscard]] double interference_mw(std::uint64_t except_key) const;
  void refresh_cca();

  sim::Simulator& sim_;
  PhyConfig cfg_;
  // Hot-path constants derived from cfg_ once at construction: the
  // linear-domain thresholds let arrival/CCA/decode logic run without
  // pow()/log10() per event.
  double noise_floor_mw_;
  double cca_threshold_mw_;
  double sinr_threshold_lin_;
  std::uint32_t node_id_;
  std::uint32_t channel_index_ = 0;
  const mobility::MobilityModel* mobility_;
  WirelessChannel* channel_ = nullptr;
  PhyListener* listener_ = nullptr;

  State state_ = State::kIdle;
  // The flags share state_'s word instead of padding a word each.
  bool locked_ = false;         // reception lock held (fields below)
  bool last_cca_busy_ = false;  // CCA verdict since busy_since_
  bool up_ = true;              // fault-injection power state
  std::vector<Arrival> arrivals_;
  // Sum of arrivals_' power, added in list order (linear mW).
  double energy_mw_ = 0.0;
  std::uint64_t next_arrival_key_ = 0;

  // Reception lock.
  std::uint64_t locked_key_ = 0;
  std::optional<net::Packet> locked_packet_;
  sim::Time locked_since_{};
  double locked_power_mw_ = 0.0;
  double locked_power_dbm_ = 0.0;  // as delivered; avoids log10 at decode
  double locked_max_interference_mw_ = 0.0;

  sim::Time busy_since_{};

  // Fault-injection power state.
  sim::Time down_since_{};
  sim::Time down_time_{};  // closed down intervals only

  Counters counters_;
};

}  // namespace wmn::phy
