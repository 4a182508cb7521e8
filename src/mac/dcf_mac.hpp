// CSMA/CA MAC in the style of IEEE 802.11 DCF (basic access, no
// RTS/CTS — the configuration the source papers use for 512-byte CBR
// traffic).
//
// Channel access: a station with a pending frame waits for the medium
// to be idle for DIFS, then counts down a backoff of uniform[0, CW]
// slots, freezing whenever the medium goes busy and resuming after the
// next idle DIFS. The countdown is arithmetic on the CCA edges' own
// instants, which the radio may deliver late (see WifiPhy): one access
// timer sits at the earliest instant the countdown could complete, and
// when it fires the MAC settles the radio and either transmits or
// moves the timer on. Unicast frames are acknowledged after SIFS; a missing
// ACK doubles CW (binary exponential backoff) and retries up to the
// retry limit, after which the frame is dropped and the upper layer is
// told the link failed (AODV's link-break trigger). Broadcast frames
// get one shot, no ACK — which is exactly why RREQ storms hurt.
//
// Cross-layer instruments exposed to the routing layer:
//   * queue_ratio()  — interface-queue occupancy in [0,1]
//   * busy_ratio()   — windowed medium busy-time fraction (see
//                      LoadMonitor), the "channel load" signal
//   * retry_ratio()  — windowed fraction of transmissions that were
//                      retries, a contention/collision proxy
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "core/flat_map.hpp"
#include "mac/load_monitor.hpp"
#include "mac/mac_header.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"
#include "phy/wifi_phy.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace wmn::mac {

struct MacConfig {
  sim::Time slot = sim::Time::micros(20.0);
  sim::Time sifs = sim::Time::micros(10.0);
  // DIFS = SIFS + 2 * slot.
  std::uint32_t cw_min = 31;
  std::uint32_t cw_max = 1023;
  std::uint32_t retry_limit = 7;
  std::size_t queue_capacity = 50;   // ns-2 default IFQ length
  sim::Time ack_timeout_slack = sim::Time::micros(60.0);
  // RTS/CTS handshake for unicast frames larger than this (bytes,
  // including the MAC header). Default: off, matching the source
  // papers' basic-access configuration.
  std::uint32_t rts_threshold_bytes = 0xFFFFFFFFu;
  sim::Time cts_timeout_slack = sim::Time::micros(60.0);
};

class DcfMac final : public phy::PhyListener {
 public:
  // Delivered frame destined to this station (or broadcast).
  using RxCallback = std::function<void(net::Packet, net::Address src)>;
  // Unicast delivery outcome after all MAC retries. On failure the
  // undeliverable packet is handed back for the upper layer to salvage.
  using TxFailedCallback = std::function<void(net::Address dst, net::Packet)>;
  using TxOkCallback = std::function<void(net::Address dst)>;

  DcfMac(sim::Simulator& simulator, const MacConfig& cfg, net::Address self,
         phy::WifiPhy& phy, net::PacketFactory& factory);

  DcfMac(const DcfMac&) = delete;
  DcfMac& operator=(const DcfMac&) = delete;

  void set_rx_callback(RxCallback cb) { rx_cb_ = std::move(cb); }
  void set_tx_failed_callback(TxFailedCallback cb) { tx_failed_cb_ = std::move(cb); }
  void set_tx_ok_callback(TxOkCallback cb) { tx_ok_cb_ = std::move(cb); }

  // Queue a frame for `dst` (unicast address or Address::broadcast()).
  // Returns false (and drops) when the interface queue is full.
  bool enqueue(net::Packet packet, net::Address dst);

  [[nodiscard]] net::Address address() const { return self_; }

  // --- fault-injection API ---------------------------------------------
  // Crash/recover this station (fault::schedule_crashes). power_down() cancels
  // every MAC timer, discards the interface queue and the in-service
  // frame *without* invoking the tx-failed callback (a crashed router
  // must not trigger its own link-break handling), and gates enqueue()
  // and all PhyListener callbacks. power_up() is a cold restart: CW and
  // duplicate-detection state come back as on construction. Call order
  // for a crash is mac.power_down() then phy.set_up(false); for a
  // rejoin phy.set_up(true) then mac.power_up().
  void power_down();
  void power_up();
  [[nodiscard]] bool is_down() const { return down_; }

  // --- cross-layer instruments ----------------------------------------
  [[nodiscard]] double queue_ratio() const {
    // The in-service frame counts as backlog, so a full queue plus a
    // frame in flight would read 51/50; clamp to the unit interval.
    const double r = static_cast<double>(queue_.size() + (current_ ? 1u : 0u)) /
                     static_cast<double>(cfg_.queue_capacity);
    return r > 1.0 ? 1.0 : r;
  }
  [[nodiscard]] double busy_ratio() const { return monitor_.busy_ratio(); }
  [[nodiscard]] double retry_ratio() const { return monitor_.retry_ratio(); }
  [[nodiscard]] LoadMonitor& monitor() { return monitor_; }

  // --- counters ---------------------------------------------------------
  struct Counters {
    std::uint64_t enqueued = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t tx_data_unicast = 0;
    std::uint64_t tx_data_broadcast = 0;
    std::uint64_t tx_acks = 0;
    std::uint64_t tx_rts = 0;
    std::uint64_t tx_cts = 0;
    std::uint64_t cts_timeouts = 0;
    std::uint64_t retries = 0;
    std::uint64_t retry_drops = 0;      // frames dead after retry limit
    std::uint64_t rx_delivered = 0;     // handed to the upper layer
    std::uint64_t rx_duplicates = 0;    // MAC-level retransmission dups
    std::uint64_t rx_overheard = 0;     // frames for someone else
    std::uint64_t down_drops = 0;       // frames discarded by power_down
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Dynamic footprint (tx queue + duplicate-detection table) — feeds
  // the bytes_per_node bench counter.
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + queue_.size() * sizeof(OutFrame) +
           last_rx_seq_.memory_bytes();
  }

  // --- PhyListener -------------------------------------------------------
  void on_rx_start() override;
  void on_rx_end(std::optional<net::Packet> packet, double rx_power_dbm) override;
  void on_tx_end() override;
  void on_cca_change(bool busy) override;

 private:
  enum class TxState {
    kIdle,      // nothing to send
    kAccess,    // waiting for idle DIFS / counting down backoff
    kSending,   // frame (data or RTS) on the air
    kAwaitCts,  // RTS sent, CTS timer running
    kAwaitAck,  // unicast sent, ACK timer running
  };

  struct OutFrame {
    net::Packet packet;
    net::Address dst;
    std::uint32_t attempts = 0;
    std::uint16_t seq = 0;
  };

  [[nodiscard]] sim::Time difs() const { return cfg_.sifs + cfg_.slot * 2; }

  // Every TxState change goes through here: it subscribes the MAC to
  // the radio's CCA edges exactly while it is in kAccess, and drops the
  // countdown and its timer outside it.
  void set_state(TxState s);

  // Begin/continue the channel-access procedure for current_.
  void start_access(bool new_backoff);
  // The medium went busy at `at` (CCA or NAV): stop the countdown,
  // keeping the backoff slots that fully elapsed. A countdown that
  // completes at `at` is not stopped: its transmission goes first.
  void freeze(sim::Time at);
  // When the countdown completes if the medium stays idle from
  // idle_since_ on (Time::max() when it is not counting).
  [[nodiscard]] sim::Time completion() const {
    return idle_since_ == sim::Time::max()
               ? sim::Time::max()
               : idle_since_ + difs() + cfg_.slot * backoff_slots_;
  }
  // The earliest instant the countdown could complete; Time::max()
  // when only an event can start it (a lock or transmission ending,
  // the NAV expiring).
  [[nodiscard]] sim::Time access_due() const;
  // Keep the access timer at access_due(); an unchanged instant keeps
  // the pending event.
  void rearm_access();
  void on_access_timer();
  void transmit_current();
  void send_data_frame();
  void on_ack_timeout();
  // Shared BEB retry/drop path for missing CTS or ACK responses.
  void handle_no_response();
  void on_cts_timeout();
  void transmit_data_after_cts();
  [[nodiscard]] bool medium_busy() const;
  void set_nav(sim::Time until);
  void on_nav_expired();
  void finish_current(bool success);
  void send_ack(net::Address to, std::uint16_t seq);
  // A decoded frame: control frames act on the exchange, data goes up.
  void handle_frame(net::Packet packet);
  void handle_data(net::Packet packet, const MacHeader& hdr);

  sim::Simulator& sim_;
  MacConfig cfg_;
  net::Address self_;
  phy::WifiPhy& phy_;
  net::PacketFactory& factory_;
  sim::RngStream rng_;
  LoadMonitor monitor_;

  RxCallback rx_cb_;
  TxFailedCallback tx_failed_cb_;
  TxOkCallback tx_ok_cb_;

  std::deque<OutFrame> queue_;
  std::optional<OutFrame> current_;
  TxState state_ = TxState::kIdle;

  std::uint32_t cw_ = 31;
  std::uint32_t backoff_slots_ = 0;
  // The countdown's DIFS began here (Time::max() while not counting);
  // the backoff slots follow it.
  sim::Time idle_since_ = sim::Time::max();
  // The access timer, pending at access_at_ (Time::max() when none),
  // at calendar seq access_seq_ (0 when none).
  sim::EventId access_timer_{};
  sim::Time access_at_ = sim::Time::max();
  std::uint64_t access_seq_ = 0;
  sim::EventId ack_timer_{};

  // Our own ACK/CTS is on the air (responses bypass the access queue
  // at SIFS priority, so they interleave with a paused access
  // procedure).
  bool ack_in_flight_ = false;
  bool cts_in_flight_ = false;
  sim::EventId ack_tx_timer_{};
  sim::EventId cts_tx_timer_{};

  // RTS/CTS exchange state.
  bool sending_rts_ = false;
  sim::EventId cts_timer_{};
  sim::EventId data_after_cts_timer_{};

  // Virtual carrier sense: medium reserved until this instant.
  sim::Time nav_until_{};
  sim::EventId nav_timer_{};

  std::uint16_t next_seq_ = 0;
  // MAC-level duplicate detection: last seq seen per source.
  core::FlatMap<net::Address, std::uint16_t> last_rx_seq_;

  // Fault-injection power state.
  bool down_ = false;

  Counters counters_;
};

}  // namespace wmn::mac
