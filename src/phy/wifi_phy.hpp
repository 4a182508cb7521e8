// Half-duplex radio with SINR-based reception.
//
// State machine: IDLE -> TX (MAC asked to send), IDLE -> RX (locked
// onto the first arrival strong enough to decode), arrivals during TX
// or RX are interference. CCA reports busy whenever the radio is not
// IDLE or the summed arrival energy exceeds the CCA threshold, which is
// how carrier sensing extends beyond decode range (the hidden/exposed
// terminal geometry the MAC must live with).
//
// Two kinds of copy reach a radio. A lockable copy (at or above
// rx_sensitivity_dbm) runs as begin/end items of the channel's arrival
// stream: begin_arrival() / end_arrival(). A weak copy (below it) can
// never lock, so it is no event at all: the channel enters it in this
// radio's interference ledger as a begin and an end transition, and
// the radio settles the ledger lazily, in time order, whenever
// anything reads or changes its state (a stream item, send, set_up,
// cca_busy, cumulative_busy_time, settle). Settling applies each due
// transition at its own timestamp, so the energy sum, the CCA busy
// time, the locked frame's max-interference and the counters are
// exact. Tie rule: at one timestamp, ledger ends settle before ledger
// begins, and ledger transitions at t settle before anything at t
// reads the PHY. (Weak power is summed in integers, so the order within
// one timestamp cannot change the sum; the CCA verdict and the
// interference are read once all transitions at t are in.)
//
// The summed energy has two parts. Lockable arrivals keep a running
// double sum: each begin adds its power, each end re-sums the rest in
// arrival order, so the sum is bit-equal to summing the list afresh.
// Weak copies add integer power units (2^-40 of the sensitivity power,
// about 3e-21 mW by default), so their sum is exact and independent of
// the order copies begin and end in. CCA compares the weak sum with a
// unit threshold derived from what the lockable sum leaves of the CCA
// threshold, so a weak transition costs an add and a compare.
//
// CCA edges reach the listener only while it watches (watch_cca): the
// MAC subscribes while it contends for the medium. The radio schedules
// no event for an edge. A weak copy's edge reaches the listener when
// the ledger settles, which may be after the edge's instant; the
// listener reads that instant from cca_since(), and bounds when the
// next idle edge can come with earliest_idle().
//
// Reception outcome: a locked frame is decoded successfully iff the
// SINR — locked power over (noise floor + the *maximum* concurrent
// interference seen during the frame) — clears the capture threshold.
// The max-interference rule is the standard conservative approximation
// (a frame clobbered for any part of its duration is lost).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "net/packet.hpp"
#include "core/check.hpp"
#include "phy/units.hpp"
#include "sim/simulator.hpp"

namespace wmn::phy {

class WirelessChannel;

namespace detail {

// A vector whose first N elements live inside the object: the radio's
// ledger is read on every settle, and keeping the common case in the
// radio's own memory saves a trip to a separate heap block. Past N the
// elements move to the heap for good. T must be trivially copyable;
// the owner must not move. (On the simbench mesh100 workload, ledgers
// held in std::vector ran 5% slower, and 2% slower when reserved at
// construction; see DESIGN.md 3c, "Per-receiver cost".)
template <typename T, std::size_t N>
class SmallVec {
 public:
  SmallVec() = default;
  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  // Append, first dropping the `head` elements before `head` (reset to
  // 0) if that makes room.
  void push_back(const T& x, std::size_t& head) {
    if (size_ == capacity_) {
      if (head > 0) {
        erase_prefix(head);
        head = 0;
      } else {
        grow();
      }
    }
    data_[size_++] = x;
  }
  void clear() { size_ = 0; }
  // Drop the first k elements.
  void erase_prefix(std::size_t k) {
    std::copy(data_ + k, data_ + size_, data_);
    size_ -= k;
  }
  // Heap bytes held (the inline part is counted with the owner).
  [[nodiscard]] std::size_t heap_bytes() const { return heap_.capacity() * sizeof(T); }

 private:
  void grow() {
    std::vector<T> bigger(2 * capacity_);
    std::copy(data_, data_ + size_, bigger.begin());
    heap_.swap(bigger);
    data_ = heap_.data();
    capacity_ = heap_.size();
  }

  std::array<T, N> inline_;
  T* data_ = inline_.data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
  std::vector<T> heap_;
};

}  // namespace detail

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

  // Carrier-sense state changed (true = busy). Called only while the
  // radio is watched (WifiPhy::watch_cca), and possibly after the edge's
  // instant: a lazy settle delivers the edges it applies, in order.
  // WifiPhy::cca_since() gives the instant during the call.
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
  // energy above the CCA threshold. Settles the ledger first.
  [[nodiscard]] bool cca_busy() {
    settle();
    return sensed_busy();
  }

  // Subscribe the listener to CCA edges (on_cca_change), or stop. The
  // radio settles before a subscription starts, so the first edge the
  // listener sees is one that happens after the call.
  void watch_cca(bool on);
  [[nodiscard]] bool watched() const { return watched_; }

  // The instant the CCA verdict last flipped: during on_cca_change, the
  // instant of the edge being delivered.
  [[nodiscard]] sim::Time cca_since() const { return cca_since_; }

  // The earliest instant, at or after now, at which CCA could turn idle
  // given what is on the air: copies that arrive later only keep it
  // busy longer. Now when CCA is idle. Time::max() while the radio
  // transmits or holds a reception lock; that ends in an event the
  // listener hears (on_tx_end, on_rx_end) before any idle edge. Reads
  // a settled radio.
  [[nodiscard]] sim::Time earliest_idle() const;

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
  // Where a lockable arrival's end goes: `key` names it to
  // end_arrival(), `seq` is the calendar sequence number reserved for
  // it. key == 0 means the arrival was dropped on the spot and has no
  // end.
  struct ArrivalEnd {
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
  };

  // A copy received at `rx_power_dbm` is weak: below the sensitivity,
  // it can never lock, so it goes to the interference ledger
  // (add_weak_copy) rather than the arrival stream (begin_arrival).
  [[nodiscard]] bool is_weak(double rx_power_dbm) const {
    return rx_power_dbm < cfg_.rx_sensitivity_dbm;
  }

  // A lockable arrival (not is_weak) begins at this radio (run by the
  // channel's arrival stream after the propagation delay).
  // `rx_power_dbm` is already path-loss adjusted;
  // `rx_power_mw` is the same power in linear units — the channel
  // memoises the dBm->mW conversion per cached link, so the radio's hot
  // path never calls pow(). `packet` is the stream's one shared copy:
  // it is read only before the first listener callback, and only the
  // frame the radio locks onto copies it. The caller runs
  // end_arrival(key) when the frame's air time has elapsed, in the
  // calendar position of the returned seq — reserved after the lock
  // decision, before the CCA update.
  [[nodiscard]] ArrivalEnd begin_arrival(const net::Packet& packet,
                                         double rx_power_dbm,
                                         double rx_power_mw);

  // The arrival `key` (from begin_arrival) leaves the air: decode the
  // locked frame if this was it, then update CCA.
  void end_arrival(std::uint64_t key);

  // A weak copy's power `power_mw` in this radio's integer ledger units.
  // The channel memoises it per static link.
  [[nodiscard]] std::int64_t weak_units(double power_mw) const {
    return static_cast<std::int64_t>(power_mw * weak_units_per_mw_ + 0.5);
  }

  // Enter a weak copy (below rx_sensitivity_dbm) in the interference
  // ledger: it is on the air over [begin, end) at `units` (weak_units).
  // `begin` must not lie in the past. Inline: the channel calls it for
  // most receivers of every transmission.
  void add_weak_units(sim::Time begin, sim::Time end, std::int64_t units) {
    WMN_CHECK_GT(end, begin, "weak copy with no air time");
    // Begins arrive nearly sorted: they differ by propagation delays.
    enqueue(ledger_, ledger_head_, WeakCopy{begin, end, units},
            [](const WeakCopy& c) { return c.begin; });
    // A radio nothing reads for a while still keeps a short ledger.
    if (ledger_.size() - ledger_head_ >= kLedgerBatch) settle_due();
  }

  // add_weak_units at `power_mw`.
  void add_weak_copy(sim::Time begin, sim::Time end, double power_mw) {
    add_weak_units(begin, end, weak_units(power_mw));
  }

  // Apply every ledger transition due by now.
  void settle() {
    if (std::min(next_weak_begin(), next_weak_end()) <= sim_.now()) settle_due();
  }

  // Weak copies entered but not yet settled at their begin.
  [[nodiscard]] std::size_t weak_copies_pending() const {
    return ledger_.size() - ledger_head_;
  }

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
  // LoadMonitor differences it over windows. Settles the ledger first.
  [[nodiscard]] sim::Time cumulative_busy_time() {
    settle();
    sim::Time t = counters_.busy_time;
    if (last_cca_busy_) t += sim_.now() - cca_since_;
    return t;
  }

  // --- diagnostics ------------------------------------------------------
  struct Counters {
    std::uint64_t tx_frames = 0;
    std::uint64_t rx_ok = 0;
    std::uint64_t rx_failed_sinr = 0;   // locked but clobbered
    std::uint64_t rx_missed_busy = 0;   // arrival while TX/RX-locked
    std::uint64_t rx_below_sensitivity = 0;
    std::uint64_t rx_dropped_down = 0;  // arrival or lock lost to power-down
    sim::Time tx_airtime{};
    sim::Time rx_airtime{};             // time spent RX-locked
    sim::Time busy_time{};              // cumulative CCA-busy time
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Summed power of the arrivals on the air (linear mW): what CCA
  // compares with its threshold. Settles the ledger first.
  [[nodiscard]] double arrival_energy_mw() {
    settle();
    return energy_mw();
  }

  // Dynamic footprint of this radio's state (arrival list and ledger) —
  // feeds the bytes_per_node bench counter.
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + arrivals_.capacity() * sizeof(Arrival) +
           ledger_.heap_bytes() + weak_ends_.heap_bytes();
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
  // A lockable arrival on the air, keyed by begin_arrival.
  struct Arrival {
    std::uint64_t key;
    double power_mw;
  };
  // A weak copy waiting for its begin, its power in weak units.
  struct WeakCopy {
    sim::Time begin;
    sim::Time end;
    std::int64_t units;
  };
  // A weak copy on the air.
  struct WeakEnd {
    sim::Time end;
    std::int64_t units;
  };

  // Insert `x` into the queue q[head, size), kept sorted by key() with
  // equal keys in insertion order. Entries arrive nearly sorted, so the
  // scan from the back is O(1) in practice. A full queue first drops
  // its consumed prefix [0, head) rather than grow.
  template <typename T, std::size_t N, typename Key>
  static void enqueue(detail::SmallVec<T, N>& q, std::size_t& head, const T& x, Key key) {
    q.push_back(x, head);
    std::size_t i = q.size() - 1;
    for (; i > head && key(q[i - 1]) > key(x); --i) q[i] = q[i - 1];
    q[i] = x;
  }

  void finish_tx();
  [[nodiscard]] double weak_mw() const {
    return static_cast<double>(weak_units_) * weak_unit_mw_;
  }
  [[nodiscard]] double energy_mw() const { return energy_mw_ + weak_mw(); }
  [[nodiscard]] bool sensed_busy() const {
    if (!up_) return false;  // a dead radio senses nothing
    if (state_ != State::kIdle) return true;
    return weak_units_ >= weak_busy_units_;
  }
  // Sum of lockable arrival power excluding the given key (linear mW).
  [[nodiscard]] double lockable_mw(std::uint64_t except_key) const;
  // The locked frame's interference right now.
  [[nodiscard]] double lock_interference_mw() const {
    return locked_others_mw_ + weak_mw();
  }
  // The least weak unit count that makes CCA busy on top of `mw` of
  // lockable power.
  [[nodiscard]] std::int64_t busy_units_over(double mw) const;
  // The lockable sum changed: re-derive the weak units that make CCA
  // busy on top of it.
  void set_lockable_energy(double mw) {
    energy_mw_ = mw;
    weak_busy_units_ = busy_units_over(mw);
  }
  void settle_due();
  [[nodiscard]] sim::Time next_weak_begin() const {
    return ledger_head_ < ledger_.size() ? ledger_[ledger_head_].begin
                                         : sim::Time::max();
  }
  [[nodiscard]] sim::Time next_weak_end() const {
    return weak_ends_head_ < weak_ends_.size() ? weak_ends_[weak_ends_head_].end
                                               : sim::Time::max();
  }
  // The CCA verdict flipped at `at`: account busy time and tell a
  // watching listener.
  void refresh_cca(sim::Time at);

  // The members the ledger touches come first and together: entering
  // and settling weak copies is most of a radio's work, and keeping it
  // in few cache lines is most of its cost. Counters sit up front
  // because settling counts every weak begin.
  sim::Simulator& sim_;
  Counters counters_;

  // Interference ledger. Weak copies not yet begun wait in ledger_ from
  // ledger_head_ on, in begin order (equal begins in entry order). Once
  // begun, a copy adds its units to weak_units_ and its end joins
  // weak_ends_ (from weak_ends_head_ on, in end order); it leaves when
  // settled past its end. Entries settle on every read or change of
  // state, and at the latest once kLedgerBatch wait. CCA is busy from
  // weak_busy_units_ on.
  //
  // Inline sizes, from the entry counts seen at each insertion on the
  // four simbench workloads: the batch bounds the waiting copies (over
  // 8 in under 1e-5 of insertions), and at most 4 copies are on the air
  // at one radio in 99.9% of insertions (97% on mesh400, where 8 cover
  // 99.99%). The ends get twice that room because a full queue compacts
  // its settled prefix; with room for 8, mesh100 ran 2% slower.
  static constexpr std::size_t kLedgerBatch = 8;
  detail::SmallVec<WeakCopy, kLedgerBatch> ledger_;
  double weak_units_per_mw_;
  std::size_t ledger_head_ = 0;
  std::int64_t weak_units_ = 0;
  std::int64_t weak_busy_units_ = 0;
  State state_ = State::kIdle;
  // The flags share state_'s word instead of padding a word each.
  bool locked_ = false;         // reception lock held (fields below)
  bool last_cca_busy_ = false;  // CCA verdict since cca_since_
  bool up_ = true;              // fault-injection power state
  bool watched_ = false;        // listener subscribed to CCA edges
  detail::SmallVec<WeakEnd, 2 * kLedgerBatch> weak_ends_;
  std::size_t weak_ends_head_ = 0;
  double weak_unit_mw_;
  sim::Time cca_since_{};

  std::vector<Arrival> arrivals_;
  // Sum of arrivals_' power, added in list order (linear mW).
  double energy_mw_ = 0.0;
  std::uint64_t next_arrival_key_ = 0;

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

  // Reception lock.
  std::uint64_t locked_key_ = 0;
  std::optional<net::Packet> locked_packet_;
  sim::Time locked_since_{};
  double locked_power_mw_ = 0.0;
  double locked_power_dbm_ = 0.0;  // as delivered; avoids log10 at decode
  double locked_max_interference_mw_ = 0.0;
  // Lockable power on the air besides the locked frame's.
  double locked_others_mw_ = 0.0;

  // Fault-injection power state.
  sim::Time down_since_{};
  sim::Time down_time_{};  // closed down intervals only
};

}  // namespace wmn::phy
