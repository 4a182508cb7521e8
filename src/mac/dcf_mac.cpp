#include "mac/dcf_mac.hpp"

#include <algorithm>
#include <utility>

#include "core/check.hpp"

namespace wmn::mac {

namespace {
// Per-node MAC stream ids live in their own namespace so they cannot
// collide with other components' streams for the same node.
constexpr std::uint64_t kMacStreamSalt = 0x3AC0'0000'0000'0000ULL;
}  // namespace

DcfMac::DcfMac(sim::Simulator& simulator, const MacConfig& cfg, net::Address self,
               phy::WifiPhy& phy, net::PacketFactory& factory)
    : sim_(simulator),
      cfg_(cfg),
      self_(self),
      phy_(phy),
      factory_(factory),
      rng_(simulator.make_stream(kMacStreamSalt ^ self.value())),
      monitor_(simulator, LoadMonitorConfig{}, phy),
      cw_(cfg.cw_min) {
  phy_.set_listener(this);
}

void DcfMac::power_down() {
  if (down_) return;
  down_ = true;
  sim_.cancel(ack_timer_);
  sim_.cancel(ack_tx_timer_);
  sim_.cancel(cts_tx_timer_);
  sim_.cancel(cts_timer_);
  sim_.cancel(data_after_cts_timer_);
  sim_.cancel(nav_timer_);
  counters_.down_drops += queue_.size() + (current_ ? 1u : 0u);
  queue_.clear();
  current_.reset();
  set_state(TxState::kIdle);
  ack_in_flight_ = false;
  cts_in_flight_ = false;
  sending_rts_ = false;
  nav_until_ = sim::Time{};
  backoff_slots_ = 0;
  cw_ = cfg_.cw_min;
}

void DcfMac::power_up() {
  if (!down_) return;
  down_ = false;
  // Cold restart: a rebooted station has no memory of peer sequence
  // numbers, so duplicate detection starts from scratch.
  last_rx_seq_.clear();
}

void DcfMac::set_state(TxState s) {
  state_ = s;
  // CCA edges matter only while contending: the countdown exists in
  // kAccess alone.
  phy_.watch_cca(s == TxState::kAccess);
  if (s != TxState::kAccess) {
    idle_since_ = sim::Time::max();
    rearm_access();
  }
}

bool DcfMac::enqueue(net::Packet packet, net::Address dst) {
  if (down_) {
    ++counters_.down_drops;
    return false;
  }
  if (queue_.size() >= cfg_.queue_capacity) {
    ++counters_.queue_drops;
    return false;
  }
  ++counters_.enqueued;
  queue_.push_back(OutFrame{std::move(packet), dst, 0, 0});
  if (!current_) {
    current_ = std::move(queue_.front());
    queue_.pop_front();
    cw_ = cfg_.cw_min;
    start_access(/*new_backoff=*/true);
  }
  return true;
}

void DcfMac::start_access(bool new_backoff) {
  WMN_CHECK(current_.has_value(), "channel access without a frame to send");
  set_state(TxState::kAccess);
  if (new_backoff) {
    backoff_slots_ = static_cast<std::uint32_t>(rng_.uniform_u64(0, cw_));
  }
  // Otherwise on_cca_change(false) / on_nav_expired() starts the DIFS.
  if (!medium_busy() && idle_since_ == sim::Time::max()) idle_since_ = sim_.now();
  rearm_access();
}

void DcfMac::freeze(sim::Time at) {
  if (idle_since_ == sim::Time::max()) return;
  const sim::Time backoff_from = idle_since_ + difs();
  if (at >= backoff_from) {
    const auto spent = static_cast<std::uint32_t>((at - backoff_from).ns() / cfg_.slot.ns());
    WMN_CHECK_LE(spent, backoff_slots_, "the medium went busy after the countdown completed");
    if (spent == backoff_slots_) return;  // completes at `at`: it goes first
    backoff_slots_ -= spent;
  }
  idle_since_ = sim::Time::max();
}

void DcfMac::on_cca_change(bool busy) {
  if (down_ || state_ != TxState::kAccess) return;
  const sim::Time at = phy_.cca_since();
  if (busy) {
    freeze(at);
  } else if (idle_since_ == sim::Time::max() && nav_until_ <= at) {
    idle_since_ = at;
  }
  // An edge before now comes from a settle that may deliver more, and
  // the radio is read only once settled. The timer needs no move to
  // stay a lower bound (late edges only put the completion later), so
  // a late edge moves it only to a countdown it started, and only
  // where no later edge of the same settle must follow.
  const bool started = !busy && idle_since_ == at;
  if (at == sim_.now() || (started && completion() >= sim_.now())) rearm_access();
}

sim::Time DcfMac::access_due() const {
  if (state_ != TxState::kAccess || down_) return sim::Time::max();
  if (idle_since_ != sim::Time::max()) return completion();
  if (nav_until_ > sim_.now()) return sim::Time::max();
  const sim::Time idle = phy_.earliest_idle();
  if (idle == sim::Time::max()) return idle;
  return idle + difs() + cfg_.slot * backoff_slots_;
}

void DcfMac::rearm_access() {
  const sim::Time at = access_due();
  if (at == access_at_) return;
  sim_.cancel(access_timer_);
  access_at_ = at;
  if (at == sim::Time::max()) {
    access_seq_ = 0;
    return;
  }
  // The timer keeps the calendar seq it took when the countdown's
  // timer was first set: moving on only ever puts it later, and the
  // seq orders it ahead of every copy that reaches the radio at the
  // completion instant (DESIGN.md, "Carrier sense is pulled").
  if (access_seq_ == 0) access_seq_ = sim_.reserve_seq();
  access_timer_ = sim_.schedule_keyed(at, access_seq_, [this] { on_access_timer(); });
}

void DcfMac::on_access_timer() {
  // access_at_ stays now while settling, so a re-arm to now is no move.
  phy_.settle();
  if (state_ == TxState::kAccess && completion() == sim_.now()) {
    transmit_current();
    return;
  }
  // The completion lies ahead now (or the countdown is gone).
  rearm_access();
}

bool DcfMac::medium_busy() const {
  return phy_.cca_busy() || nav_until_ > sim_.now();
}

void DcfMac::set_nav(sim::Time until) {
  if (until <= nav_until_) return;
  // Edges due by now meet the countdown before the reservation does.
  phy_.settle();
  nav_until_ = until;
  // A fresh reservation interrupts any access countdown in progress.
  freeze(sim_.now());
  sim_.cancel(nav_timer_);
  nav_timer_ = sim_.schedule_at(until, [this] { on_nav_expired(); });
  rearm_access();
}

void DcfMac::on_nav_expired() {
  if (state_ != TxState::kAccess) return;
  const bool busy = medium_busy();  // settles first
  if (!busy && idle_since_ == sim::Time::max()) idle_since_ = sim_.now();
  rearm_access();
}

void DcfMac::transmit_current() {
  WMN_CHECK(current_.has_value(), "transmit without a frame to send");
  // DCF legality: data/RTS transmissions come only out of the access
  // countdown; ACK/CTS responses bypass this path entirely.
  WMN_CHECK(state_ == TxState::kAccess,
            "transmit_current outside the access procedure");
  if (!phy_.can_transmit()) {
    // An arrival locked the radio at the completion instant, ahead of
    // the access timer (only a copy sent more than a DIFS before it
    // begins can): behave as if the medium were busy, with the backoff
    // spent.
    backoff_slots_ = 0;
    idle_since_ = sim::Time::max();
    rearm_access();
    return;
  }
  const bool is_retry = current_->attempts > 0;
  if (!is_retry) current_->seq = ++next_seq_;
  ++current_->attempts;
  monitor_.count_tx(is_retry);
  if (is_retry) ++counters_.retries;

  const std::uint32_t frame_bytes =
      current_->packet.size_bytes() + MacHeader::kWireSize;
  const bool use_rts =
      !current_->dst.is_broadcast() && frame_bytes > cfg_.rts_threshold_bytes;

  if (use_rts) {
    // Reserve the medium for the whole exchange:
    // SIFS + CTS + SIFS + DATA + SIFS + ACK after the RTS ends.
    const sim::Time reserve =
        cfg_.sifs * 3 + phy_.tx_duration(CtsHeader::kWireSize) +
        phy_.tx_duration(frame_bytes) + phy_.tx_duration(AckHeader::kWireSize);
    net::Packet rts = factory_.make(0, sim_.now());
    rts.push(RtsHeader{self_, current_->dst,
                       static_cast<std::uint32_t>(reserve.to_micros())});
    ++counters_.tx_rts;
    sending_rts_ = true;
    set_state(TxState::kSending);
    phy_.send(std::move(rts));
    return;
  }
  send_data_frame();
}

void DcfMac::send_data_frame() {
  const bool is_retry = current_->attempts > 1;
  net::Packet frame = current_->packet;  // headers shared, cheap
  frame.push(MacHeader{self_, current_->dst, FrameType::kData, current_->seq,
                       is_retry});
  if (current_->dst.is_broadcast()) {
    ++counters_.tx_data_broadcast;
  } else {
    ++counters_.tx_data_unicast;
  }
  set_state(TxState::kSending);
  phy_.send(std::move(frame));
}

void DcfMac::on_tx_end() {
  // A frame that was on the air when we crashed finishes into a dead MAC.
  if (down_) return;
  if (ack_in_flight_ || cts_in_flight_) {
    ack_in_flight_ = false;
    cts_in_flight_ = false;
    // Resume whatever access procedure the response interrupted.
    if (state_ == TxState::kAccess && current_) start_access(false);
    return;
  }
  if (state_ != TxState::kSending || !current_) return;

  if (sending_rts_) {
    sending_rts_ = false;
    set_state(TxState::kAwaitCts);
    const sim::Time cts_air = phy_.tx_duration(CtsHeader::kWireSize);
    cts_timer_ = sim_.schedule(cfg_.sifs + cts_air + cfg_.cts_timeout_slack,
                               [this] { on_cts_timeout(); });
    return;
  }

  if (current_->dst.is_broadcast()) {
    finish_current(true);
    return;
  }
  set_state(TxState::kAwaitAck);
  const sim::Time ack_air = phy_.tx_duration(AckHeader::kWireSize);
  ack_timer_ = sim_.schedule(cfg_.sifs + ack_air + cfg_.ack_timeout_slack,
                             [this] { on_ack_timeout(); });
}

void DcfMac::on_ack_timeout() {
  if (state_ != TxState::kAwaitAck || !current_) return;
  handle_no_response();
}

void DcfMac::on_cts_timeout() {
  if (state_ != TxState::kAwaitCts || !current_) return;
  ++counters_.cts_timeouts;
  handle_no_response();
}

void DcfMac::handle_no_response() {
  if (current_->attempts <= cfg_.retry_limit) {
    cw_ = std::min((cw_ + 1) * 2 - 1, cfg_.cw_max);
    start_access(/*new_backoff=*/true);
    return;
  }
  ++counters_.retry_drops;
  finish_current(false);
}

void DcfMac::transmit_data_after_cts() {
  if (state_ != TxState::kAwaitCts || !current_) return;
  if (!phy_.can_transmit()) {
    // CTS granted but the radio got locked meanwhile: retry the cycle.
    handle_no_response();
    return;
  }
  send_data_frame();
}

void DcfMac::finish_current(bool success) {
  WMN_CHECK(current_.has_value(), "finishing a frame that was never started");
  WMN_CHECK(state_ != TxState::kIdle,
            "finish_current from idle: double completion");
  sim_.cancel(ack_timer_);
  sim_.cancel(cts_timer_);
  sim_.cancel(data_after_cts_timer_);
  sending_rts_ = false;

  OutFrame done = std::move(*current_);
  current_.reset();
  set_state(TxState::kIdle);
  cw_ = cfg_.cw_min;

  if (success) {
    if (!done.dst.is_broadcast() && tx_ok_cb_) tx_ok_cb_(done.dst);
  } else if (tx_failed_cb_) {
    tx_failed_cb_(done.dst, std::move(done.packet));
  }

  if (!queue_.empty()) {
    current_ = std::move(queue_.front());
    queue_.pop_front();
    start_access(/*new_backoff=*/true);
  }
}

void DcfMac::on_rx_start() {
  // The lock keeps the medium busy until on_rx_end: a timer set for an
  // earlier idle edge goes.
  if (state_ == TxState::kAccess) rearm_access();
}

void DcfMac::on_rx_end(std::optional<net::Packet> packet, double) {
  if (down_) return;
  if (packet) handle_frame(std::move(*packet));  // else clobbered: energy only
  // The lock is over, so the medium may turn idle on the weak copies'
  // schedule, which no edge announces.
  if (state_ == TxState::kAccess) rearm_access();
}

void DcfMac::handle_frame(net::Packet packet) {
  if (packet.top_is<RtsHeader>()) {
    const RtsHeader rts = packet.pop<RtsHeader>();
    if (rts.dst == self_) {
      // Grant after SIFS if the radio is free then.
      const std::uint32_t remaining =
          rts.duration_us > static_cast<std::uint32_t>(
                                (cfg_.sifs + phy_.tx_duration(CtsHeader::kWireSize))
                                    .to_micros())
              ? rts.duration_us -
                    static_cast<std::uint32_t>(
                        (cfg_.sifs + phy_.tx_duration(CtsHeader::kWireSize))
                            .to_micros())
              : 0;
      cts_tx_timer_ = sim_.schedule(cfg_.sifs, [this, rts, remaining] {
        if (!phy_.can_transmit()) return;  // sender will retry
        net::Packet cts = factory_.make(0, sim_.now());
        cts.push(CtsHeader{self_, rts.src, remaining});
        ++counters_.tx_cts;
        cts_in_flight_ = true;
        phy_.send(std::move(cts));
      });
    } else {
      set_nav(sim_.now() + sim::Time::micros(static_cast<double>(rts.duration_us)));
    }
    return;
  }

  if (packet.top_is<CtsHeader>()) {
    const CtsHeader cts = packet.pop<CtsHeader>();
    if (cts.dst == self_ && state_ == TxState::kAwaitCts && current_) {
      sim_.cancel(cts_timer_);
      data_after_cts_timer_ =
          sim_.schedule(cfg_.sifs, [this] { transmit_data_after_cts(); });
    } else if (cts.dst != self_) {
      set_nav(sim_.now() + sim::Time::micros(static_cast<double>(cts.duration_us)));
    }
    return;
  }

  if (packet.top_is<AckHeader>()) {
    const AckHeader ack = packet.pop<AckHeader>();
    if (ack.dst == self_ && state_ == TxState::kAwaitAck && current_ &&
        ack.seq == current_->seq) {
      sim_.cancel(ack_timer_);
      finish_current(true);
    }
    return;
  }

  if (!packet.top_is<MacHeader>()) return;
  const MacHeader hdr = packet.pop<MacHeader>();
  if (hdr.dst != self_ && !hdr.dst.is_broadcast()) {
    ++counters_.rx_overheard;
    return;
  }
  handle_data(std::move(packet), hdr);
}

void DcfMac::handle_data(net::Packet packet, const MacHeader& hdr) {
  if (!hdr.dst.is_broadcast()) {
    // Always acknowledge — the sender's retransmission means our
    // previous ACK was lost.
    send_ack(hdr.src, hdr.seq);
    auto [last, first_frame] = last_rx_seq_.try_emplace(hdr.src, hdr.seq);
    if (!first_frame && last == hdr.seq && hdr.retry) {
      ++counters_.rx_duplicates;
      return;
    }
    last = hdr.seq;
  }
  ++counters_.rx_delivered;
  if (rx_cb_) rx_cb_(std::move(packet), hdr.src);
}

void DcfMac::send_ack(net::Address to, std::uint16_t seq) {
  // SIFS priority: fire before anyone's DIFS can elapse.
  ack_tx_timer_ = sim_.schedule(cfg_.sifs, [this, to, seq] {
    if (!phy_.can_transmit()) return;  // give up; sender will retry
    net::Packet ack = factory_.make(0, sim_.now());
    ack.push(AckHeader{self_, to, seq});
    ++counters_.tx_acks;
    ack_in_flight_ = true;
    phy_.send(std::move(ack));
  });
}

}  // namespace wmn::mac
