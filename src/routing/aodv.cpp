#include "routing/aodv.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/check.hpp"

namespace wmn::routing {

namespace {
constexpr std::uint64_t kAodvStreamSalt = 0xA0D0'0000'0000'0000ULL;

// Milliseconds clamp for the RREP lifetime field.
std::uint32_t to_lifetime_ms(sim::Time t) {
  const auto ms = t.ns() / 1'000'000;
  return ms < 0 ? 0u : static_cast<std::uint32_t>(ms);
}
}  // namespace

AodvAgent::AodvAgent(sim::Simulator& simulator, const AodvConfig& cfg,
                     net::Address self, mac::DcfMac& mac,
                     net::PacketFactory& factory,
                     std::unique_ptr<RebroadcastPolicy> rebroadcast,
                     std::unique_ptr<RouteSelectionPolicy> selection,
                     std::unique_ptr<LoadSource> load)
    : sim_(simulator),
      cfg_(cfg),
      self_(self),
      mac_(mac),
      factory_(factory),
      rebroadcast_(std::move(rebroadcast)),
      selection_(std::move(selection)),
      load_(std::move(load)),
      rng_(simulator.make_stream(kAodvStreamSalt ^ self.value())),
      neighbors_(simulator, cfg.hello_interval, cfg.allowed_hello_loss) {
  WMN_CHECK(rebroadcast_ && selection_ && load_,
            "agent needs rebroadcast, selection, and load policies");

  mac_.set_rx_callback(
      [this](net::Packet p, net::Address src) { on_mac_receive(std::move(p), src); });
  mac_.set_tx_failed_callback([this](net::Address dst, net::Packet p) {
    on_mac_tx_failed(dst, std::move(p));
  });
  neighbors_.set_loss_callback(
      [this](net::Address n) { on_neighbor_lost(n); });

  // Desynchronize periodic timers across nodes.
  hello_timer_ = sim_.schedule(
      cfg_.hello_interval.scaled(rng_.uniform01()), [this] { send_hello(); });
  housekeeping_timer_ =
      sim_.schedule(cfg_.housekeeping_interval.scaled(rng_.uniform01()),
                    [this] { housekeeping(); });
}

AodvAgent::~AodvAgent() { cancel_all_timers(); }

void AodvAgent::cancel_all_timers() {
  sim_.cancel(hello_timer_);
  sim_.cancel(housekeeping_timer_);
  for (const auto& [key, p] : rreq_pending_) sim_.cancel(p.timer);
  for (const auto& [dest, d] : discoveries_) sim_.cancel(d.timer);
}

void AodvAgent::pause() {
  if (paused_) return;
  paused_ = true;
  cancel_all_timers();
  for (const auto& [dest, q] : buffers_) {
    counters_.data_dropped_buffer += q.size();
  }
  buffers_.clear();
  rreq_seen_.clear();
  rreq_pending_.clear();
  discoveries_.clear();
  routes_.clear();
  neighbors_.pause();
  blacklist_.clear();
  broken_at_.clear();
}

void AodvAgent::resume() {
  if (!paused_) return;
  paused_ = false;
  neighbors_.resume();
  // Rejoin with fresh, desynchronized periodic timers. These draws only
  // happen when a fault plan actually crashes the node, so fault-free
  // runs consume the agent stream exactly as before.
  hello_timer_ = sim_.schedule(
      cfg_.hello_interval.scaled(rng_.uniform01()), [this] { send_hello(); });
  housekeeping_timer_ =
      sim_.schedule(cfg_.housekeeping_interval.scaled(rng_.uniform01()),
                    [this] { housekeeping(); });
}

double AodvAgent::neighbourhood_load() const {
  const double own = load_->load_index();
  if (neighbors_.count() == 0) return own;
  const double w = cfg_.nbhd_self_weight;
  return w * own + (1.0 - w) * neighbors_.mean_neighbor_load();
}

// --------------------------------------------------------------------------
// Application plane
// --------------------------------------------------------------------------

void AodvAgent::send(net::Packet packet, net::Address dest) {
  WMN_CHECK(dest.is_valid() && !dest.is_broadcast(),
            "application traffic needs a valid unicast destination");
  // Header-stack balance: the application hands over a bare payload;
  // a leftover header here means some layer forgot to pop its header
  // before re-submitting (e.g. on the salvage path).
  WMN_CHECK_EQ(packet.header_count(), std::size_t{0},
               "application packet entered the agent with headers attached");
  ++counters_.data_originated;
  if (paused_) {
    // The application keeps offering traffic while we are crashed; it
    // evaporates here (and counts against PDR, as it should).
    ++counters_.data_dropped_node_down;
    return;
  }
  if (dest == self_) {
    ++counters_.data_delivered;
    if (deliver_cb_) deliver_cb_(std::move(packet), self_);
    return;
  }

  const RouteEntry* r = routes_.lookup(dest, now());
  if (r != nullptr) {
    packet.push(DataHeader{self_, dest, cfg_.data_ttl});
    routes_.touch(dest, now() + cfg_.active_route_timeout);
    mac_.enqueue(std::move(packet), r->next_hop);
    return;
  }

  // No route: buffer and (if not already running) discover.
  park(dest, BufferedPacket{std::move(packet), now(), std::nullopt});
  if (!discoveries_.contains(dest)) start_discovery(dest);
}

void AodvAgent::park(net::Address dest, BufferedPacket bp) {
  auto& buf = buffers_[dest];
  if (buf.size() >= cfg_.buffer_capacity) {
    buf.pop_front();
    ++counters_.data_dropped_buffer;
  }
  buf.push_back(std::move(bp));
}

void AodvAgent::flush_buffer(net::Address dest) {
  std::deque<BufferedPacket>* q = buffers_.find(dest);
  if (q == nullptr) return;
  std::deque<BufferedPacket> pending = std::move(*q);
  buffers_.erase(dest);
  for (auto& bp : pending) {
    const RouteEntry* r = routes_.lookup(dest, now());
    if (r == nullptr) {
      ++counters_.data_dropped_no_route;
      continue;
    }
    if (bp.transit_hdr.has_value()) {
      // Transit packet parked during local repair: resume forwarding
      // under its original origin and remaining TTL.
      if (bp.transit_hdr->ttl <= 1) {
        ++counters_.data_dropped_ttl;
        continue;
      }
      DataHeader fwd = *bp.transit_hdr;
      --fwd.ttl;
      bp.packet.push(fwd);
      ++counters_.data_forwarded;
    } else {
      bp.packet.push(DataHeader{self_, dest, cfg_.data_ttl});
    }
    mac_.enqueue(std::move(bp.packet), r->next_hop);
  }
}

void AodvAgent::drop_buffer(net::Address dest, const char*) {
  const std::deque<BufferedPacket>* q = buffers_.find(dest);
  if (q == nullptr) return;
  counters_.data_dropped_no_route += q->size();
  buffers_.erase(dest);
}

// --------------------------------------------------------------------------
// Route discovery
// --------------------------------------------------------------------------

void AodvAgent::start_discovery(net::Address dest) {
  ++counters_.discovery_started;
  send_rreq(dest, discoveries_[dest] = Discovery{});
}

std::optional<std::uint8_t> AodvAgent::ttl_for_attempt(
    std::uint32_t attempt) const {
  std::uint32_t rings = 0;
  if (cfg_.expanding_ring) {
    for (std::uint32_t t = cfg_.ers_ttl_start; t <= cfg_.ers_ttl_threshold;
         t += cfg_.ers_ttl_increment) {
      if (attempt == rings) return static_cast<std::uint8_t>(t);
      ++rings;
    }
  }
  // Network-wide attempts: 1 + rreq_retries of them.
  if (attempt < rings + 1 + cfg_.rreq_retries) return cfg_.rreq_ttl;
  return std::nullopt;
}

void AodvAgent::send_rreq(net::Address dest, Discovery& d) {
  const std::uint32_t attempt = d.attempts;
  const bool repair = d.repair;
  std::uint8_t ttl_value;
  if (repair) {
    // Local repair is one hop-bounded attempt; no retry schedule.
    WMN_CHECK_EQ(attempt, 0u, "local repair retried its RREQ");
    ttl_value = d.repair_ttl;
  } else {
    const auto ttl = ttl_for_attempt(attempt);
    WMN_CHECK(ttl.has_value(), "RREQ attempt past the retry schedule");
    ttl_value = *ttl;
  }
  ++counters_.rreq_originated;
  ++seqno_;
  ++rreq_id_;

  RreqHeader hdr;
  hdr.rreq_id = rreq_id_;
  hdr.origin = self_;
  hdr.origin_seqno = seqno_;
  hdr.dest = dest;
  hdr.hop_count = 0;
  hdr.ttl = ttl_value;
  if (RouteEntry* e = routes_.find(dest); e != nullptr && e->valid_seqno) {
    hdr.dest_seqno = e->dest_seqno;
    hdr.unknown_dest_seqno = false;
  }

  net::Packet pkt = factory_.make(0, now());
  if (cfg_.use_load_metric) {
    // The origin contributes its own neighbourhood load so paths
    // leaving a congested source are penalized too.
    pkt.push(LoadTlv{neighbourhood_load()});
  }
  pkt.push(hdr);
  mac_.enqueue(std::move(pkt), net::Address::broadcast());

  d.attempts = attempt + 1;
  // RREP wait scales with the ring radius (ring traversal time) and
  // doubles per network-wide retry, randomized by up to +50%: two
  // nodes whose first RREQs collided must not re-collide on every
  // retry.
  sim::Time wait;
  if (repair) {
    const double frac = std::min(
        1.0, static_cast<double>(ttl_value + 2) / static_cast<double>(cfg_.rreq_ttl));
    wait = cfg_.net_traversal_time.scaled(frac);
  } else if (ttl_value < cfg_.rreq_ttl) {
    wait = cfg_.net_traversal_time.scaled(
        static_cast<double>(ttl_value + 2) / static_cast<double>(cfg_.rreq_ttl));
  } else {
    const std::uint32_t full_attempt =
        attempt - (cfg_.expanding_ring
                       ? (cfg_.ers_ttl_threshold - cfg_.ers_ttl_start) /
                                 cfg_.ers_ttl_increment +
                             1
                       : 0);
    wait = cfg_.net_traversal_time * (std::int64_t{1} << std::min(full_attempt, 4u));
  }
  wait = wait.scaled(rng_.uniform(1.0, 1.5));
  d.timer = sim_.schedule(wait, [this, dest] { on_discovery_timeout(dest); });
}

void AodvAgent::on_discovery_timeout(net::Address dest) {
  Discovery* d = discoveries_.find(dest);
  if (d == nullptr) return;
  const bool repair = d->repair;
  if (routes_.lookup(dest, now()) != nullptr) {
    // Route appeared without us noticing a RREP (e.g. learned from a
    // passing RREQ); treat as success.
    ++counters_.discovery_succeeded;
    if (repair) ++counters_.local_repair_succeeded;
    discoveries_.erase(dest);
    flush_buffer(dest);
    return;
  }
  if (!repair && ttl_for_attempt(d->attempts).has_value()) {
    send_rreq(dest, *d);
    return;
  }
  ++counters_.discovery_failed;
  discoveries_.erase(dest);
  if (repair) {
    // The repair failed: deliver the RERR we withheld when the link
    // broke, so upstream nodes stop sending through us.
    std::uint32_t s = 0;
    if (const RouteEntry* e = routes_.find(dest); e != nullptr) {
      s = e->dest_seqno;
    }
    std::vector<net::Address> prec;
    routes_.append_precursors(dest, prec);
    emit_rerr({dest}, {s}, std::move(prec));
  }
  drop_buffer(dest, "discovery failed");
}

void AodvAgent::handle_rreq(net::Packet packet, net::Address src) {
  RreqHeader hdr = packet.pop<RreqHeader>();
  const double path_load =
      cfg_.use_load_metric ? packet.pop<LoadTlv>().load : 0.0;

  if (hdr.origin == self_) return;  // echo of our own flood

  if (cfg_.graceful_degradation) {
    // Section 6.8: RREQs over a link we know to be unidirectional are
    // ignored entirely — answering them would just fail again.
    if (const sim::Time* until = blacklist_.find(src); until != nullptr) {
      if (*until > now()) {
        ++counters_.rreq_ignored_blacklist;
        return;
      }
      blacklist_.erase(src);
    }
  }

  neighbors_.refresh(src);
  upsert_neighbor_route(src);

  // Reverse route toward the origin (used to source the RREP back).
  const RouteCandidate rev{path_load,
                           static_cast<std::uint8_t>(hdr.hop_count + 1)};
  update_route(hdr.origin, src, hdr.origin_seqno, true, rev,
               cfg_.active_route_timeout);

  const RreqKey key = make_key(hdr.origin, hdr.rreq_id);
  if (!rreq_seen_.try_emplace(key, now()).second) {
    ++counters_.rreq_duplicates;
    // Copies count only while the first copy's event is pending, and a
    // destination still collecting copies considers this one too.
    PendingRreq* p = rreq_pending_.find(key);
    if (p == nullptr) return;
    ++p->copies;
    if (self_ == hdr.dest) {
      const RouteCandidate cand{path_load, hdr.hop_count};
      if (selection_->better(cand, p->best())) {
        p->hdr = hdr;
        p->path_load = path_load;
      }
    }
    return;
  }

  ++counters_.rreq_received;

  if (self_ == hdr.dest) {
    const sim::Time wait = selection_->reply_wait();
    if (wait.is_zero()) {
      send_rrep_as_destination(hdr, RouteCandidate{path_load, hdr.hop_count});
    } else {
      hold_rreq(key, hdr, path_load).timer =
          sim_.schedule(wait, [this, key] { destination_reply_due(key); });
    }
    return;
  }

  // Intermediate node with a fresh-enough cached route may answer.
  if (selection_->allow_intermediate_reply()) {
    const RouteEntry* r = routes_.lookup(hdr.dest, now());
    if (r != nullptr && r->valid_seqno &&
        (hdr.unknown_dest_seqno ||
         seqno_newer_or_equal(r->dest_seqno, hdr.dest_seqno))) {
      ++counters_.rrep_intermediate;
      send_rrep_from_cache(hdr, *r);
      return;
    }
  }

  if (hdr.ttl <= 1) return;

  RebroadcastContext ctx;
  ctx.hop_count = hdr.hop_count;
  ctx.neighbor_count = neighbors_.count();
  ctx.own_load = load_->load_index();
  ctx.neighbourhood_load = neighbourhood_load();
  ctx.duplicates_seen = 0;

  const RebroadcastDecision dec = rebroadcast_->decide(ctx, rng_);
  switch (dec.action) {
    case RebroadcastAction::kForward:
      hold_rreq(key, hdr, path_load).timer =
          sim_.schedule(dec.delay, [this, key] { rebroadcast_due(key); });
      break;
    case RebroadcastAction::kDrop:
      ++counters_.rreq_suppressed;
      break;
    case RebroadcastAction::kDefer:
      hold_rreq(key, hdr, path_load).timer =
          sim_.schedule(dec.delay, [this, key] { finish_defer(key); });
      break;
  }
}

AodvAgent::PendingRreq& AodvAgent::hold_rreq(RreqKey key, const RreqHeader& hdr,
                                             double path_load) {
  auto [p, inserted] = rreq_pending_.try_emplace(key);
  WMN_CHECK(inserted, "an RREQ holds at most one pending event");
  p.hdr = hdr;
  p.path_load = path_load;
  return p;
}

AodvAgent::PendingRreq AodvAgent::take_pending(RreqKey key) {
  const PendingRreq* found = rreq_pending_.find(key);
  // The record goes only with its event: here, or cancelled with it.
  if (found == nullptr) {
    WMN_UNREACHABLE("a pending RREQ event fired without its record");
  }
  const PendingRreq p = *found;
  rreq_pending_.erase(key);
  return p;
}

void AodvAgent::rebroadcast_due(RreqKey key) {
  const PendingRreq p = take_pending(key);
  forward_rreq(p.hdr, p.path_load);
}

void AodvAgent::finish_defer(RreqKey key) {
  const PendingRreq p = take_pending(key);

  RebroadcastContext ctx;
  ctx.hop_count = p.hdr.hop_count;
  ctx.neighbor_count = neighbors_.count();
  ctx.own_load = load_->load_index();
  ctx.neighbourhood_load = neighbourhood_load();
  ctx.duplicates_seen = p.copies - 1;

  if (rebroadcast_->assess(ctx, rng_)) {
    forward_rreq(p.hdr, p.path_load);
  } else {
    ++counters_.rreq_suppressed;
  }
}

void AodvAgent::forward_rreq(const RreqHeader& hdr, double path_load) {
  ++counters_.rreq_forwarded;
  RreqHeader fwd = hdr;
  ++fwd.hop_count;
  --fwd.ttl;

  net::Packet pkt = factory_.make(0, now());
  if (cfg_.use_load_metric) {
    pkt.push(LoadTlv{path_load + neighbourhood_load()});
  }
  pkt.push(fwd);
  mac_.enqueue(std::move(pkt), net::Address::broadcast());
}

void AodvAgent::destination_reply_due(RreqKey key) {
  const PendingRreq p = take_pending(key);
  send_rrep_as_destination(p.hdr, p.best());
}

void AodvAgent::send_rrep_as_destination(const RreqHeader& hdr,
                                         const RouteCandidate& cand) {
  // Destination sequence-number maintenance (RFC 3561 section 6.6.1,
  // simplified: never answer with a seqno circularly older than the
  // request's).
  ++seqno_;
  if (!hdr.unknown_dest_seqno && seqno_newer(hdr.dest_seqno, seqno_)) {
    seqno_ = hdr.dest_seqno;
  }

  RrepHeader rep;
  rep.dest = self_;
  rep.dest_seqno = seqno_;
  rep.origin = hdr.origin;
  rep.hop_count = 0;
  rep.metric = cand.metric;
  rep.lifetime_ms = to_lifetime_ms(cfg_.active_route_timeout);

  const RouteEntry* rev = routes_.lookup(hdr.origin, now());
  if (rev == nullptr) {
    ++counters_.rrep_dropped;
    return;
  }
  ++counters_.rrep_originated;
  net::Packet pkt = factory_.make(0, now());
  pkt.push(rep);
  mac_.enqueue(std::move(pkt), rev->next_hop);
}

void AodvAgent::send_rrep_from_cache(const RreqHeader& hdr,
                                     const RouteEntry& route) {
  RrepHeader rep;
  rep.dest = hdr.dest;
  rep.dest_seqno = route.dest_seqno;
  rep.origin = hdr.origin;
  rep.hop_count = route.hop_count;
  rep.metric = route.metric;
  rep.lifetime_ms = to_lifetime_ms(route.expires - now());

  const RouteEntry* rev = routes_.lookup(hdr.origin, now());
  if (rev == nullptr) {
    ++counters_.rrep_dropped;
    return;
  }
  net::Packet pkt = factory_.make(0, now());
  pkt.push(rep);
  mac_.enqueue(std::move(pkt), rev->next_hop);
}

void AodvAgent::handle_rrep(net::Packet packet, net::Address src) {
  RrepHeader hdr = packet.pop<RrepHeader>();
  neighbors_.refresh(src);
  upsert_neighbor_route(src);

  // RREPs carry no TTL; transient reverse-route loops (reverse routes
  // can be replaced while an RREP is in flight) would otherwise
  // circulate one forever and wrap hop_count to 0 at 255.
  if (hdr.hop_count == std::numeric_limits<std::uint8_t>::max()) {
    ++counters_.rrep_dropped;
    return;
  }
  const auto my_hops = static_cast<std::uint8_t>(hdr.hop_count + 1);
  const RouteCandidate cand{hdr.metric, my_hops};
  const sim::Time lifetime = sim::Time::millis(
      static_cast<double>(std::max<std::uint32_t>(hdr.lifetime_ms, 1000)));
  update_route(hdr.dest, src, hdr.dest_seqno, true, cand, lifetime);

  if (hdr.origin == self_) {
    if (const Discovery* d = discoveries_.find(hdr.dest); d != nullptr) {
      sim_.cancel(d->timer);
      ++counters_.discovery_succeeded;
      if (d->repair) ++counters_.local_repair_succeeded;
      discoveries_.erase(hdr.dest);
    }
    flush_buffer(hdr.dest);
    return;
  }

  // Forward toward the origin along the reverse route.
  const RouteEntry* rev = routes_.lookup(hdr.origin, now());
  if (rev == nullptr) {
    ++counters_.rrep_dropped;
    return;
  }
  RrepHeader fwd = hdr;
  fwd.hop_count = my_hops;
  // Precursor bookkeeping: the reverse next hop routes through us to
  // `dest`; the RREP sender routes through us to `origin`.
  routes_.add_precursor(hdr.dest, rev->next_hop);
  routes_.add_precursor(hdr.origin, src);

  ++counters_.rrep_forwarded;
  net::Packet pkt = factory_.make(0, now());
  pkt.push(fwd);
  mac_.enqueue(std::move(pkt), rev->next_hop);
}

// --------------------------------------------------------------------------
// Route maintenance
// --------------------------------------------------------------------------

bool AodvAgent::update_route(net::Address dest, net::Address via,
                             std::uint32_t seqno, bool seqno_valid,
                             const RouteCandidate& cand, sim::Time lifetime) {
  if (dest == self_) return false;
  RouteEntry* e = routes_.find(dest);

  bool accept;
  if (e == nullptr) {
    accept = true;
  } else if (e->valid_seqno && seqno_valid &&
             seqno_newer(e->dest_seqno, seqno)) {
    accept = false;  // stale information never overrides fresher state
  } else if (e->state == RouteState::kInvalid) {
    accept = true;
  } else if (!e->valid_seqno) {
    accept = true;
  } else if (seqno_valid && seqno_newer(seqno, e->dest_seqno)) {
    accept = true;
  } else {
    accept = selection_->should_replace(RouteCandidate{e->metric, e->hop_count},
                                        cand);
  }
  if (!accept) {
    // Same-next-hop updates still refresh the lifetime.
    if (e != nullptr && e->state == RouteState::kValid && e->next_hop == via) {
      routes_.touch(dest, now() + lifetime);
    }
    return false;
  }

  RouteEntry entry;
  entry.dest = dest;
  entry.next_hop = via;
  entry.hop_count = cand.hop_count;
  entry.dest_seqno = seqno;
  entry.valid_seqno = seqno_valid;
  entry.metric = cand.metric;
  entry.state = RouteState::kValid;
  entry.expires = now() + lifetime;
  routes_.upsert(std::move(entry));
  note_route_restored(dest);
  return true;
}

void AodvAgent::note_route_broken(net::Address dest) {
  // First break wins: a route that breaks again mid-recovery is still
  // one outage from the traffic's point of view.
  broken_at_.try_emplace(dest, now());
}

void AodvAgent::note_route_restored(net::Address dest) {
  const sim::Time* broken = broken_at_.find(dest);
  if (broken == nullptr) return;
  counters_.route_recovery_ns_total +=
      static_cast<std::uint64_t>((now() - *broken).ns());
  ++counters_.route_recoveries;
  broken_at_.erase(dest);
}

void AodvAgent::upsert_neighbor_route(net::Address neighbor) {
  RouteEntry* e = routes_.find(neighbor);
  if (e != nullptr && e->state == RouteState::kValid) {
    // touch(), without a second lookup.
    e->expires = std::max(e->expires, now() + cfg_.active_route_timeout);
    return;
  }
  RouteEntry entry;
  entry.dest = neighbor;
  entry.next_hop = neighbor;
  entry.hop_count = 1;
  entry.valid_seqno = false;
  entry.metric = 0.0;
  entry.state = RouteState::kValid;
  entry.expires = now() + cfg_.active_route_timeout;
  if (e != nullptr) {
    entry.dest_seqno = e->dest_seqno;
    entry.valid_seqno = e->valid_seqno;
  }
  routes_.upsert(std::move(entry));
  note_route_restored(neighbor);
}

// --------------------------------------------------------------------------
// Data plane
// --------------------------------------------------------------------------

void AodvAgent::handle_data(net::Packet packet, net::Address src) {
  DataHeader hdr = packet.pop<DataHeader>();
  neighbors_.refresh(src);

  if (hdr.dest == self_) {
    ++counters_.data_delivered;
    // Header-stack balance at node egress: every header pushed along
    // the path must have been popped by its owning layer by now.
    WMN_CHECK_EQ(packet.header_count(), std::size_t{0},
                 "packet delivered to the application with headers left");
    // Active routes are refreshed by the traffic they carry.
    routes_.touch(hdr.origin, now() + cfg_.active_route_timeout);
    routes_.touch(src, now() + cfg_.active_route_timeout);
    if (deliver_cb_) deliver_cb_(std::move(packet), hdr.origin);
    return;
  }

  if (hdr.ttl <= 1) {
    ++counters_.data_dropped_ttl;
    return;
  }

  const RouteEntry* r = routes_.lookup(hdr.dest, now());
  if (r == nullptr) {
    if (const Discovery* d = discoveries_.find(hdr.dest);
        d != nullptr && d->repair) {
      // We are mid-local-repair for this destination (section 6.12):
      // park the packet with the repair's adoptees instead of bouncing
      // a RERR upstream for a break we expect to heal.
      park(hdr.dest, BufferedPacket{std::move(packet), now(), hdr});
      return;
    }
    ++counters_.data_dropped_no_route;
    // Tell upstream nodes the route through us is dead. The upstream
    // sender is a precursor by construction — it just routed data
    // through us — so it is always among the candidate recipients.
    std::uint32_t s = 0;
    if (const RouteEntry* e = routes_.find(hdr.dest); e != nullptr) {
      s = e->dest_seqno;
    }
    std::vector<net::Address> prec;
    routes_.append_precursors(hdr.dest, prec);
    prec.push_back(src);
    emit_rerr({hdr.dest}, {s}, std::move(prec));
    return;
  }

  DataHeader fwd = hdr;
  --fwd.ttl;
  packet.push(fwd);
  routes_.touch(hdr.dest, now() + cfg_.active_route_timeout);
  routes_.touch(hdr.origin, now() + cfg_.active_route_timeout);
  routes_.touch(src, now() + cfg_.active_route_timeout);
  routes_.touch(r->next_hop, now() + cfg_.active_route_timeout);
  ++counters_.data_forwarded;
  mac_.enqueue(std::move(packet), r->next_hop);
}

// --------------------------------------------------------------------------
// Failure handling
// --------------------------------------------------------------------------

void AodvAgent::on_mac_tx_failed(net::Address next_hop, net::Packet packet) {
  if (paused_) return;  // crashed between MAC failure and callback
  ++counters_.link_breaks;

  if (cfg_.graceful_degradation && packet.top_is<RrepHeader>()) {
    // A failed RREP unicast is the section 6.8 unidirectionality
    // signal: the RREQ reached us over this link, our reply cannot get
    // back. Ignore the neighbour's RREQs for blacklist_timeout.
    WMN_CHECK(next_hop.is_valid() && !next_hop.is_broadcast(),
              "RREP tx-failure against a non-unicast next hop");
    blacklist_[next_hop] = now() + cfg_.blacklist_timeout;
    ++counters_.blacklist_adds;
  }

  // Local-repair eligibility must be judged before invalidation wipes
  // the broken route: transit data, destination close by, and no
  // discovery for it already running.
  net::Address repair_dest;  // default-invalid: no repair
  std::uint8_t repair_hops = 0;
  if (cfg_.graceful_degradation && packet.top_is<DataHeader>()) {
    const auto& hdr = packet.peek<DataHeader>();
    if (hdr.origin != self_ && !discoveries_.contains(hdr.dest)) {
      if (const RouteEntry* e = routes_.lookup(hdr.dest, now());
          e != nullptr && e->next_hop == next_hop &&
          e->hop_count <= cfg_.local_repair_max_dest_hops) {
        repair_dest = hdr.dest;
        repair_hops = e->hop_count;
      }
    }
  }

  handle_link_break(next_hop, repair_dest);

  // Salvage: packets we originated can re-enter the send path (which
  // re-discovers); transit packets are lost here — unless a local
  // repair is adopting them.
  if (packet.top_is<DataHeader>()) {
    DataHeader hdr = packet.pop<DataHeader>();
    const Discovery* open = discoveries_.find(hdr.dest);
    const bool repair_running = open != nullptr && open->repair;
    if (hdr.origin == self_) {
      --counters_.data_originated;  // send() will count it again
      send(std::move(packet), hdr.dest);
    } else if (repair_dest == hdr.dest || repair_running) {
      // Either this failure triggers a repair, or one is already in
      // flight for the destination: the repair adopts the packet.
      park(hdr.dest, BufferedPacket{std::move(packet), now(), hdr});
      if (repair_dest == hdr.dest) start_local_repair(hdr.dest, repair_hops);
    } else {
      ++counters_.data_dropped_link_break;
    }
  } else if (packet.top_is<RrepHeader>()) {
    ++counters_.rrep_dropped;
  }
}

void AodvAgent::start_local_repair(net::Address dest, std::uint8_t last_hops) {
  WMN_CHECK(cfg_.graceful_degradation,
            "local repair started while disabled");
  WMN_CHECK(!discoveries_.contains(dest),
            "local repair over an already-open discovery");
  ++counters_.local_repair_attempted;
  ++counters_.discovery_started;
  Discovery& d = discoveries_[dest] = Discovery{};
  d.repair = true;
  const std::uint32_t ttl =
      static_cast<std::uint32_t>(last_hops) + cfg_.local_repair_ttl_slack;
  d.repair_ttl = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(std::max<std::uint32_t>(ttl, 1), cfg_.rreq_ttl));
  send_rreq(dest, d);
}

void AodvAgent::on_neighbor_lost(net::Address neighbor) {
  // The neighbour is gone; it can no longer be a useful RERR recipient.
  routes_.remove_precursor(neighbor);
  handle_link_break(neighbor);
}

void AodvAgent::handle_link_break(net::Address next_hop,
                                  net::Address repair_dest) {
  // dests_via covers the route to next_hop itself when it goes over
  // the broken link; a route to next_hop through some *other* neighbour
  // (e.g. installed by a local repair) is unaffected by this break.
  const std::vector<net::Address> affected = routes_.dests_via(next_hop, now());

  std::vector<net::Address> dests;
  std::vector<std::uint32_t> seqnos;
  std::vector<net::Address> precursors;
  for (net::Address d : affected) {
    if (auto inv = routes_.invalidate(d, now()); inv.has_value()) {
      note_route_broken(d);
      if (d == repair_dest) continue;  // repaired locally, no RERR yet
      dests.push_back(d);
      seqnos.push_back(inv->dest_seqno);
      routes_.append_precursors(d, precursors);
    }
  }
  if (!dests.empty()) emit_rerr(dests, seqnos, std::move(precursors));
}

void AodvAgent::emit_rerr(const std::vector<net::Address>& dests,
                          const std::vector<std::uint32_t>& seqnos,
                          std::vector<net::Address> precursor_list) {
  if (!cfg_.graceful_degradation) {
    send_rerr(dests, seqnos, net::Address::broadcast());
    return;
  }
  // Several routes' lists were concatenated; normalise to a sorted
  // unique list.
  std::sort(precursor_list.begin(), precursor_list.end());
  precursor_list.erase(
      std::unique(precursor_list.begin(), precursor_list.end()),
      precursor_list.end());
  // Section 6.11 delivery discipline: nobody routes through us ->
  // nothing to say; exactly one live precursor -> unicast (gets MAC
  // ACK/retries); otherwise broadcast.
  net::Address sole;
  std::size_t live = 0;
  for (net::Address p : precursor_list) {
    if (!neighbors_.contains(p)) continue;
    ++live;
    sole = p;
    if (live > 1) break;
  }
  if (live == 0) {
    ++counters_.rerr_suppressed_no_precursor;
    return;
  }
  send_rerr(dests, seqnos, live == 1 ? sole : net::Address::broadcast());
}

void AodvAgent::send_rerr(const std::vector<net::Address>& dests,
                          const std::vector<std::uint32_t>& seqnos,
                          net::Address target) {
  WMN_CHECK_EQ(dests.size(), seqnos.size(),
               "RERR destination and seqno lists must pair up");
  std::size_t i = 0;
  while (i < dests.size()) {
    RerrHeader hdr;
    hdr.count = 0;
    while (i < dests.size() && hdr.count < RerrHeader::kMaxUnreachable) {
      hdr.unreachable[hdr.count] = dests[i];
      hdr.seqno[hdr.count] = seqnos[i];
      ++hdr.count;
      ++i;
    }
    ++counters_.rerr_sent;
    net::Packet pkt = factory_.make(0, now());
    pkt.push(hdr);
    mac_.enqueue(std::move(pkt), target);
  }
}

void AodvAgent::handle_rerr(net::Packet packet, net::Address src) {
  RerrHeader hdr = packet.pop<RerrHeader>();
  ++counters_.rerr_received;
  neighbors_.refresh(src);

  std::vector<net::Address> propagate;
  std::vector<std::uint32_t> seqnos;
  std::vector<net::Address> precursors;
  for (std::uint8_t i = 0; i < hdr.count; ++i) {
    const net::Address d = hdr.unreachable[i];
    RouteEntry* e = routes_.find(d);
    if (e == nullptr || e->state != RouteState::kValid || e->next_hop != src) {
      continue;
    }
    auto inv = routes_.invalidate(d, now());
    if (!inv.has_value()) continue;
    note_route_broken(d);
    // Adopt the (possibly circularly newer) unreachable seqno.
    if (RouteEntry* dead = routes_.find(d);
        dead != nullptr && seqno_newer(hdr.seqno[i], dead->dest_seqno)) {
      dead->dest_seqno = hdr.seqno[i];
      dead->valid_seqno = true;
    }
    propagate.push_back(d);
    seqnos.push_back(seqno_max(inv->dest_seqno, hdr.seqno[i]));
    routes_.append_precursors(d, precursors);
  }
  if (!propagate.empty()) emit_rerr(propagate, seqnos, std::move(precursors));
}

// --------------------------------------------------------------------------
// Periodic machinery
// --------------------------------------------------------------------------

void AodvAgent::send_hello() {
  ++counters_.hello_sent;
  HelloHeader hdr;
  hdr.origin = self_;
  hdr.seqno = ++hello_seqno_;
  hdr.degree = static_cast<std::uint16_t>(
      std::min<std::size_t>(neighbors_.count(), 0xFFFF));

  net::Packet pkt = factory_.make(0, now());
  if (cfg_.hello_carries_load) pkt.push(LoadTlv{load_->load_index()});
  pkt.push(hdr);
  mac_.enqueue(std::move(pkt), net::Address::broadcast());

  // +-25% jitter keeps the mesh from beaconing in lockstep.
  hello_timer_ = sim_.schedule(
      cfg_.hello_interval.scaled(rng_.uniform(0.75, 1.25)),
      [this] { send_hello(); });
}

void AodvAgent::handle_hello(net::Packet packet, net::Address src) {
  HelloHeader hdr = packet.pop<HelloHeader>();
  double load = 0.0;
  if (cfg_.hello_carries_load) load = packet.pop<LoadTlv>().load;
  neighbors_.heard(hdr.origin, hdr.seqno, load, hdr.degree);
  upsert_neighbor_route(src);
}

void AodvAgent::housekeeping() {
  routes_.purge(now(), cfg_.dead_route_retention);

  // Expired RREQs, unless an event of theirs is still pending.
  rreq_seen_.erase_if([&](RreqKey key, sim::Time first_seen) {
    return first_seen + cfg_.rreq_cache_timeout <= now() &&
           !rreq_pending_.contains(key);
  });

  // Expired blacklist entries.
  blacklist_.erase_if([&](net::Address, sim::Time until) { return until <= now(); });

  // Breaks whose route never came back: stop waiting after the same
  // horizon that reclaims dead route entries.
  broken_at_.erase_if([&](net::Address, sim::Time broken) {
    if (broken + cfg_.dead_route_retention > now()) return false;
    ++counters_.route_recovery_abandoned;
    return true;
  });

  // Stale buffered packets.
  buffers_.erase_if([&](net::Address, std::deque<BufferedPacket>& q) {
    while (!q.empty() && q.front().enqueued + cfg_.buffer_timeout <= now()) {
      q.pop_front();
      ++counters_.data_dropped_buffer;
    }
    return q.empty();
  });

  housekeeping_timer_ =
      sim_.schedule(cfg_.housekeeping_interval, [this] { housekeeping(); });
}

// --------------------------------------------------------------------------
// Dispatch
// --------------------------------------------------------------------------

void AodvAgent::on_mac_receive(net::Packet packet, net::Address src) {
  // Belt: the MAC is powered down with us, so nothing should arrive
  // while crashed; drop it if it somehow does.
  if (paused_) return;
  if (packet.top_is<RreqHeader>()) {
    handle_rreq(std::move(packet), src);
  } else if (packet.top_is<RrepHeader>()) {
    handle_rrep(std::move(packet), src);
  } else if (packet.top_is<RerrHeader>()) {
    handle_rerr(std::move(packet), src);
  } else if (packet.top_is<HelloHeader>()) {
    handle_hello(std::move(packet), src);
  } else if (packet.top_is<DataHeader>()) {
    handle_data(std::move(packet), src);
  }
  // Unknown top header: silently ignored (future protocol versions).
}

std::size_t AodvAgent::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += routes_.memory_bytes() - sizeof(RouteTable);
  bytes += neighbors_.memory_bytes() - sizeof(NeighborTable);
  bytes += rreq_seen_.memory_bytes() + rreq_pending_.memory_bytes() +
           discoveries_.memory_bytes() + buffers_.memory_bytes() +
           blacklist_.memory_bytes() + broken_at_.memory_bytes();
  for (const auto& [dest, q] : buffers_) {
    bytes += q.size() * sizeof(BufferedPacket);
  }
  return bytes;
}

}  // namespace wmn::routing
