#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/check.hpp"
#include "phy/units.hpp"

namespace wmn::phy {

WirelessChannel::WirelessChannel(sim::Simulator& simulator,
                                 std::unique_ptr<PropagationModel> propagation)
    : sim_(simulator), propagation_(std::move(propagation)) {
  WMN_CHECK_NOTNULL(propagation_, "channel needs a propagation model");
}

void WirelessChannel::attach(WifiPhy* phy) {
  WMN_CHECK_NOTNULL(phy, "attach(nullptr)");
  phy->set_channel_index(static_cast<std::uint32_t>(radios_.size()));
  radios_.push_back(phy);
  phy->attach(this);
  neighbor_caches_.emplace_back();
  // A new radio can lower the shared detection floor and is a new
  // candidate for every existing source: recompute ranges and let the
  // version mismatch invalidate all cached neighbour lists.
  ranges_valid_ = false;
  if (index_ != nullptr) index_->add_node(phy->mobility());
}

void WirelessChannel::enable_spatial_index(double area_width_m,
                                           double area_height_m) {
  WMN_CHECK(area_width_m > 0.0 && area_height_m > 0.0,
            "spatial index needs a positive deployment area");
  WMN_CHECK(index_ == nullptr, "spatial index already built");
  index_enabled_ = true;
  area_width_m_ = area_width_m;
  area_height_m_ = area_height_m;
}

std::uint32_t WirelessChannel::open_stream(net::Packet packet,
                                           sim::Time duration) {
  std::uint32_t id = free_head_;
  if (id != kNilStream) {
    free_head_ = streams_[id].next_free;
    streams_[id].next_free = kNilStream;
  } else {
    id = static_cast<std::uint32_t>(streams_.size());
    streams_.emplace_back();
  }
  Stream& s = streams_[id];
  s.packet.emplace(std::move(packet));
  s.duration = duration;
  return id;
}

void WirelessChannel::release_stream(std::uint32_t id) {
  Stream& s = streams_[id];
  s.packet.reset();
  s.copies.clear();
  s.next_begin = 0;
  s.next_end = 0;
  s.ends_pending = 0;
  s.next_free = free_head_;
  free_head_ = id;
}

namespace {

// A begin key packs (propagation delay, index) into one integer that
// orders like the pair, so sorts compare plain words. The index is a
// rank or a candidate position; either way seqs grow with it.
constexpr unsigned kIndexBits = 24;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

std::uint64_t pack_begin_key(sim::Time delay, std::size_t index) {
  const std::int64_t d = delay.ns();
  WMN_CHECK(d >= 0 && d < (std::int64_t{1} << (64 - kIndexBits)),
            "propagation delay out of packed-key range");
  WMN_CHECK_LE(index, kIndexMask, "too many receivers for a packed begin key");
  return (static_cast<std::uint64_t>(d) << kIndexBits) | index;
}

// Sort keys that are close to sorted already. Insertion sort costs
// O(n + shifts); once the shifts pass a budget linear in n, std::sort
// finishes the job, so a scrambled input still costs O(n log n).
void sort_nearly_sorted(std::vector<std::uint64_t>& keys) {
  std::size_t budget = 4 * keys.size();
  for (std::size_t k = 1; k < keys.size(); ++k) {
    const std::uint64_t key = keys[k];
    std::size_t j = k;
    while (j > 0 && keys[j - 1] > key) {
      keys[j] = keys[j - 1];
      --j;
    }
    keys[j] = key;
    if (k - j >= budget) {
      std::sort(keys.begin(), keys.end());
      return;
    }
    budget -= k - j;
  }
}

// A memoised link's propagation delay, as its 32-bit record stores it.
std::uint32_t link_delay_ns(double distance_m) {
  const std::int64_t ns = sim::Time::seconds(distance_m / kSpeedOfLight).ns();
  WMN_CHECK(ns >= 0 && ns <= std::int64_t{0xFFFFFFFF},
            "propagation delay does not fit a 32-bit link record");
  return static_cast<std::uint32_t>(ns);
}

template <typename Item>
bool key_before(const Item& a, const Item& b) {
  return a.at < b.at || (a.at == b.at && a.seq < b.seq);
}

// Spatial index cell size: half the largest finite detection range
// (<= 0 for "no finite range"), kept between "one cell" and "256 per
// axis" so neither a huge range nor a huge area degenerates the grid.
double index_cell_size(double max_finite_range_m, double area_width_m,
                       double area_height_m) {
  const double area_max = std::max(area_width_m, area_height_m);
  double cell = max_finite_range_m > 0.0 ? max_finite_range_m / 2.0 : area_max;
  cell = std::clamp(cell, area_max / 256.0, area_max);
  return std::max(cell, 1.0);
}

}  // namespace

void WirelessChannel::add_copy(WifiPhy* rx, double p_dbm, double p_mw,
                               sim::Time delay) {
  ++counters_.copies_delivered;
  pending_.push_back(Pending{rx, p_dbm, p_mw, delay});
}

void WirelessChannel::add_weak(WifiPhy* rx, double p_mw, sim::Time at,
                               sim::Time duration) {
  ++counters_.copies_delivered;
  rx->add_weak_copy(at, at + duration, p_mw);
}

bool WirelessChannel::add_copy_or_weak(WifiPhy* rx, double p_dbm, double p_mw,
                                       sim::Time delay, sim::Time now,
                                       sim::Time duration) {
  if (rx->is_weak(p_dbm)) {
    add_weak(rx, p_mw, now + delay, duration);
    return false;
  }
  add_copy(rx, p_dbm, p_mw, delay);
  return true;
}

bool WirelessChannel::fault_drop_weak_copy() {
  if (fault_ == nullptr) return false;
  --counters_.copies_delivered;
  ++counters_.copies_dropped_fault;
  return true;
}

void WirelessChannel::push_copy(std::uint32_t id, sim::Time now,
                                std::uint64_t seq, std::uint32_t rank) {
  const Pending& p = pending_[rank];
  streams_[id].copies.push_back(
      Copy{now + p.delay, seq, p.power_dbm, p.power_mw, 0, p.rx});
}

void WirelessChannel::launch_pending(std::uint32_t id, sim::Time now) {
  const std::size_t m = pending_.size();
  begin_keys_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    begin_keys_[k] = pack_begin_key(pending_[k].delay, k);
  }
  std::sort(begin_keys_.begin(), begin_keys_.end());
  const std::uint64_t first_seq = sim_.reserve_seq(m);
  for (std::size_t k = 0; k < m; ++k) {
    push_copy(id, now, first_seq + k,
              static_cast<std::uint32_t>(begin_keys_[k] & kIndexMask));
  }
  pending_.clear();
  launch_stream(id);
}

void WirelessChannel::launch_reordered(std::uint32_t id, sim::Time now,
                                       NeighborCache& nc) {
  // Keys in the previous transmission's order: (delay, position), and
  // positions grow with rank, so sorting them gives the begin order.
  const std::size_t n = nc.order.size();
  begin_keys_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t i = nc.order[k];
    begin_keys_[k] = pack_begin_key(slots_[i].delay, i);
  }
  sort_nearly_sorted(begin_keys_);
  std::uint64_t seq = sim_.reserve_seq(pending_.size());
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::uint32_t>(begin_keys_[k] & kIndexMask);
    nc.order[k] = i;
    if (slots_[i].rank != kNoRank) push_copy(id, now, seq++, slots_[i].rank);
  }
  pending_.clear();
  launch_stream(id);
}

void WirelessChannel::launch_stream(std::uint32_t id) {
  Stream& s = streams_[id];
  if (s.copies.empty()) {
    release_stream(id);
    return;
  }
  in_flight_ += s.copies.size();
  key_stream(id, s.copies.front());
}

void WirelessChannel::key_stream(std::uint32_t id, const Copy& next) {
  // The calendar entry stands for the next item; the rest are held.
  sim_.add_held_events(static_cast<std::int64_t>(streams_[id].items_pending()) - 1);
  sim_.schedule_keyed(next.at, next.seq, [this, id] { run_stream(id); });
}

void WirelessChannel::run_stream(std::uint32_t id) {
  sim_.add_held_events(1 - static_cast<std::int64_t>(streams_[id].items_pending()));
  // The first item is the one the calendar entry was keyed by; each
  // later one runs inline only where the run loop would have popped it
  // next anyway.
  bool first = true;
  for (;;) {
    // Next item: the earlier, by key, of the first pending end (copies
    // dropped at their begin have none) and the next begin.
    Stream& s = streams_[id];
    while (s.next_end < s.next_begin && s.copies[s.next_end].key == 0) {
      ++s.next_end;
    }
    const bool has_end = s.next_end < s.next_begin;
    const bool has_begin = s.next_begin < s.copies.size();
    if (!has_end && !has_begin) {
      release_stream(id);
      return;
    }
    const bool is_end =
        has_end && (!has_begin || key_before(s.copies[s.next_end],
                                             s.copies[s.next_begin]));
    const std::size_t i = is_end ? s.next_end : s.next_begin;
    const Copy c = s.copies[i];
    if (!first && !sim_.advance_inline(c.at, c.seq)) {
      key_stream(id, c);
      return;
    }
    first = false;

    if (is_end) {
      ++s.next_end;
      --s.ends_pending;
      c.rx->end_arrival(c.key);
      continue;
    }
    ++s.next_begin;
    --in_flight_;
    // The receiver may have crashed during the propagation delay: the
    // copy never lands, so it moves from delivered to fault-dropped.
    if (fault_ != nullptr && !fault_->node_up(c.rx->node_id())) {
      --counters_.copies_delivered;
      ++counters_.copies_dropped_fault;
      continue;
    }
    const WifiPhy::ArrivalEnd end =
        c.rx->begin_arrival(*s.packet, c.power_dbm, c.power_mw);
    if (end.key == 0) continue;  // radio down: no end
    // begin_arrival's callbacks may have grown the pool: index afresh.
    Stream& t = streams_[id];
    Copy& e = t.copies[i];
    e.at = c.at + t.duration;
    e.seq = end.seq;
    e.key = end.key;
    ++t.ends_pending;
  }
}

void WirelessChannel::refresh_ranges() {
  min_detection_floor_dbm_ = std::numeric_limits<double>::infinity();
  for (const WifiPhy* rx : radios_) {
    min_detection_floor_dbm_ =
        std::min(min_detection_floor_dbm_, rx->config().detection_floor_dbm);
  }
  radio_range_m_.resize(radios_.size());
  for (std::size_t i = 0; i < radios_.size(); ++i) {
    radio_range_m_[i] = propagation_->max_range_m(
        radios_[i]->config().tx_power_dbm, min_detection_floor_dbm_);
  }
  // Ranges feed the cached candidate lists: force rebuilds.
  for (NeighborCache& nc : neighbor_caches_) {
    nc.built_version = ~std::uint64_t{0};
  }
  ranges_valid_ = true;
}

void WirelessChannel::build_spatial_index() {
  // Cell size derives from the largest finite detection range; with
  // only unbounded models (max_range_m == inf) the grid degenerates to
  // coarse cells and every query returns everyone — correct, just not
  // culled — while the link-budget cache still pays off.
  double max_range = 0.0;
  for (const double r : radio_range_m_) {
    if (std::isfinite(r)) max_range = std::max(max_range, r);
  }
  const double cell = index_cell_size(max_range, area_width_m_, area_height_m_);
  index_ = std::make_unique<SpatialIndex>(area_width_m_, area_height_m_, cell);
  for (const WifiPhy* phy : radios_) index_->add_node(phy->mobility());
}

void WirelessChannel::rebuild_neighbor_cache(std::uint32_t src_index) {
  NeighborCache& nc = neighbor_caches_[src_index];
  nc.lockable.clear();
  nc.weak.clear();
  nc.rx_index.clear();
  nc.order.clear();
  index_->gather(src_index, radio_range_m_[src_index], gather_scratch_);
  nc.culled = radios_.size() - 1 - gather_scratch_.size();
  // Every endpoint holding still for this index version means the
  // whole list can be memoised; one moving endpoint makes it live.
  nc.memoised = index_->pinned(src_index) &&
                std::all_of(gather_scratch_.begin(), gather_scratch_.end(),
                            [this](std::uint32_t i) { return index_->pinned(i); });
  if (nc.memoised) {
    rebuild_static(nc, *radios_[src_index]);
  } else {
    rebuild_live(nc);
  }
  nc.built_version = index_->version();
}

void WirelessChannel::rebuild_static(NeighborCache& nc, const WifiPhy& src) {
  // Evaluate every link once (identical math to what a transmission
  // would run, including the shadowing per-link draw) and classify it:
  // lockable ones into begin order, weak ones with their ledger units.
  // Links already under the receiver's floor fold into the bulk drop
  // count.
  links_.clear();
  for (const std::uint32_t i : gather_scratch_) {
    links_.push_back(LinkEval{index_->bounds(i).lo, 0.0, 0.0,
                              radios_[i]->node_id()});
  }
  evaluate_links(src, index_->bounds(src.channel_index()).lo);
  for (std::size_t k = 0; k < gather_scratch_.size(); ++k) {
    const std::uint32_t i = gather_scratch_[k];
    const WifiPhy& rx = *radios_[i];
    const double p_dbm = links_[k].power_dbm;
    if (p_dbm < rx.config().detection_floor_dbm) {
      ++nc.culled;
      continue;
    }
    const std::uint32_t d = link_delay_ns(links_[k].distance_m);
    const double p_mw = dbm_to_mw(p_dbm);
    if (rx.is_weak(p_dbm)) {
      nc.weak.push_back(WeakLink{i, d, rx.weak_units(p_mw)});
    } else {
      nc.lockable.push_back(LockableLink{i, d, p_dbm, p_mw});
    }
  }
  // Attach indices grow with candidate position, so they break delay
  // ties in candidate order.
  std::sort(nc.lockable.begin(), nc.lockable.end(),
            [](const LockableLink& a, const LockableLink& b) {
              return a.delay_ns < b.delay_ns ||
                     (a.delay_ns == b.delay_ns && a.rx < b.rx);
            });
  // A static list is built once per run and only read after: hold it
  // at its exact size, and give back the live arrays.
  nc.lockable.shrink_to_fit();
  nc.weak.shrink_to_fit();
  nc.rx_index.shrink_to_fit();
  nc.order.shrink_to_fit();
}

void WirelessChannel::rebuild_live(NeighborCache& nc) {
  // Every candidate, in ascending attach order; its link is evaluated
  // per transmission. Copies begin in (delay, candidate position)
  // order, and the order starts from attach order and is re-sorted per
  // transmission. The record arrays of an earlier static list go back.
  nc.rx_index.assign(gather_scratch_.begin(), gather_scratch_.end());
  for (std::size_t k = 0; k < nc.rx_index.size(); ++k) {
    nc.order.push_back(static_cast<std::uint32_t>(k));
  }
  nc.lockable.shrink_to_fit();
  nc.weak.shrink_to_fit();
}

void WirelessChannel::evaluate_links(const WifiPhy& src, mobility::Vec2 tx_pos) {
  // Two straight loops, and the caller uses the results in a third:
  // fusing evaluation with use measured slower (DESIGN.md, "Link
  // budgets").
  for (LinkEval& l : links_) l.distance_m = link_distance_m(tx_pos, l.rx_pos);
  const double tx_dbm = src.config().tx_power_dbm;
  const std::uint32_t tx_id = src.node_id();
  for (LinkEval& l : links_) {
    l.power_dbm = propagation_->power_dbm(tx_dbm, l.distance_m, tx_id, l.rx_id);
  }
}

void WirelessChannel::transmit_indexed(const WifiPhy& src,
                                       const net::Packet& packet,
                                       sim::Time duration, sim::Time now,
                                       mobility::Vec2 tx_pos) {
  index_->refresh();
  const std::uint32_t s = src.channel_index();
  NeighborCache& nc = neighbor_caches_[s];
  if (nc.built_version != index_->version()) rebuild_neighbor_cache(s);
  // Every receiver the index culled is provably below its detection
  // floor: account the whole batch so the counter equals the per-pair
  // scan's (N-1 - examined) + individually-dropped identity.
  counters_.copies_dropped_floor += nc.culled;
  const std::uint32_t id = open_stream(packet, duration);

  if (nc.memoised) {
    // Static mesh: every budget is memoised and classified, and the
    // lockable links are in begin order — no propagation math, no unit
    // conversions, no sort.
    counters_.copies_delivered += nc.lockable.size() + nc.weak.size();
    std::uint64_t seq = sim_.reserve_seq(nc.lockable.size());
    std::vector<Copy>& copies = streams_[id].copies;
    for (const LockableLink& l : nc.lockable) {
      copies.push_back(Copy{now + sim::Time::nanos(l.delay_ns), seq++,
                            l.power_dbm, l.power_mw, 0, radios_[l.rx]});
    }
    for (const WeakLink& w : nc.weak) {
      const sim::Time at = now + sim::Time::nanos(w.delay_ns);
      radios_[w.rx]->add_weak_units(at, at + duration, w.units);
    }
    launch_stream(id);
    return;
  }

  // Live list: evaluate every candidate, then queue each copy in
  // ascending attach order (the order the per-pair scan visits, so
  // every copy takes the same rank and seq).
  const std::size_t n = nc.rx_index.size();
  links_.clear();
  for (const std::uint32_t i : nc.rx_index) {
    const WifiPhy& rx = *radios_[i];
    links_.push_back(LinkEval{rx.position(now), 0.0, 0.0, rx.node_id()});
  }
  evaluate_links(src, tx_pos);
  slots_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    WifiPhy* rx = radios_[nc.rx_index[k]];
    const LinkEval& l = links_[k];
    Slot& slot = slots_[k];
    slot.rank = kNoRank;
    slot.delay = sim::Time::seconds(l.distance_m / kSpeedOfLight);
    if (l.power_dbm < rx->config().detection_floor_dbm) {
      ++counters_.copies_dropped_floor;
      continue;
    }
    const auto rank = static_cast<std::uint32_t>(pending_.size());
    if (add_copy_or_weak(rx, l.power_dbm, dbm_to_mw(l.power_dbm), slot.delay,
                         now, duration)) {
      slot.rank = rank;
    }
  }
  launch_reordered(id, now, nc);
}

void WirelessChannel::transmit_scan(const WifiPhy& src,
                                    const net::Packet& packet,
                                    sim::Time duration, sim::Time now,
                                    mobility::Vec2 tx_pos) {
  // Per-pair scalar walk over every receiver in attach order, with no
  // range proof: the reference the indexed path is checked against.
  // An installed fault overlay decides per receiver whether a drop is a
  // fault drop or a floor drop, and that attribution (plus blackout
  // attenuation) must see every pair in order.
  const std::uint32_t id = open_stream(packet, duration);
  for (WifiPhy* rx : radios_) {
    if (rx == &src) continue;
    const double d = link_distance_m(tx_pos, rx->position(now));
    double p_dbm = propagation_->power_dbm(src.config().tx_power_dbm, d,
                                           src.node_id(), rx->node_id());
    if (fault_ != nullptr) {
      if (!fault_->node_up(rx->node_id())) {
        ++counters_.copies_dropped_fault;
        continue;
      }
      p_dbm -= fault_->link_loss_db(src.node_id(), rx->node_id(), now);
    }
    if (p_dbm < rx->config().detection_floor_dbm) {
      ++counters_.copies_dropped_floor;
      continue;
    }
    add_copy_or_weak(rx, p_dbm, dbm_to_mw(p_dbm),
                     sim::Time::seconds(d / kSpeedOfLight), now, duration);
  }
  launch_pending(id, now);
}

void WirelessChannel::transmit(const WifiPhy& src, const net::Packet& packet,
                               sim::Time duration) {
  // A crashed radio never reaches transmit() (WifiPhy::send checks up_),
  // but the belt is cheap and keeps the invariant local. The guard runs
  // before any counting: a downed source's send is not a transmission.
  if (fault_ != nullptr && !fault_->node_up(src.node_id())) return;
  ++counters_.transmissions;
  const sim::Time now = sim_.now();
  const mobility::Vec2 tx_pos = src.position(now);

  // With a fault overlay installed the indexed path stands down: the
  // overlay's per-receiver attribution must see every pair.
  if (!index_enabled_ || fault_ != nullptr) {
    transmit_scan(src, packet, duration, now, tx_pos);
    return;
  }
  // Grid sizing needs the detection ranges, so refresh_ranges() must
  // run first.
  if (!ranges_valid_) refresh_ranges();
  if (index_ == nullptr) build_spatial_index();
  transmit_indexed(src, packet, duration, now, tx_pos);
}

std::size_t WirelessChannel::deliveries_in_flight() const {
  std::size_t n = in_flight_;
  for (const WifiPhy* rx : radios_) n += rx->weak_copies_pending();
  return n;
}

std::size_t WirelessChannel::memory_bytes() const {
  std::size_t bytes = sizeof(*this) + streams_.capacity() * sizeof(Stream) +
                      radios_.capacity() * sizeof(WifiPhy*) +
                      pending_.capacity() * sizeof(Pending) +
                      slots_.capacity() * sizeof(Slot) +
                      begin_keys_.capacity() * sizeof(std::uint64_t) +
                      radio_range_m_.capacity() * sizeof(double) +
                      gather_scratch_.capacity() * sizeof(std::uint32_t) +
                      links_.capacity() * sizeof(LinkEval) +
                      neighbor_caches_.capacity() * sizeof(NeighborCache);
  for (const Stream& s : streams_) bytes += s.copies.capacity() * sizeof(Copy);
  for (const NeighborCache& nc : neighbor_caches_) bytes += nc.memory_bytes();
  if (index_ != nullptr) bytes += index_->memory_bytes();
  return bytes;
}

}  // namespace wmn::phy
