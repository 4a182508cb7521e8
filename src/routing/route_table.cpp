#include "routing/route_table.hpp"

#include <algorithm>
#include <utility>

#include "core/check.hpp"

namespace wmn::routing {

const RouteEntry* RouteTable::lookup(net::Address dest, sim::Time now) {
  RouteEntry* e = find(dest);
  if (e == nullptr) return nullptr;
  if (e->state == RouteState::kValid && e->expires <= now) {
    e->state = RouteState::kInvalid;
    // Hold the dead entry for its seqno; purge() reclaims it later.
    e->expires = now;
  }
  return e->state == RouteState::kValid ? e : nullptr;
}

RouteEntry* RouteTable::find(net::Address dest) {
  const std::uint32_t a = dest.value();
  if (a >= slot_.size() || slot_[a] == kNoSlot) return nullptr;
  return &entries_[slot_[a]];
}

void RouteTable::upsert(RouteEntry entry) {
  // Next-hop validity: a usable route must point at a concrete
  // neighbour. A broadcast or null next hop would silently blackhole
  // every packet sent along it.
  WMN_CHECK(entry.dest.is_valid() && !entry.dest.is_broadcast(),
            "route entries are keyed by unicast destinations");
  if (entry.state == RouteState::kValid) {
    WMN_CHECK(entry.next_hop.is_valid() && !entry.next_hop.is_broadcast(),
              "valid route with an unusable next hop");
    WMN_CHECK_GE(entry.hop_count, std::uint8_t{1},
                 "a valid route spans at least one hop");
  }
  // One slot per address, so bounding the address also bounds the
  // entry count to what a 16-bit slot can name.
  const std::uint32_t a = entry.dest.value();
  WMN_CHECK_LT(a, std::uint32_t{kNoSlot},
               "route index covers addresses below 0xFFFF");
  if (a >= kNoSlot) return;  // kLogAndCount: never grow the index past it
  if (RouteEntry* e = find(entry.dest)) {
    *e = std::move(entry);
    return;
  }
  if (a >= slot_.size()) {
    slot_.reserve(a + 1);  // exact: resize alone would double the capacity
    slot_.resize(a + 1, kNoSlot);
  }
  slot_[a] = static_cast<std::uint16_t>(entries_.size());
  entries_.push_back(std::move(entry));
}

void RouteTable::touch(net::Address dest, sim::Time expires) {
  RouteEntry* e = find(dest);
  if (e == nullptr || e->state != RouteState::kValid) return;
  if (e->expires < expires) e->expires = expires;
}

std::optional<RouteEntry> RouteTable::invalidate(net::Address dest,
                                                 sim::Time now) {
  RouteEntry* e = find(dest);
  if (e == nullptr || e->state != RouteState::kValid) return std::nullopt;
  e->state = RouteState::kInvalid;
  // RFC 3561 section 6.11: increment the seqno of an invalidated route.
  if (e->valid_seqno) ++e->dest_seqno;
  e->expires = now;
  return *e;
}

std::vector<net::Address> RouteTable::dests_via(net::Address via, sim::Time now) {
  std::vector<net::Address> out;
  for (const RouteEntry& e : entries_) {
    if (e.state == RouteState::kValid && e.expires > now && e.next_hop == via) {
      out.push_back(e.dest);
    }
  }
  // Slot order is erase history; RERR lists go out in address order.
  std::sort(out.begin(), out.end());
  return out;
}

void RouteTable::add_precursor(net::Address dest, net::Address precursor) {
  if (find(dest) == nullptr) return;
  const std::pair pair{dest, precursor};
  const auto pos =
      std::lower_bound(precursors_.begin(), precursors_.end(), pair);
  if (pos == precursors_.end() || *pos != pair) precursors_.insert(pos, pair);
}

void RouteTable::append_precursors(net::Address dest,
                                   std::vector<net::Address>& out) const {
  auto it = std::lower_bound(precursors_.begin(), precursors_.end(),
                             std::pair{dest, net::Address(0)});
  for (; it != precursors_.end() && it->first == dest; ++it) {
    out.push_back(it->second);
  }
}

void RouteTable::remove_precursor(net::Address precursor) {
  std::erase_if(precursors_,
                [precursor](const auto& p) { return p.second == precursor; });
}

std::size_t RouteTable::memory_bytes() const {
  return sizeof(*this) + entries_.capacity() * sizeof(RouteEntry) +
         slot_.capacity() * sizeof(std::uint16_t) +
         precursors_.capacity() * sizeof(decltype(precursors_)::value_type);
}

void RouteTable::purge(sim::Time now, sim::Time dead_retention) {
  for (std::size_t i = 0; i < entries_.size();) {
    RouteEntry& e = entries_[i];
    if (e.state == RouteState::kValid && e.expires <= now) {
      e.state = RouteState::kInvalid;
      e.expires = now;
    } else if (e.state == RouteState::kInvalid &&
               e.expires + dead_retention <= now) {
      // Erase by moving the last entry into slot i, then look at it.
      slot_[e.dest.value()] = kNoSlot;
      std::erase_if(precursors_,
                    [dest = e.dest](const auto& p) { return p.first == dest; });
      if (i + 1 != entries_.size()) {
        e = std::move(entries_.back());
        slot_[e.dest.value()] = static_cast<std::uint16_t>(i);
      }
      entries_.pop_back();
      continue;
    }
    ++i;
  }
}

}  // namespace wmn::routing
