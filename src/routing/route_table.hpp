// AODV routing table: destination-sequenced distance-vector entries
// with lifetimes, precursor lists, and an optional path metric (used by
// metric-based route selection; equals hop count for baselines).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace wmn::routing {

enum class RouteState : std::uint8_t { kValid, kInvalid };

// Field order packs the entry to 32 bytes (wide members first, the
// byte-sized flags sharing one tail word) — at 400+ nodes the route
// tables are the largest per-node structure, so the layout is part of
// the bytes_per_node budget. Precursor lists live in the table, not
// here: few entries have any.
struct RouteEntry {
  double metric = 0.0;          // accumulated path metric (CLNLR load)
  sim::Time expires{};          // entry dies (or goes stale) at this time
  net::Address dest;
  net::Address next_hop;
  std::uint32_t dest_seqno = 0;
  std::uint8_t hop_count = 0;
  bool valid_seqno = false;
  RouteState state = RouteState::kValid;
};
static_assert(sizeof(RouteEntry) == 32);

// Entries live contiguously; a dense index maps each address (node
// addresses are 0..N-1) to its entry's slot.
//
// Pointer stability: a RouteEntry* from lookup() or find() stays valid
// only until the next upsert(), purge() or clear() — upsert may grow
// the storage and purge moves the last entry into an erased slot.
// touch(), invalidate() and the precursor calls never move entries.
class RouteTable {
 public:
  // Valid (non-expired, kValid) entry for dest, if any. `now` drives
  // lazy expiry: expired entries flip to kInvalid on access.
  [[nodiscard]] const RouteEntry* lookup(net::Address dest, sim::Time now);

  // Entry regardless of state (e.g. to read the last known seqno).
  [[nodiscard]] RouteEntry* find(net::Address dest);

  // Insert or overwrite the entry for entry.dest.
  void upsert(RouteEntry entry);

  // Refresh the lifetime of an active route (data traffic keeps routes
  // alive, per RFC 3561 section 6.2).
  void touch(net::Address dest, sim::Time expires);

  // Invalidate the route to `dest` (if present), bumping its seqno so
  // stale information cannot resurrect it. Returns the invalidated
  // entry, if one existed and was valid.
  std::optional<RouteEntry> invalidate(net::Address dest, sim::Time now);

  // All valid routes whose next hop is `via`, in address order
  // (link-break handling; the order reaches RERR destination lists).
  [[nodiscard]] std::vector<net::Address> dests_via(net::Address via,
                                                    sim::Time now);

  // Precursors of `dest`: neighbours that route *through us* to it and
  // get RERRs when the route breaks. A destination's list belongs to
  // its entry: it survives upsert() and invalidate(), and goes with
  // the entry in purge() and clear(). Adding to a destination with no
  // entry does nothing.
  void add_precursor(net::Address dest, net::Address precursor);

  // Append dest's precursors to `out`, ascending and duplicate-free —
  // already the normalised order the RERR path needs.
  void append_precursors(net::Address dest,
                         std::vector<net::Address>& out) const;

  // Remove `precursor` from every entry's precursor list — called when
  // the neighbour expires from the NeighborTable, so later RERRs are
  // not addressed to stations known to be gone.
  void remove_precursor(net::Address precursor);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  // Drop long-dead invalid entries (housekeeping; called by the agent's
  // periodic timer).
  void purge(sim::Time now, sim::Time dead_retention);

  // Forget everything (node crash: a rebooted router has no table).
  void clear() {
    entries_.clear();
    slot_.clear();
    precursors_.clear();
  }

  // Dynamic footprint (index + entry storage + precursor storage) —
  // feeds the bytes_per_node bench counter.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static constexpr std::uint16_t kNoSlot = 0xFFFF;

  std::vector<RouteEntry> entries_;
  // Address value -> index into entries_, kNoSlot when absent. Grown to
  // exactly the highest address seen: addresses arrive in random
  // order, so that reallocates about ln N times per node.
  std::vector<std::uint16_t> slot_;
  // Every entry's precursors as (dest, precursor) pairs, sorted: a
  // node has a handful, against dozens of entries.
  std::vector<std::pair<net::Address, net::Address>> precursors_;
};

}  // namespace wmn::routing
