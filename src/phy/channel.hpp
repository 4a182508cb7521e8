// The shared wireless medium.
//
// One WirelessChannel per simulation: it knows every attached radio,
// and on each transmission computes per-receiver received power through
// the propagation model, delivering an energy arrival (after speed-of-
// light delay) to every radio above the detection floor. Whether the
// arrival is a decodable frame, carrier-sense energy, or interference
// is the *receiving* radio's business (see WifiPhy).
//
// Lockable and weak copies: the channel splits a transmission's copies
// by the receiver's rx_sensitivity_dbm. A weak copy can never lock, so
// it becomes no event at all: it goes straight into the receiver's
// interference ledger (WifiPhy::add_weak_units), which settles lazily.
// A static neighbour cache classifies each link once, at rebuild; the
// live path and the per-pair scan classify per copy.
//
// Arrival streams: the lockable copies do not become calendar events
// of their own either. Each transmission opens one stream holding the
// frame's single packet copy and one entry per lockable receiver. An
// entry is first the copy's begin (keyed by its arrival time and a
// calendar seq from one block reserved per transmission, handed out in
// begin order); once begun it becomes the copy's end, keyed by begin +
// air time and the seq WifiPhy::begin_arrival reserved. Begins run in
// (time, seq) order and ends follow in the same order, so the stream
// merges its begin and end cursors by key. Only the earliest pending
// item sits in the calendar; after each item the stream asks
// sim::Simulator::advance_inline whether its next item would be the
// calendar's next pop anyway and, if so, runs it inline. Every item
// still runs at its own (time, seq) position and counts as one event.
//
// Begin order is (propagation delay, candidate position): the arrival
// time is now + delay, and equal delays keep candidate (attach) order.
// Sorts compare packed 64-bit (delay_ns << 24 | index) keys, so they
// compare plain integers. A static neighbour list stores its lockable
// links in that order once per cache rebuild. An indexed list with live
// links re-sorts the order its previous transmission left, which is
// nearly sorted already. The per-pair scan sorts from scratch.
//
// Streams live in a free-listed pool; the calendar event captures only
// (this, stream index), and nothing holds a reference into the pool
// across a PHY/MAC callback, which may transmit and grow it.
//
// Two fan-out paths. The per-pair scan (transmit_scan) walks every
// attached receiver in attach order with one scalar propagation call
// each and no range proof; it is the reference. enable_spatial_index()
// activates the fast path, two layers:
//
//   * a phy::SpatialIndex (uniform grid fed by mobility epochs) culls
//     receivers provably out of range (PropagationModel::max_range_m)
//     before any propagation math;
//   * a per-source neighbour cache memoises the candidate list and,
//     when the source and every candidate are pinned (their mobility
//     bounds are points), every link's full budget — power in dBm and
//     milliwatts (a weak link's in the receiver's ledger units) plus
//     the propagation delay — so a static mesh pays the propagation
//     model (and the dBm->mW pow()) once per link per run. A list with
//     one moving endpoint evaluates all its links per transmission.
//
// Links are evaluated in one two-pass shape (evaluate_links): all
// distances first, then one PropagationModel::power_dbm call per link,
// and only then does the caller use the results.
//
// The indexed path is bit-identical to the per-pair scan: candidates
// are examined in attach order, culled pairs are provably below the
// floor and are bulk-accounted as copies_dropped_floor, and cached
// budgets are the exact values the model returns. Because the
// scan never consults max_range_m, a wrong range inversion shows up as
// a difference between the two. With a fault overlay installed the
// channel runs the per-pair scan so the overlay's counter attribution
// (fault vs floor drops) stays exact.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "phy/fault_overlay.hpp"
#include "phy/propagation.hpp"
#include "phy/spatial_index.hpp"
#include "phy/wifi_phy.hpp"
#include "sim/simulator.hpp"

namespace wmn::phy {

class WirelessChannel {
 public:
  WirelessChannel(sim::Simulator& simulator,
                  std::unique_ptr<PropagationModel> propagation);

  WirelessChannel(const WirelessChannel&) = delete;
  WirelessChannel& operator=(const WirelessChannel&) = delete;

  // Register a radio. The radio must outlive the channel's use of it.
  void attach(WifiPhy* phy);

  // Broadcast `packet` from `src` to every other attached radio.
  // Called by WifiPhy::send(); not part of the public user API.
  void transmit(const WifiPhy& src, const net::Packet& packet, sim::Time duration);

  // Turn on the spatial neighbourhood index + link-budget cache for
  // the given deployment area. Callable before or after attaches; the
  // grid itself is built lazily on the first transmission (cell size
  // derives from the radios' detection range, known only then).
  // Results are bit-identical with the index on or off as long as the
  // model's max_range_m is sound.
  void enable_spatial_index(double area_width_m, double area_height_m);

  // Diagnostics/tests: null until enabled AND the first indexed
  // transmission built the grid.
  [[nodiscard]] const SpatialIndex* spatial_index() const { return index_.get(); }

  [[nodiscard]] std::size_t radio_count() const { return radios_.size(); }

  // Install (or clear, with nullptr) the fault overlay. Non-owning; the
  // overlay must outlive its installation. See phy/fault_overlay.hpp.
  void set_fault_overlay(const FaultOverlay* overlay) { fault_ = overlay; }

  struct Counters {
    std::uint64_t transmissions = 0;
    std::uint64_t copies_delivered = 0;  // above the floor, not fault-dropped
    std::uint64_t copies_dropped_floor = 0;
    std::uint64_t copies_dropped_fault = 0;  // receiver crashed mid-window
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Copies above the floor not yet settled at their receiver: queued in
  // a stream and not yet begun, or in a receiver's interference ledger
  // and not yet settled at their begin (diagnostics / tests). With
  // every radio settled, these are exactly the copies still
  // propagating.
  [[nodiscard]] std::size_t deliveries_in_flight() const;

  // A weak copy began at a powered-down receiver (WifiPhy settling its
  // ledger). Under a fault overlay the crash is the overlay's: the copy
  // moves from delivered to fault-dropped, as a lockable copy does at
  // its begin, and this returns true. Without one it returns false and
  // the receiver counts the copy as dropped while down.
  bool fault_drop_weak_copy();

  // Dynamic footprint of the channel's own state (stream pool,
  // neighbour caches, link-evaluation scratch, spatial index) — feeds
  // the bytes_per_node bench counter.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // One receiver's copy within a stream. Until it begins, (at, seq) is
  // the begin's key; begin_arrival turns it into the end's key and sets
  // `key`. A copy dropped at its begin keeps key == 0 and has no end.
  struct Copy {
    sim::Time at;
    std::uint64_t seq;
    double power_dbm;
    double power_mw;
    std::uint64_t key;
    WifiPhy* rx;
  };

  // One transmission's arrivals. `copies` is sorted by begin key; the
  // begun prefix [0, next_begin) holds the ends, whose keys are sorted
  // too (begin + the common air time, seqs reserved in begin order).
  struct Stream {
    std::optional<net::Packet> packet;
    sim::Time duration{};
    std::vector<Copy> copies;
    std::size_t next_begin = 0;
    std::size_t next_end = 0;
    std::size_t ends_pending = 0;
    std::uint32_t next_free = kNilStream;

    [[nodiscard]] std::size_t items_pending() const {
      return copies.size() - next_begin + ends_pending;
    }
  };
  static constexpr std::uint32_t kNilStream = 0xFFFFFFFFu;

  // A lockable copy, queued in candidate order while one transmission
  // is evaluated; its index in pending_ is its rank.
  struct Pending {
    WifiPhy* rx;
    double power_dbm;
    double power_mw;
    sim::Time delay;
  };
  // One candidate position of an indexed transmission: its propagation
  // delay (kept for every candidate, queued or not, so the reused order
  // stays near-sorted) and its rank in pending_, or kNoRank for a copy
  // below the floor or a weak one.
  struct Slot {
    sim::Time delay;
    std::uint32_t rank;
  };
  static constexpr std::uint32_t kNoRank = 0xFFFFFFFFu;

  // A memoised lockable link: the receiver's attach index, the
  // propagation delay and the power in both units.
  struct LockableLink {
    std::uint32_t rx;
    std::uint32_t delay_ns;
    double power_dbm;
    double power_mw;
  };
  // A memoised weak link, its power already in the receiver's ledger
  // units (WifiPhy::weak_units).
  struct WeakLink {
    std::uint32_t rx;
    std::uint32_t delay_ns;
    std::int64_t units;
  };
  static_assert(sizeof(LockableLink) == 24);
  static_assert(sizeof(WeakLink) == 16);

  // Per-source candidate list, valid for one SpatialIndex version.
  //
  // `culled` counts receivers provably below the detection floor for
  // this version (out of range, or in a memoised list a link whose
  // exact budget is under the receiver's floor) — bulk-added to
  // copies_dropped_floor per transmission so the counter matches the
  // per-pair scan exactly.
  //
  // Copies begin in (delay, candidate position) order. A memoised list
  // (every endpoint pinned, the static-mesh common case) holds only
  // two record arrays, evaluated and classified once at rebuild:
  // `lockable`, sorted in begin order then, so a static mesh never
  // sorts a stream, and `weak`, in attach order. Most of a
  // transmission's copies are weak, so a weak link is 16 bytes and
  // carries its ledger units, not milliwatts.
  //
  // A live list (a moving endpoint) keeps every candidate in
  // `rx_index`, in ascending attach order, and evaluates every link
  // per transmission. `order` keeps every candidate, starting from
  // attach order and re-sorted at each transmission from the previous
  // transmission's order: nodes move little between two transmissions
  // of one source, so few entries move (8% per transmission on the
  // 10 m/s benchmark mesh).
  struct NeighborCache {
    std::uint64_t built_version = ~std::uint64_t{0};
    std::uint64_t culled = 0;
    bool memoised = false;
    std::vector<LockableLink> lockable;
    std::vector<WeakLink> weak;
    std::vector<std::uint32_t> rx_index;
    std::vector<std::uint32_t> order;

    [[nodiscard]] std::size_t memory_bytes() const {
      return lockable.capacity() * sizeof(LockableLink) +
             weak.capacity() * sizeof(WeakLink) +
             rx_index.capacity() * sizeof(std::uint32_t) +
             order.capacity() * sizeof(std::uint32_t);
    }
  };

  // One link of a transmitter under evaluation: the receiver's
  // position and node id go in, the floored distance and the received
  // power come out.
  struct LinkEval {
    mobility::Vec2 rx_pos;
    double distance_m;
    double power_dbm;
    std::uint32_t rx_id;
  };

  std::uint32_t open_stream(net::Packet packet, sim::Time duration);
  // Account one lockable copy and queue it in pending_, in candidate
  // order.
  void add_copy(WifiPhy* rx, double p_dbm, double p_mw, sim::Time delay);
  // Account one weak copy and enter it in the receiver's ledger.
  void add_weak(WifiPhy* rx, double p_mw, sim::Time at, sim::Time duration);
  // A copy above the floor: queue it if lockable (returns true), or
  // enter it in the receiver's ledger if weak (WifiPhy::is_weak).
  bool add_copy_or_weak(WifiPhy* rx, double p_dbm, double p_mw, sim::Time delay,
                        sim::Time now, sim::Time duration);
  // Per-pair scan: sort pending_ by packed (delay, rank) keys, reserve
  // one seq block, hand its seqs out in begin order and launch.
  void launch_pending(std::uint32_t id, sim::Time now);
  // Indexed transmissions: re-sort nc.order by the delays in slots_,
  // then launch pending_ in that order, as launch_pending() does.
  void launch_reordered(std::uint32_t id, sim::Time now, NeighborCache& nc);
  void push_copy(std::uint32_t id, sim::Time now, std::uint64_t seq,
                 std::uint32_t rank);
  // Key a stream whose copies are in begin order into the calendar; an
  // empty stream is released.
  void launch_stream(std::uint32_t id);
  // Calendar entry point: run the stream's next item, then keep going
  // inline while Simulator::advance_inline allows it.
  void run_stream(std::uint32_t id);
  void key_stream(std::uint32_t id, const Copy& next);
  void release_stream(std::uint32_t id);
  void refresh_ranges();
  void build_spatial_index();
  void rebuild_neighbor_cache(std::uint32_t src_index);
  // The two halves of a rebuild, over gather_scratch_: a memoised list
  // evaluates its links and fills the classified link records, a live
  // one its candidate arrays. Each frees the other's storage.
  void rebuild_static(NeighborCache& nc, const WifiPhy& src);
  void rebuild_live(NeighborCache& nc);
  // Evaluate every link in links_ from `src` at `tx_pos`: all distances
  // first, then one power_dbm call per link.
  void evaluate_links(const WifiPhy& src, mobility::Vec2 tx_pos);
  void transmit_indexed(const WifiPhy& src, const net::Packet& packet,
                        sim::Time duration, sim::Time now,
                        mobility::Vec2 tx_pos);
  void transmit_scan(const WifiPhy& src, const net::Packet& packet,
                     sim::Time duration, sim::Time now,
                     mobility::Vec2 tx_pos);

  sim::Simulator& sim_;
  std::unique_ptr<PropagationModel> propagation_;
  const FaultOverlay* fault_ = nullptr;
  std::vector<WifiPhy*> radios_;
  // Per-transmission scratch for the begin order.
  std::vector<Pending> pending_;
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> begin_keys_;
  std::vector<Stream> streams_;
  std::uint32_t free_head_ = kNilStream;
  std::size_t in_flight_ = 0;
  Counters counters_;
  // Reusable link-evaluation scratch, shared by memoised-list rebuilds
  // and live-list transmissions (a rebuild is used up before a
  // transmission's links are gathered).
  std::vector<LinkEval> links_;

  // Conservative per-source detection ranges (max_range_m at the
  // minimum attached floor) — the spatial index's cull radius and grid
  // sizing. Recomputed after attaches.
  bool ranges_valid_ = false;
  double min_detection_floor_dbm_ = 0.0;
  std::vector<double> radio_range_m_;  // per attach index

  // --- spatial index state (inert unless enable_spatial_index()) ------
  bool index_enabled_ = false;
  double area_width_m_ = 0.0;
  double area_height_m_ = 0.0;
  std::unique_ptr<SpatialIndex> index_;
  std::vector<NeighborCache> neighbor_caches_;
  std::vector<std::uint32_t> gather_scratch_;
};

}  // namespace wmn::phy
