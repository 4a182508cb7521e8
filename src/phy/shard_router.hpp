// ShardRouter: deterministic cross-region delivery inboxes for the
// sharded engine (sim/sharded_simulator.hpp).
//
// During an epoch, each region's channel classifies every delivery by
// the receiver's home region. Intra-region copies join the
// transmission's arrival stream; cross-region copies are posted here,
// into the (src-region, dst-region) outbox row, stamped with a per-row
// monotone sequence number. Rows are strictly single-writer (only
// src's worker posts to row (src, *)), so posting needs no
// synchronisation.
//
// At each epoch barrier merge_epoch() runs on the coordinating thread
// with every worker parked. Per destination region it collects all
// pending entries, computes each entry's release time
//     release = max(physical arrival, barrier)
// (conservative lookahead guarantees arrival lands in the *next* epoch
// or later for a true causality edge; an arrival inside the just-
// finished epoch is clamped to the barrier — never early, late by less
// than one epoch), sorts them by the fixed total order
//     (release, src region, row sequence)
// and hands each to the destination region's channel in that order, as
// a one-item arrival stream. The destination calendar's seqs then make
// same-release ties deterministic forever after. Packets are deep-
// cloned into the destination region's arena (arenas are single-
// threaded by contract); the source-side references die on the
// coordinating thread during the merge, which the barrier orders
// against all worker access.
#pragma once

#include <cstdint>
#include <vector>

#include "core/check.hpp"
#include "net/packet.hpp"
#include "sim/sharded_simulator.hpp"
#include "sim/time.hpp"

namespace wmn::phy {

class WifiPhy;
class WirelessChannel;

class ShardRouter final : public sim::ShardBarrierHook {
 public:
  // `region_of_node[i]` is node i's home region; `channels[r]` and
  // `factories[r]` are region r's channel and packet factory. All
  // non-owning; the scenario wires lifetimes.
  ShardRouter(std::vector<std::uint32_t> region_of_node,
              std::vector<WirelessChannel*> channels,
              std::vector<net::PacketFactory*> factories);

  [[nodiscard]] std::uint32_t region_count() const {
    return static_cast<std::uint32_t>(channels_.size());
  }
  [[nodiscard]] std::uint32_t region_of(std::uint32_t node_id) const {
    WMN_CHECK_LT(node_id, region_of_node_.size(), "unmapped node id");
    return region_of_node_[node_id];
  }

  // Post a cross-region delivery (called on src's worker during an
  // epoch). `arrival` is the physical arrival instant (now +
  // propagation delay); `rx` lives in `dst_region`.
  void post(std::uint32_t src_region, std::uint32_t dst_region, WifiPhy* rx,
            const net::Packet& packet, double rx_power_dbm, double rx_power_mw,
            sim::Time arrival, sim::Time duration);

  // ShardBarrierHook.
  bool merge_epoch(sim::Time boundary) override;

  // Diagnostics (coordinator thread only).
  [[nodiscard]] std::uint64_t posted() const;
  [[nodiscard]] std::uint64_t merged() const { return merged_; }

  // Test hook: when enabled, each merge records (release, src region,
  // row seq, source packet uid) in schedule order — the fixed total
  // order tests/test_shard_map.cpp pins. Off by default (zero cost).
  struct MergeTraceEntry {
    sim::Time release{};
    std::uint32_t src_region = 0;
    std::uint64_t seq = 0;
    std::uint64_t uid = 0;
  };
  void set_trace(bool on) { trace_on_ = on; }
  [[nodiscard]] const std::vector<MergeTraceEntry>& last_merge_trace() const {
    return trace_;
  }

 private:
  struct Entry {
    net::Packet packet;  // source-arena reference until the merge clones it
    WifiPhy* rx;
    double rx_power_dbm;
    double rx_power_mw;
    sim::Time arrival;
    sim::Time duration;
    std::uint64_t seq;  // per-(src,dst) row, monotone
  };
  struct Outbox {
    std::vector<Entry> entries;
    std::uint64_t next_seq = 0;
  };
  // Sort key + locator used by the merge; kept out of Entry so the
  // sort moves 24 bytes, not packets.
  struct MergeRef {
    sim::Time release;
    std::uint32_t src_region;
    std::uint64_t seq;
    std::uint32_t index;  // into that row's entries
  };

  std::vector<std::uint32_t> region_of_node_;
  std::vector<WirelessChannel*> channels_;
  std::vector<net::PacketFactory*> factories_;
  std::vector<Outbox> outboxes_;  // row-major: src * R + dst
  std::vector<MergeRef> scratch_;
  std::uint64_t merged_ = 0;
  bool trace_on_ = false;
  std::vector<MergeTraceEntry> trace_;
};

}  // namespace wmn::phy
