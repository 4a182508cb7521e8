// 1-hop neighbour table, fed by HELLO beacons.
//
// Besides liveness (a neighbour silent for `allowed_loss` hello
// intervals is declared gone, triggering link-break handling), the
// table stores each neighbour's advertised load index and degree — the
// inputs to CLNLR's neighbourhood load computation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/address.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wmn::routing {

// Wide members first: 32 bytes instead of the 40 the declaration-order
// layout padded to — at CLNLR densities this table is sized by the node
// degree, so the entry layout shows up in bytes_per_node.
struct NeighborInfo {
  sim::Time last_heard{};
  double load_index = 0.0;   // sender's advertised cross-layer load
  net::Address addr;
  std::uint32_t last_seqno = 0;
  std::uint16_t degree = 0;  // sender's advertised neighbour count
};

class NeighborTable {
 public:
  using LossCallback = std::function<void(net::Address)>;

  NeighborTable(sim::Simulator& simulator, sim::Time hello_interval,
                std::uint32_t allowed_loss);
  ~NeighborTable();

  NeighborTable(const NeighborTable&) = delete;
  NeighborTable& operator=(const NeighborTable&) = delete;

  // Record a heard HELLO (or any frame proving the neighbour alive).
  void heard(net::Address addr, std::uint32_t seqno, double load_index,
             std::uint16_t degree);

  // Refresh liveness only (e.g. data frame overheard from neighbour).
  void refresh(net::Address addr);

  [[nodiscard]] bool contains(net::Address addr) const {
    return info(addr) != nullptr;
  }

  [[nodiscard]] std::size_t count() const { return neighbors_.size(); }

  [[nodiscard]] const NeighborInfo* info(net::Address addr) const;

  // Every neighbour, in address order.
  [[nodiscard]] std::vector<NeighborInfo> snapshot() const { return neighbors_; }

  // Mean advertised load of current neighbours (0 when alone), summed
  // in address order. Cached between the edits that can change it
  // (heard, sweep, pause); a read after one re-sums the table.
  [[nodiscard]] double mean_neighbor_load() const;

  // Called when a neighbour expires from the table.
  void set_loss_callback(LossCallback cb) { loss_cb_ = std::move(cb); }

  // Fault injection: pause() cancels the sweep and forgets every
  // neighbour (no loss callbacks — the owning agent is crashing, not
  // detecting failures); resume() restarts the sweep on an empty table.
  void pause();
  void resume();

  // Dynamic footprint (entry storage) — feeds the bytes_per_node bench
  // counter.
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + neighbors_.capacity() * sizeof(NeighborInfo);
  }

 private:
  void sweep();

  // Index of the first entry whose address is not below `addr`.
  [[nodiscard]] std::size_t position(net::Address addr) const {
    return static_cast<std::size_t>(
        std::ranges::lower_bound(neighbors_, addr, {}, &NeighborInfo::addr) -
        neighbors_.begin());
  }

  sim::Simulator& sim_;
  sim::Time lifetime_;
  std::vector<NeighborInfo> neighbors_;  // sorted by address
  mutable double mean_load_ = 0.0;
  mutable bool mean_load_stale_ = false;
  LossCallback loss_cb_;
  sim::EventId sweep_timer_{};
};

}  // namespace wmn::routing
