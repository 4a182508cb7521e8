// Batched link-budget evaluation over SoA candidate buffers.
//
// The channel's hot path is "one transmitter against K candidate
// receivers". Evaluating those links one at a time walks pointer-rich
// per-node state and pays a virtual propagation call per pair; this
// kernel hoists the candidates into structure-of-arrays buffers and
// evaluates the whole batch in two straight-line passes:
//
//   pass 1  distances   d[i] = link_distance_m(tx, rx[i])
//           (a branch-free loop the compiler auto-vectorises)
//   pass 2  powers      model.rx_power_dbm_batch(view)
//           (one virtual call per batch, model-specific tight loop)
//
// Determinism: every pass performs the same IEEE-754 operations as the
// scalar path, in the same per-element order, so batched and per-pair
// evaluation agree bit for bit (tests/test_link_budget_kernel.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mobility/vec2.hpp"
#include "phy/propagation.hpp"

namespace wmn::phy {

class LinkBudgetKernel {
 public:
  // Reusable SoA buffers describing one transmitter's candidates.
  // Callers push (position, node id) pairs, then run evaluate();
  // distance_m/power_dbm come back aligned element-wise.
  struct Batch {
    std::vector<double> rx_x;
    std::vector<double> rx_y;
    std::vector<std::uint32_t> rx_id;     // node ids (shadowing hash input)
    std::vector<double> distance_m;       // out: floored link distance
    std::vector<double> power_dbm;        // out: received power

    void clear() {
      rx_x.clear();
      rx_y.clear();
      rx_id.clear();
    }

    void push(mobility::Vec2 pos, std::uint32_t id) {
      rx_x.push_back(pos.x);
      rx_y.push_back(pos.y);
      rx_id.push_back(id);
    }

    [[nodiscard]] std::size_t size() const { return rx_x.size(); }

    [[nodiscard]] std::size_t memory_bytes() const {
      return rx_x.capacity() * sizeof(double) +
             rx_y.capacity() * sizeof(double) +
             rx_id.capacity() * sizeof(std::uint32_t) +
             distance_m.capacity() * sizeof(double) +
             power_dbm.capacity() * sizeof(double);
    }
  };

  // Pass 1 + pass 2: distances into batch.distance_m, then model
  // powers into batch.power_dbm.
  static void evaluate(const PropagationModel& model, double tx_power_dbm,
                       mobility::Vec2 tx_pos, std::uint32_t tx_id,
                       Batch& batch);
};

}  // namespace wmn::phy
