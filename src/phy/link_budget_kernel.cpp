#include "phy/link_budget_kernel.hpp"

#include "core/check.hpp"

namespace wmn::phy {

// The distance pass. The loop body is exactly link_distance_m(); kept
// branch-free so GCC's -O2 vectoriser can turn it into sqrtpd/maxpd
// without changing the IEEE semantics (no -ffast-math anywhere in this
// tree).
void LinkBudgetKernel::compute_distances(Batch& batch, mobility::Vec2 tx_pos) {
  const std::size_t n = batch.size();
  batch.distance_m.resize(n);
  const double* rx_x = batch.rx_x.data();
  const double* rx_y = batch.rx_y.data();
  double* out = batch.distance_m.data();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = link_distance_m(tx_pos, mobility::Vec2{rx_x[i], rx_y[i]});
  }
}

void LinkBudgetKernel::evaluate_with_distances(const PropagationModel& model,
                                               double tx_power_dbm,
                                               mobility::Vec2 tx_pos,
                                               std::uint32_t tx_id,
                                               Batch& batch) {
  const std::size_t n = batch.size();
  WMN_CHECK_EQ(batch.distance_m.size(), n,
               "batch distances not computed before model evaluation");
  batch.power_dbm.resize(n);
  if (n == 0) return;
  LinkBatchView view;
  view.tx_power_dbm = tx_power_dbm;
  view.tx_pos = tx_pos;
  view.tx_id = tx_id;
  view.n = n;
  view.rx_x = batch.rx_x.data();
  view.rx_y = batch.rx_y.data();
  view.rx_id = batch.rx_id.data();
  view.distance_m = batch.distance_m.data();
  view.out_power_dbm = batch.power_dbm.data();
  model.rx_power_dbm_batch(view);
}

void LinkBudgetKernel::evaluate(const PropagationModel& model,
                                double tx_power_dbm, mobility::Vec2 tx_pos,
                                std::uint32_t tx_id, Batch& batch) {
  compute_distances(batch, tx_pos);
  evaluate_with_distances(model, tx_power_dbm, tx_pos, tx_id, batch);
}

}  // namespace wmn::phy
