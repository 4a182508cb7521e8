#include "phy/link_budget_kernel.hpp"

namespace wmn::phy {

void LinkBudgetKernel::evaluate(const PropagationModel& model,
                                double tx_power_dbm, mobility::Vec2 tx_pos,
                                std::uint32_t tx_id, Batch& batch) {
  const std::size_t n = batch.size();
  batch.distance_m.resize(n);
  batch.power_dbm.resize(n);
  if (n == 0) return;
  // The distance pass. The loop body is exactly link_distance_m(); kept
  // branch-free so GCC's -O2 vectoriser can turn it into sqrtpd/maxpd
  // without changing the IEEE semantics (no -ffast-math anywhere in
  // this tree).
  const double* rx_x = batch.rx_x.data();
  const double* rx_y = batch.rx_y.data();
  double* dist = batch.distance_m.data();
  for (std::size_t i = 0; i < n; ++i) {
    dist[i] = link_distance_m(tx_pos, mobility::Vec2{rx_x[i], rx_y[i]});
  }
  LinkBatchView view;
  view.tx_power_dbm = tx_power_dbm;
  view.tx_pos = tx_pos;
  view.tx_id = tx_id;
  view.n = n;
  view.rx_x = rx_x;
  view.rx_y = rx_y;
  view.rx_id = batch.rx_id.data();
  view.distance_m = dist;
  view.out_power_dbm = batch.power_dbm.data();
  model.rx_power_dbm_batch(view);
}

}  // namespace wmn::phy
