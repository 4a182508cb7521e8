#include "mac/load_monitor.hpp"

#include <algorithm>

#include "phy/wifi_phy.hpp"

namespace wmn::mac {

LoadMonitor::LoadMonitor(sim::Simulator& simulator, const LoadMonitorConfig& cfg,
                         phy::WifiPhy& phy)
    : sim_(simulator), cfg_(cfg), phy_(phy) {
  last_sample_time_ = sim_.now();
  last_busy_total_ = phy_.cumulative_busy_time();
  timer_ = sim_.schedule(cfg_.window, [this] { sample(); });
}

LoadMonitor::~LoadMonitor() { sim_.cancel(timer_); }

void LoadMonitor::count_tx(bool is_retry) {
  ++window_tx_;
  if (is_retry) ++window_retries_;
}

void LoadMonitor::sample() {
  const sim::Time now = sim_.now();
  const sim::Time busy_total = phy_.cumulative_busy_time();
  const sim::Time wall = now - last_sample_time_;

  if (wall > sim::Time::zero()) {
    const double busy = std::clamp((busy_total - last_busy_total_) / wall, 0.0, 1.0);
    busy_ewma_ = cfg_.ewma_alpha * busy + (1.0 - cfg_.ewma_alpha) * busy_ewma_;

    const double retry =
        window_tx_ == 0 ? 0.0
                        : static_cast<double>(window_retries_) /
                              static_cast<double>(window_tx_);
    retry_ewma_ = cfg_.ewma_alpha * retry + (1.0 - cfg_.ewma_alpha) * retry_ewma_;
  }

  last_sample_time_ = now;
  last_busy_total_ = busy_total;
  window_tx_ = 0;
  window_retries_ = 0;
  timer_ = sim_.schedule(cfg_.window, [this] { sample(); });
}

}  // namespace wmn::mac
