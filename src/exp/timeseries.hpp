// Time-series probe: samples network-wide state at a fixed cadence
// during a run, for time-resolved plots (congestion onset, recovery
// after mobility events) and for exporting simulation traces.
//
// Attach before Scenario::run(); read or export after.
#pragma once

#include <string>
#include <vector>

#include "exp/scenario.hpp"

namespace wmn::exp {

struct TimeSample {
  double t_s = 0.0;
  std::uint64_t delivered_cum = 0;   // packets delivered so far
  std::uint64_t sent_cum = 0;        // packets offered so far
  double mean_busy_ratio = 0.0;      // mean over nodes
  double max_busy_ratio = 0.0;
  double mean_queue_ratio = 0.0;
  double max_queue_ratio = 0.0;
  double mean_nbhd_load = 0.0;       // mean neighbourhood load index
  std::uint64_t control_tx_cum = 0;  // control transmissions so far
};

class TimeseriesProbe {
 public:
  // Samples every `interval` from `start` until the simulation ends.
  TimeseriesProbe(Scenario& scenario, sim::Time interval,
                  sim::Time start = sim::Time::zero());

  TimeseriesProbe(const TimeseriesProbe&) = delete;
  TimeseriesProbe& operator=(const TimeseriesProbe&) = delete;

  [[nodiscard]] const std::vector<TimeSample>& samples() const {
    return samples_;
  }

  // Export as CSV; returns false on I/O failure.
  bool save_csv(const std::string& path) const;

 private:
  void sample();

  Scenario& scenario_;
  sim::Time interval_;
  std::vector<TimeSample> samples_;
};

}  // namespace wmn::exp
