#include "exp/timeseries.hpp"

#include <algorithm>
#include <fstream>

namespace wmn::exp {

TimeseriesProbe::TimeseriesProbe(Scenario& scenario, sim::Time interval,
                                 sim::Time start)
    : scenario_(scenario), interval_(interval) {
  scenario_.simulator().schedule_at(start, [this] { sample(); });
}

void TimeseriesProbe::sample() {
  TimeSample s;
  s.t_s = scenario_.simulator().now().to_seconds();
  s.delivered_cum = scenario_.flows().total_delivered();
  s.sent_cum = scenario_.flows().total_sent();

  const std::size_t n = scenario_.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    const double busy = scenario_.node_mac(i).busy_ratio();
    const double queue = scenario_.node_mac(i).queue_ratio();
    s.mean_busy_ratio += busy;
    s.max_busy_ratio = std::max(s.max_busy_ratio, busy);
    s.mean_queue_ratio += queue;
    s.max_queue_ratio = std::max(s.max_queue_ratio, queue);
    s.mean_nbhd_load += scenario_.agent(i).neighbourhood_load();

    s.control_tx_cum += scenario_.agent(i).counters().control_tx();
  }
  const double dn = static_cast<double>(n);
  s.mean_busy_ratio /= dn;
  s.mean_queue_ratio /= dn;
  s.mean_nbhd_load /= dn;
  samples_.push_back(s);

  scenario_.simulator().schedule(interval_, [this] { sample(); });
}

bool TimeseriesProbe::save_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "t_s,delivered_cum,sent_cum,mean_busy,max_busy,mean_queue,max_queue,"
       "mean_nbhd_load,control_tx_cum\n";
  for (const TimeSample& s : samples_) {
    f << s.t_s << ',' << s.delivered_cum << ',' << s.sent_cum << ','
      << s.mean_busy_ratio << ',' << s.max_busy_ratio << ','
      << s.mean_queue_ratio << ',' << s.max_queue_ratio << ','
      << s.mean_nbhd_load << ',' << s.control_tx_cum << '\n';
  }
  return static_cast<bool>(f);
}

}  // namespace wmn::exp
