#include "exp/timeseries.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace wmn::exp {
namespace {

ScenarioConfig probe_config() {
  ScenarioConfig cfg;
  cfg.n_nodes = 16;
  cfg.area_width_m = 500.0;
  cfg.area_height_m = 500.0;
  cfg.traffic.n_flows = 3;
  cfg.traffic.rate_pps = 6.0;
  cfg.warmup = sim::Time::seconds(2.0);
  cfg.traffic_time = sim::Time::seconds(8.0);
  cfg.seed = 3;
  return cfg;
}

TEST(TimeseriesProbe, SamplesAtConfiguredCadence) {
  Scenario s(probe_config());
  TimeseriesProbe probe(s, sim::Time::seconds(1.0));
  s.run();
  // 12 s total run (2 warmup + 8 traffic + 2 drain), 1 Hz from t=0.
  EXPECT_GE(probe.samples().size(), 12u);
  EXPECT_LE(probe.samples().size(), 14u);
  for (std::size_t i = 1; i < probe.samples().size(); ++i) {
    EXPECT_NEAR(probe.samples()[i].t_s - probe.samples()[i - 1].t_s, 1.0, 1e-9);
  }
}

TEST(TimeseriesProbe, CumulativeCountersAreMonotone) {
  Scenario s(probe_config());
  TimeseriesProbe probe(s, sim::Time::seconds(1.0));
  s.run();
  for (std::size_t i = 1; i < probe.samples().size(); ++i) {
    EXPECT_GE(probe.samples()[i].delivered_cum,
              probe.samples()[i - 1].delivered_cum);
    EXPECT_GE(probe.samples()[i].sent_cum, probe.samples()[i - 1].sent_cum);
    EXPECT_GE(probe.samples()[i].control_tx_cum,
              probe.samples()[i - 1].control_tx_cum);
  }
  // Traffic flowed: final counters nonzero.
  EXPECT_GT(probe.samples().back().sent_cum, 0u);
  EXPECT_GT(probe.samples().back().control_tx_cum, 0u);
}

TEST(TimeseriesProbe, RatiosBounded) {
  Scenario s(probe_config());
  TimeseriesProbe probe(s, sim::Time::seconds(1.0));
  s.run();
  for (const TimeSample& ts : probe.samples()) {
    EXPECT_GE(ts.mean_busy_ratio, 0.0);
    EXPECT_LE(ts.mean_busy_ratio, ts.max_busy_ratio + 1e-12);
    EXPECT_LE(ts.max_busy_ratio, 1.0);
    EXPECT_LE(ts.max_queue_ratio, 1.0);
    EXPECT_GE(ts.mean_nbhd_load, 0.0);
    EXPECT_LE(ts.mean_nbhd_load, 1.0);
  }
}

TEST(TimeseriesProbe, CsvExportRoundTrips) {
  Scenario s(probe_config());
  TimeseriesProbe probe(s, sim::Time::seconds(2.0));
  s.run();
  const std::string path = "timeseries_test_tmp.csv";
  ASSERT_TRUE(probe.save_csv(path));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string header;
  std::getline(f, header);
  EXPECT_NE(header.find("t_s,delivered_cum"), std::string::npos);
  std::size_t lines = 0;
  for (std::string line; std::getline(f, line);) ++lines;
  EXPECT_EQ(lines, probe.samples().size());
  f.close();
  std::remove(path.c_str());
}

TEST(TimeseriesProbe, SamplesAMobileRun) {
  // The probe records the whole run of a mobile mesh.
  ScenarioConfig cfg = probe_config();
  cfg.mobility.max_speed_mps = 5.0;
  Scenario s(cfg);
  TimeseriesProbe probe(s, sim::Time::seconds(1.0));
  s.run();
  EXPECT_GE(probe.samples().size(), 12u);
  EXPECT_GT(probe.samples().back().sent_cum, 0u);
}

}  // namespace
}  // namespace wmn::exp
