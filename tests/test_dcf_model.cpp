// Analytical DCF model: internal consistency and validation against
// the simulator's MAC in a saturated single collision domain.
#include "stats/dcf_model.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "mac/dcf_mac.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"

namespace wmn::stats {
namespace {

TEST(DcfModel, ConvergesAndIsPhysical) {
  for (std::uint32_t n : {2u, 5u, 10u, 20u, 50u}) {
    DcfModelParams params;
    params.n_stations = n;
    const DcfModelResult r = solve_dcf_saturation(params);
    EXPECT_GT(r.tau, 0.0);
    EXPECT_LT(r.tau, 1.0);
    EXPECT_GE(r.p_collision, 0.0);
    EXPECT_LT(r.p_collision, 1.0);
    EXPECT_GT(r.throughput_bps, 0.0);
    EXPECT_LT(r.throughput_bps, params.bit_rate_bps);
    EXPECT_LT(r.iterations, 10000);
  }
}

TEST(DcfModel, CollisionsIncreaseWithStations) {
  double prev_p = 0.0;
  for (std::uint32_t n : {2u, 4u, 8u, 16u, 32u}) {
    DcfModelParams params;
    params.n_stations = n;
    const DcfModelResult r = solve_dcf_saturation(params);
    EXPECT_GT(r.p_collision, prev_p);
    prev_p = r.p_collision;
  }
}

TEST(DcfModel, ThroughputDecreasesAtHighContention) {
  DcfModelParams few;
  few.n_stations = 5;
  DcfModelParams many;
  many.n_stations = 50;
  EXPECT_GT(solve_dcf_saturation(few).throughput_bps,
            solve_dcf_saturation(many).throughput_bps);
}

TEST(DcfModel, LargerPayloadIsMoreEfficient) {
  DcfModelParams small;
  small.payload_bytes = 128;
  DcfModelParams large;
  large.payload_bytes = 1024;
  EXPECT_GT(solve_dcf_saturation(large).throughput_bps,
            solve_dcf_saturation(small).throughput_bps);
}

// Validation: n saturated stations in one collision domain, simulator
// vs model. Every station sends to one receiver at the centre of a
// 25 m circle, so all frames reach it at the same power and no
// collision can be captured: two frames that overlap there are both
// lost, as the model assumes. (Sending to a ring neighbour instead
// measures spatial reuse: neighbours are 6 m apart and interferers up
// to 50 m, so the 10 dB SINR threshold lets far pairs decode at once.)
class DcfModelValidation : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DcfModelValidation, SimulatorMatchesModel) {
  using mobility::ConstantPositionModel;
  using mobility::Vec2;

  const std::uint32_t n = GetParam();
  sim::Simulator simr(7);
  phy::WirelessChannel channel(simr,
                               std::make_unique<phy::LogDistanceModel>());
  net::PacketFactory factory;
  std::vector<std::unique_ptr<ConstantPositionModel>> mob;
  std::vector<std::unique_ptr<phy::WifiPhy>> phys;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::uint64_t delivered_bytes = 0;

  // Stations 0..n-1 on the circle, the receiver (station n) at its
  // centre: everyone hears everyone.
  for (std::uint32_t i = 0; i <= n; ++i) {
    const double a = 2.0 * 3.14159265 * i / n;
    const Vec2 at = i == n ? Vec2{0.0, 0.0} : Vec2{25.0 * std::cos(a), 25.0 * std::sin(a)};
    mob.push_back(std::make_unique<ConstantPositionModel>(at));
    phys.push_back(
        std::make_unique<phy::WifiPhy>(simr, phy::PhyConfig{}, i, mob.back().get()));
    channel.attach(phys.back().get());
    macs.push_back(std::make_unique<mac::DcfMac>(simr, mac::MacConfig{},
                                                 net::Address(i), *phys.back(),
                                                 factory));
  }
  macs[n]->set_rx_callback([&delivered_bytes](net::Packet p, net::Address) {
    delivered_bytes += p.payload_bytes();
  });
  // Saturate every station toward the receiver.
  const double sim_seconds = 10.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    // 250 pkt/s per station: above per-station capacity even for the
    // smallest population, so the queue never drains (true saturation).
    for (int k = 0; k < static_cast<int>(sim_seconds * 250); ++k) {
      simr.schedule_at(sim::Time::millis(k * 4.0), [&, i] {
        macs[i]->enqueue(factory.make(512, simr.now()), net::Address(n));
      });
    }
  }
  simr.run_until(sim::Time::seconds(sim_seconds));

  const double sim_bps = static_cast<double>(delivered_bytes) * 8.0 / sim_seconds;
  DcfModelParams params;
  params.n_stations = n;
  const double model_bps = solve_dcf_saturation(params).throughput_bps;
  // At 3 stations collisions are rare and the model's decoupling
  // approximation is nearly exact (0.998-1.004 over seeds 1-6): the
  // tighter band there is what sees the DIFS, only ~2% of a 512-byte
  // frame's cycle at 2 Mb/s.
  const double band = n <= 3 ? 0.01 : 0.05;
  EXPECT_NEAR(sim_bps / model_bps, 1.0, band)
      << "sim=" << sim_bps << " model=" << model_bps;
}

INSTANTIATE_TEST_SUITE_P(StationCounts, DcfModelValidation,
                         ::testing::Values(3, 6, 10, 25));

}  // namespace
}  // namespace wmn::stats
