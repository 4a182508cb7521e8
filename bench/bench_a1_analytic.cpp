// A1 — analytical model vs simulation (extension experiment).
//
// Bianchi-style DCF saturation throughput against the simulator's MAC
// in a single collision domain, swept over station count — the
// model-validation table the source group publishes alongside every
// simulation study.
#include <cmath>
#include <memory>

#include "common.hpp"
#include "mac/dcf_mac.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "stats/dcf_model.hpp"

namespace {

double simulate_saturation_bps(std::uint32_t n, double sim_seconds,
                               std::uint64_t seed) {
  using namespace wmn;
  using mobility::ConstantPositionModel;
  using mobility::Vec2;

  sim::Simulator simr(seed);
  phy::WirelessChannel channel(simr, std::make_unique<phy::LogDistanceModel>());
  net::PacketFactory factory;
  std::vector<std::unique_ptr<ConstantPositionModel>> mob;
  std::vector<std::unique_ptr<phy::WifiPhy>> phys;
  std::vector<std::unique_ptr<mac::DcfMac>> macs;
  std::uint64_t delivered_bytes = 0;

  for (std::uint32_t i = 0; i < n; ++i) {
    const double a = 2.0 * 3.14159265 * i / n;
    mob.push_back(std::make_unique<ConstantPositionModel>(
        Vec2{25.0 * std::cos(a), 25.0 * std::sin(a)}));
    phys.push_back(std::make_unique<phy::WifiPhy>(simr, phy::PhyConfig{}, i,
                                                  mob.back().get()));
    channel.attach(phys.back().get());
    macs.push_back(std::make_unique<mac::DcfMac>(
        simr, mac::MacConfig{}, net::Address(i), *phys.back(), factory));
    macs.back()->set_rx_callback([&delivered_bytes](net::Packet p, net::Address) {
      delivered_bytes += p.payload_bytes();
    });
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    // 250 pkt/s per station: above per-station capacity even for the
    // smallest population, so the queue never drains (true saturation).
    for (int k = 0; k < static_cast<int>(sim_seconds * 250); ++k) {
      simr.schedule_at(sim::Time::millis(k * 4.0), [&, i] {
        macs[i]->enqueue(factory.make(512, simr.now()), net::Address((i + 1) % n));
      });
    }
  }
  simr.run_until(sim::Time::seconds(sim_seconds));
  return static_cast<double>(delivered_bytes) * 8.0 / sim_seconds;
}

}  // namespace

int main() {
  using namespace wmnbench;
  std::cout << "\n=== A1: analytical DCF saturation model vs simulator ===\n"
            << "(single collision domain, saturated 512 B unicast)\n\n";

  stats::Table table({"stations", "model (kb/s)", "sim (kb/s)", "sim/model",
                      "model p_coll", "model tau"});
  for (std::uint32_t n : {3u, 5u, 10u, 15u, 25u}) {
    stats::DcfModelParams params;
    params.n_stations = n;
    const auto model = stats::solve_dcf_saturation(params);
    const double sim_bps = simulate_saturation_bps(n, 15.0, 7);
    table.add_row({std::to_string(n),
                   stats::Table::num(model.throughput_bps / 1e3, 1),
                   stats::Table::num(sim_bps / 1e3, 1),
                   stats::Table::num(sim_bps / model.throughput_bps, 3),
                   stats::Table::num(model.p_collision, 3),
                   stats::Table::num(model.tau, 4)});
  }
  return finish(table, "a1_analytic.csv");
}
