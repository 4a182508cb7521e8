// A1 — analytical model vs simulation (extension experiment).
//
// Bianchi-style DCF saturation throughput against the simulator's MAC,
// swept over station count — the model-validation table the source
// group publishes alongside every simulation study. The model table
// puts n stations on a 25 m circle sending to one receiver at its
// centre: every frame reaches it at the same power, so two overlapping
// frames are both lost, as in the model's single collision domain
// (`DcfModelValidation` gates the same geometry). A second table sends
// station i to its ring neighbour i+1 instead. That measures spatial
// reuse, not the DCF: neighbours are ~6 m apart and interferers up to
// 50 m, so the 10 dB SINR threshold lets far pairs decode at once.
#include <cmath>
#include <memory>

#include "common.hpp"
#include "mac/dcf_mac.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "stats/dcf_model.hpp"

namespace {

// Saturation throughput of n stations on a 25 m circle, each sending
// to the receiver at the centre or, with `ring`, to its ring neighbour.
double simulate_saturation_bps(std::uint32_t n, bool ring, double sim_seconds,
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

  // Stations 0..n-1 on the circle; station n, the centre receiver, only
  // without `ring`.
  const std::uint32_t radios = ring ? n : n + 1;
  for (std::uint32_t i = 0; i < radios; ++i) {
    const double a = 2.0 * 3.14159265 * i / n;
    const Vec2 at = i == n ? Vec2{0.0, 0.0}
                           : Vec2{25.0 * std::cos(a), 25.0 * std::sin(a)};
    mob.push_back(std::make_unique<ConstantPositionModel>(at));
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
    // 500 pkt/s per station: above a lone station's capacity (about
    // 340 frames/s), so the queue never drains (true saturation).
    const net::Address to(ring ? (i + 1) % n : n);
    for (int k = 0; k < static_cast<int>(sim_seconds * 500); ++k) {
      simr.schedule_at(sim::Time::millis(k * 2.0), [&, i, to] {
        macs[i]->enqueue(factory.make(512, simr.now()), to);
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
            << "(single collision domain: n stations on a 25 m circle send "
               "saturated 512 B unicast to a receiver at its centre)\n\n";

  stats::Table table({"stations", "model (kb/s)", "sim (kb/s)", "sim/model",
                      "model p_coll", "model tau"});
  stats::Table reuse({"stations", "model (kb/s)", "ring sim (kb/s)",
                      "sim/model"});
  for (std::uint32_t n : {1u, 3u, 5u, 10u, 15u, 25u}) {
    stats::DcfModelParams params;
    params.n_stations = n;
    const auto model = stats::solve_dcf_saturation(params);
    const double sim_bps = simulate_saturation_bps(n, false, 15.0, 7);
    table.add_row({std::to_string(n),
                   stats::Table::num(model.throughput_bps / 1e3, 1),
                   stats::Table::num(sim_bps / 1e3, 1),
                   stats::Table::num(sim_bps / model.throughput_bps, 3),
                   stats::Table::num(model.p_collision, 3),
                   stats::Table::num(model.tau, 4)});
    if (n < 3) continue;  // a ring needs three stations
    const double ring_bps = simulate_saturation_bps(n, true, 15.0, 7);
    reuse.add_row({std::to_string(n),
                   stats::Table::num(model.throughput_bps / 1e3, 1),
                   stats::Table::num(ring_bps / 1e3, 1),
                   stats::Table::num(ring_bps / model.throughput_bps, 3)});
  }
  const int rc = finish(table, "a1_analytic.csv");
  std::cout << "\n=== A1 ring: spatial reuse, not one collision domain ===\n"
            << "(station i sends to ring neighbour i+1; far pairs decode at "
               "once)\n\n";
  return rc | finish(reuse, "a1_spatial_reuse.csv");
}
