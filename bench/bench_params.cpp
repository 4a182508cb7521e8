// T1 — the simulation parameter table (paper-style "Table 1").
#include <iostream>

#include "common.hpp"

int main() {
  using namespace wmnbench;
  const auto cfg = base_config();

  std::cout << "\n=== T1: simulation parameters (reference configuration) ===\n\n";
  stats::Table t({"parameter", "value"});
  t.add_row({"area", stats::Table::num(cfg.area_width_m, 0) + " x " +
                         stats::Table::num(cfg.area_height_m, 0) + " m"});
  t.add_row({"nodes (reference)", std::to_string(cfg.n_nodes)});
  t.add_row({"placement", "perturbed grid (jitter " +
                              stats::Table::num(cfg.placement_jitter_m, 0) + " m)"});
  t.add_row({"PHY bit rate", stats::Table::num(cfg.phy.bit_rate_bps / 1e6, 0) +
                                 " Mb/s"});
  t.add_row({"TX power", stats::Table::num(cfg.phy.tx_power_dbm, 0) + " dBm"});
  t.add_row({"RX sensitivity", stats::Table::num(cfg.phy.rx_sensitivity_dbm, 0) +
                                   " dBm (~250 m range)"});
  t.add_row({"CCA threshold", stats::Table::num(cfg.phy.cca_threshold_dbm, 0) +
                                  " dBm (~480 m carrier sense)"});
  t.add_row({"capture (SINR) threshold",
             stats::Table::num(cfg.phy.sinr_threshold_db, 0) + " dB"});
  t.add_row({"propagation", "log-distance, exponent 2.5"});
  t.add_row({"MAC", "802.11 DCF (CSMA/CA, no RTS/CTS)"});
  t.add_row({"interface queue", std::to_string(cfg.mac.queue_capacity) + " frames"});
  t.add_row({"MAC retry limit", std::to_string(cfg.mac.retry_limit)});
  t.add_row({"traffic", std::to_string(cfg.traffic.n_flows) + " CBR flows, " +
                            stats::Table::num(cfg.traffic.rate_pps, 0) +
                            " pkt/s, " + std::to_string(cfg.traffic.packet_bytes) +
                            " B"});
  t.add_row({"HELLO interval", "1 s (+-25% jitter)"});
  t.add_row({"warmup / traffic time",
             stats::Table::num(cfg.warmup.to_seconds(), 0) + " s / " +
                 stats::Table::num(cfg.traffic_time.to_seconds(), 0) + " s"});
  t.add_row({"gossip p (AODV-GOSSIP)", "0.65"});
  t.add_row({"counter threshold (AODV-CB)", "3"});
  t.add_row({"CLNLR p_min / p_max", "0.35 / 1.0"});
  t.add_row({"CLNLR load / density weights", "0.8 / 0.25 (gate 0.15)"});
  t.add_row({"CLNLR reply window / hysteresis", "50 ms / 15%"});
  return finish(t, "t1_params.csv");
}
