#include "exp/journal.hpp"

#include <cinttypes>
#include <cstdio>
#include <string_view>
#include <vector>

#include "exp/scenario.hpp"
#include "sim/fingerprint.hpp"

namespace wmn::exp {

namespace {

// ---------------------------------------------------------------------
// Config digest
// ---------------------------------------------------------------------

void mix_time(sim::Fingerprint& fp, sim::Time t) {
  fp.mix(static_cast<std::uint64_t>(t.ns()));
}

void mix_protocol_options(sim::Fingerprint& fp,
                          const core::ProtocolOptions& o) {
  fp.mix(o.gossip_p);
  fp.mix(std::uint64_t{o.counter_threshold});

  fp.mix(o.clnlr.p_min);
  fp.mix(o.clnlr.p_max);
  fp.mix(o.clnlr.load_weight);
  fp.mix(o.clnlr.density_weight);
  fp.mix(o.clnlr.density_gate);
  fp.mix(o.clnlr.degree_ref);
  fp.mix(std::uint64_t{o.clnlr.sparse_degree});
  fp.mix(std::uint64_t{o.clnlr.always_forward_hops});
  mix_time(fp, o.clnlr.base_jitter);
  fp.mix(o.clnlr.load_jitter_factor);

  fp.mix(o.vap.p_min);
  fp.mix(o.vap.v_ref_mps);
  fp.mix(std::uint64_t{o.vap.sparse_degree});
  fp.mix(std::uint64_t{o.vap.always_forward_hops});
  mix_time(fp, o.vap.max_jitter);

  fp.mix(o.load_index.weight_queue);
  fp.mix(o.load_index.weight_busy);
  fp.mix(o.load_index.weight_retry);
  mix_time(fp, o.load_index.queue_sample_interval);
  fp.mix(o.load_index.queue_ewma_alpha);

  const routing::AodvConfig& a = o.aodv;
  mix_time(fp, a.hello_interval);
  fp.mix(std::uint64_t{a.allowed_hello_loss});
  mix_time(fp, a.active_route_timeout);
  mix_time(fp, a.rreq_cache_timeout);
  fp.mix(std::uint64_t{a.rreq_retries});
  mix_time(fp, a.net_traversal_time);
  fp.mix(std::uint64_t{a.rreq_ttl});
  fp.mix(static_cast<std::uint64_t>(a.expanding_ring ? 1 : 0));
  fp.mix(std::uint64_t{a.ers_ttl_start});
  fp.mix(std::uint64_t{a.ers_ttl_increment});
  fp.mix(std::uint64_t{a.ers_ttl_threshold});
  fp.mix(std::uint64_t{a.data_ttl});
  fp.mix(static_cast<std::uint64_t>(a.buffer_capacity));
  mix_time(fp, a.buffer_timeout);
  mix_time(fp, a.housekeeping_interval);
  mix_time(fp, a.dead_route_retention);
  fp.mix(static_cast<std::uint64_t>(a.use_load_metric ? 1 : 0));
  fp.mix(static_cast<std::uint64_t>(a.hello_carries_load ? 1 : 0));
  fp.mix(a.nbhd_self_weight);
  fp.mix(static_cast<std::uint64_t>(a.graceful_degradation ? 1 : 0));
  fp.mix(std::uint64_t{a.local_repair_max_dest_hops});
  fp.mix(std::uint64_t{a.local_repair_ttl_slack});
  mix_time(fp, a.blacklist_timeout);
}

void mix_traffic(sim::Fingerprint& fp, const TrafficSpec& t) {
  fp.mix(static_cast<std::uint64_t>(t.pattern));
  fp.mix(static_cast<std::uint64_t>(t.model));
  fp.mix(static_cast<std::uint64_t>(t.n_flows));
  fp.mix(t.rate_pps);
  fp.mix(std::uint64_t{t.packet_bytes});
  fp.mix(static_cast<std::uint64_t>(t.n_gateways));
  fp.mix(t.mean_on_s);
  fp.mix(t.mean_off_s);
  fp.mix(t.pareto_shape);
  fp.mix(std::uint64_t{t.users_per_node});
  fp.mix(t.session_rate_per_user_per_s);
  fp.mix(t.session_rate_pps);
  fp.mix(t.mean_session_pkts);
  fp.mix(std::uint64_t{t.max_active_sessions});
  fp.mix(t.mean_arrival_gap_s);
  fp.mix(static_cast<std::uint64_t>(t.rate_envelope.size()));
  for (const auto& [at_s, mult] : t.rate_envelope) {
    fp.mix(at_s);
    fp.mix(mult);
  }
}

void mix_fault(sim::Fingerprint& fp, const fault::FaultPlan& f) {
  fp.mix(static_cast<std::uint64_t>(f.outages.size()));
  for (const fault::NodeOutage& o : f.outages) {
    fp.mix(std::uint64_t{o.node});
    mix_time(fp, o.down_at);
    mix_time(fp, o.up_at);
  }
  fp.mix(static_cast<std::uint64_t>(f.blackouts.size()));
  for (const fault::LinkBlackout& b : f.blackouts) {
    fp.mix(std::uint64_t{b.a});
    fp.mix(std::uint64_t{b.b});
    mix_time(fp, b.from);
    mix_time(fp, b.to);
    fp.mix(b.attenuation_db);
    fp.mix(static_cast<std::uint64_t>(b.bidirectional ? 1 : 0));
  }
  fp.mix(f.churn.rate_per_s);
  mix_time(fp, f.churn.mean_downtime);
  mix_time(fp, f.churn.start);
  mix_time(fp, f.churn.stop);
}

// ---------------------------------------------------------------------
// Serialization primitives
// ---------------------------------------------------------------------

void append_value(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_hex64(std::string& out, std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "\"%016" PRIx64 "\"", v);
  out += buf;
}

// Hexfloat round-trips every finite double bit-exactly through strtod,
// so a reader recovers the exact metric the run computed.
void append_value(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "\"%a\"", v);
  out += buf;
}

void append_value(std::string& out, bool v) {
  append_value(out, std::uint64_t{v ? 1U : 0U});
}
void append_value(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    append_value(out, v[i]);
  }
  out += ']';
}

}  // namespace

std::uint64_t config_digest(const ScenarioConfig& cfg) {
  sim::Fingerprint fp;
  fp.mix(std::uint64_t{0xC0F1'6D16'0000'0000ULL});  // domain tag
  fp.mix(std::uint64_t{kJournalVersion});

  fp.mix(static_cast<std::uint64_t>(cfg.n_nodes));
  fp.mix(cfg.area_width_m);
  fp.mix(cfg.area_height_m);
  fp.mix(static_cast<std::uint64_t>(cfg.placement));
  fp.mix(cfg.placement_jitter_m);

  fp.mix(cfg.mobility.min_speed_mps);
  fp.mix(cfg.mobility.max_speed_mps);
  mix_time(fp, cfg.mobility.pause);

  mix_traffic(fp, cfg.traffic);

  fp.mix(static_cast<std::uint64_t>(cfg.protocol));
  mix_protocol_options(fp, cfg.options);

  const phy::PhyConfig& p = cfg.phy;
  fp.mix(p.tx_power_dbm);
  fp.mix(p.bit_rate_bps);
  mix_time(fp, p.preamble);
  fp.mix(p.noise_floor_dbm);
  fp.mix(p.rx_sensitivity_dbm);
  fp.mix(p.cca_threshold_dbm);
  fp.mix(p.detection_floor_dbm);
  fp.mix(p.sinr_threshold_db);
  fp.mix(p.power_tx_w);
  fp.mix(p.power_rx_w);
  fp.mix(p.power_idle_w);

  const mac::MacConfig& m = cfg.mac;
  mix_time(fp, m.slot);
  mix_time(fp, m.sifs);
  fp.mix(std::uint64_t{m.cw_min});
  fp.mix(std::uint64_t{m.cw_max});
  fp.mix(std::uint64_t{m.retry_limit});
  fp.mix(static_cast<std::uint64_t>(m.queue_capacity));
  mix_time(fp, m.ack_timeout_slack);
  fp.mix(std::uint64_t{m.rts_threshold_bytes});
  mix_time(fp, m.cts_timeout_slack);

  fp.mix(cfg.shadowing_sigma_db);
  mix_fault(fp, cfg.fault);

  mix_time(fp, cfg.warmup);
  mix_time(fp, cfg.traffic_time);
  mix_time(fp, cfg.drain);
  fp.mix(cfg.seed);
  fp.mix(cfg.event_budget);
  fp.mix(static_cast<std::uint64_t>(cfg.spatial_index ? 1 : 0));
  return fp.digest();
}

std::string journal_line(const JournalRecord& rec) {
  std::string out;
  out.reserve(1024);
  out += "{\"v\":";
  append_value(out, static_cast<std::uint64_t>(kJournalVersion));
  out += ",\"cell\":";
  append_value(out, rec.cell);
  out += ",\"rep\":";
  append_value(out, rec.rep);
  out += ",\"cfg\":";
  append_hex64(out, rec.cfg_digest);
  out += ",\"fp\":";
  append_hex64(out, rec.fingerprint);

  for_each_metric(rec.metrics,
                  [&out](std::string_view name, MetricGroup, const auto& v) {
                    out += ",\"";
                    out += name;
                    out += "\":";
                    append_value(out, v);
                  });
  out += '}';
  return out;
}

}  // namespace wmn::exp
