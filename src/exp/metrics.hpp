// Network-wide metrics of one simulation run — the quantities the
// paper's figures plot.
//
// WMN_RUN_METRICS below is the only list of them. Each entry is
// X(kind, name, default, group): the struct, exp::fingerprint, the
// per-slot record (exp/journal.cpp) and wmnsim_cli's result table all
// expand it, so a field added there reaches every one of them.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sim/fingerprint.hpp"

namespace wmn::exp {

// Field kinds of the table.
namespace metric_kind {
using u64 = std::uint64_t;
using f64 = double;
using flag = bool;
using vec = std::vector<double>;
}  // namespace metric_kind

// Which part of exp::fingerprint a field joins. A guarded group's value
// is the tag mixed ahead of its fields; kNone fields are never mixed.
enum class MetricGroup : std::uint64_t {
  kCore = 0,     // always mixed, untagged, ahead of every guarded group
  kFault = 1,    // runs under a FaultPlan
  kGateway = 2,  // gateway traffic
  kSession = 3,  // session workload
  kNone = 4,
};

// Fingerprint order: within a group the table order is the mix order,
// and a vector mixes its size before its elements.
#define WMN_RUN_METRICS(X)                                                    \
  /* --- bookkeeping that leads the digest --------------------------- */     \
  X(u64, seed, 0, kCore)                                                      \
  X(f64, sim_event_count, 0.0, kCore)                                         \
  /* --- end-to-end data plane --------------------------------------- */     \
  X(u64, data_sent, 0, kCore) /* application packets offered */               \
  X(u64, data_delivered, 0, kCore) /* reached their destination */            \
  X(f64, pdr, 0.0, kCore) /* delivered / sent */                              \
  X(f64, mean_delay_ms, 0.0, kCore) /* over delivered packets */              \
  X(f64, mean_jitter_ms, 0.0, kCore) /* mean |successive delay diff| */       \
  X(f64, throughput_kbps, 0.0, kCore) /* delivered payload / traffic time */  \
  /* --- control plane (network totals, transmissions) ---------------- */    \
  X(u64, rreq_tx, 0, kCore) /* RREQ broadcasts (originated + forwarded) */    \
  X(u64, rrep_tx, 0, kCore)                                                   \
  X(u64, rerr_tx, 0, kCore)                                                   \
  X(u64, hello_tx, 0, kCore)                                                  \
  X(u64, control_tx, 0, kCore)                                                \
  X(u64, rreq_suppressed, 0, kCore)                                           \
  X(u64, discoveries, 0, kCore)                                               \
  X(u64, discoveries_failed, 0, kCore)                                        \
  X(f64, rreq_per_discovery, 0.0, kNone) /* RREQ tx per discovery */          \
  /* Normalized routing load: control tx per delivered packet; the */         \
  /* on-demand share excludes HELLO. */                                       \
  X(f64, nrl, 0.0, kCore)                                                     \
  X(f64, nrl_on_demand, 0.0, kNone)                                           \
  /* --- MAC / PHY health --------------------------------------------- */    \
  X(u64, mac_queue_drops, 0, kCore)                                           \
  X(u64, mac_retry_drops, 0, kCore)                                           \
  X(u64, mac_retries, 0, kCore)                                               \
  X(u64, phy_collisions, 0, kCore) /* frames locked then clobbered (SINR) */  \
  X(f64, mean_busy_ratio, 0.0, kCore) /* mean of final per-node EWMAs */      \
  /* --- forwarding-load distribution --------------------------------- */    \
  /* Fairness over the *active* forwarding set (nodes that forwarded at */    \
  /* least one data frame); the idle majority would reward protocols */       \
  /* that deliver less. */                                                    \
  X(u64, forwarding_active_nodes, 0, kCore)                                   \
  X(f64, forwarding_jain, 1.0, kCore)                                         \
  X(f64, forwarding_peak_to_mean, 1.0, kCore)                                 \
  /* --- energy -------------------------------------------------------- */   \
  X(f64, total_energy_j, 0.0, kCore) /* network-wide radio energy */          \
  X(f64, mean_node_energy_j, 0.0, kNone)                                      \
  X(f64, energy_mj_per_kbit, 0.0, kCore) /* mJ per delivered payload kbit */  \
  /* --- path properties: 1 + total forwards / total deliveries -------- */   \
  X(f64, avg_path_hops, 0.0, kCore)                                           \
  X(vec, per_node_forwarded, {}, kCore) /* data frames forwarded per node */  \
  /* --- gateway aggregation (kGateway traffic) ------------------------ */   \
  /* Delivered packets per gateway, in gateway discovery order: AODV-BF */    \
  /* collapsing at one hotspot shows as gateway_jain falling toward 1/K. */   \
  X(u64, gateway_count, 0, kGateway)                                          \
  X(vec, per_gateway_delivered, {}, kGateway)                                 \
  X(f64, gateway_jain, 1.0, kGateway)                                         \
  X(f64, gateway_load_variance, 0.0, kGateway)                                \
  /* --- session workload (TrafficSpec::Model::kSessions) ------------- */    \
  /* Rejected: arrivals refused by the per-node concurrency cap; */           \
  /* nonzero means the offered load exceeded what the cap admits. */          \
  X(u64, sessions_started, 0, kSession)                                       \
  X(u64, sessions_completed, 0, kSession)                                     \
  X(u64, sessions_rejected, 0, kSession)                                      \
  /* --- resilience (the scenario ran a FaultPlan) --------------------- */   \
  X(flag, fault_enabled, false, kNone)                                        \
  X(u64, fault_crashes, 0, kFault)                                            \
  X(u64, fault_rejoins, 0, kFault)                                            \
  X(u64, fault_blackouts, 0, kFault)                                          \
  X(f64, fault_downtime_s, 0.0, kFault) /* summed realized node downtime */   \
  X(u64, sent_during_outage, 0, kFault)                                       \
  X(u64, delivered_during_outage, 0, kFault)                                  \
  X(f64, pdr_during_outage, 0.0, kFault) /* over packets sent in windows */   \
  X(f64, pdr_outside_outage, 0.0, kFault)                                     \
  /* The repair and recovery counts are summed on every run. */               \
  X(u64, local_repairs_attempted, 0, kFault)                                  \
  X(u64, local_repairs_succeeded, 0, kFault)                                  \
  X(u64, route_recoveries, 0, kFault)                                         \
  X(f64, route_recovery_mean_ms, 0.0, kFault) /* break -> reinstalled */      \
  X(u64, route_recoveries_abandoned, 0, kFault)                               \
  /* Flows that offered traffic but died for good: nothing arrived, or */     \
  /* deliveries stopped well before the traffic window closed. */             \
  X(u64, flows_stranded, 0, kFault)                                           \
  /* --- host-dependent bookkeeping ------------------------------------ */   \
  X(f64, wall_seconds, 0.0, kNone)                                            \
  /* Invariant violations under core::CheckPolicy::kLogAndCount (always */    \
  /* 0 under kAbort, which terminates instead); nonzero: suspect run. */      \
  X(u64, check_violations, 0, kNone)

struct RunMetrics {
#define WMN_X(kind, name, init, group) metric_kind::kind name = init;
  WMN_RUN_METRICS(WMN_X)
#undef WMN_X
};

// Calls f(name, group, field) for every field of `m`, in table order.
template <typename Metrics, typename F>
void for_each_metric(Metrics& m, F&& f) {
#define WMN_X(kind, name, init, group) \
  f(std::string_view(#name), MetricGroup::group, m.name);
  WMN_RUN_METRICS(WMN_X)
#undef WMN_X
}

// Whether a run produced the group's fields. Core and unmixed fields
// are always present.
[[nodiscard]] inline bool group_present(const RunMetrics& m, MetricGroup g) {
  switch (g) {
    case MetricGroup::kGateway: return m.gateway_count > 0;
    case MetricGroup::kSession:
      return m.sessions_started > 0 || m.sessions_rejected > 0;
    case MetricGroup::kFault: return m.fault_enabled;
    default: return true;
  }
}

// Digest of everything a run produced, for the determinism contract:
// same config + same seed must yield the same digest, bit for bit.
// The core fields, then each present guarded group behind its tag.
// Guarded groups join only when the run produced them, so runs without
// gateways, sessions or faults keep the digest they had before those
// workloads existed. kNone fields (wall clock, violation counter,
// derived ratios) stay out.
[[nodiscard]] inline std::uint64_t fingerprint(const RunMetrics& m) {
  sim::Fingerprint fp;
  const auto mix_group = [&](MetricGroup g) {
    for_each_metric(m, [&](std::string_view, MetricGroup in, const auto& v) {
      using T = std::decay_t<decltype(v)>;
      if (in != g) return;
      if constexpr (std::is_same_v<T, metric_kind::vec>) {
        fp.mix(static_cast<std::uint64_t>(v.size()));
        for (const double x : v) fp.mix(x);
      } else if constexpr (!std::is_same_v<T, metric_kind::flag>) {
        fp.mix(v);
      }
    });
  };
  mix_group(MetricGroup::kCore);
  for (const MetricGroup g :
       {MetricGroup::kGateway, MetricGroup::kSession, MetricGroup::kFault}) {
    if (!group_present(m, g)) continue;
    fp.mix(static_cast<std::uint64_t>(g));
    mix_group(g);
  }
  return fp.digest();
}

}  // namespace wmn::exp
