#include "traffic/flow_builder.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "core/check.hpp"

namespace wmn::traffic {

std::vector<NodePair> random_pairs(std::size_t n_flows, std::uint32_t n_nodes,
                                   sim::RngStream& rng) {
  WMN_CHECK_GE(n_nodes, 2u, "flows need at least two nodes");
  std::vector<NodePair> out;
  std::set<NodePair> used;
  out.reserve(n_flows);
  // With n_flows << n_nodes^2 rejection terminates fast; the cap keeps
  // pathological parameterizations from spinning.
  std::size_t attempts = 0;
  const std::size_t max_attempts = n_flows * 1000 + 1000;
  while (out.size() < n_flows && attempts++ < max_attempts) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_u64(0, n_nodes - 1));
    const auto b = static_cast<std::uint32_t>(rng.uniform_u64(0, n_nodes - 1));
    if (a == b) continue;
    if (!used.insert({a, b}).second) continue;
    out.push_back({a, b});
  }
  WMN_CHECK_EQ(out.size(), n_flows, "could not build requested flow count");
  return out;
}

GatewayFlows gateway_flows(std::size_t n_flows, std::size_t n_gateways,
                           const std::vector<mobility::Vec2>& positions,
                           mobility::Vec2 area, sim::RngStream& rng) {
  const auto n_nodes = static_cast<std::uint32_t>(positions.size());
  WMN_CHECK_GE(n_nodes, 2u, "flows need at least two nodes");
  // The candidate nearest to `target`; the first one wins a tie.
  auto nearest = [&](mobility::Vec2 target,
                     const std::vector<std::uint32_t>& candidates) {
    std::uint32_t best = candidates.front();
    double best_d = std::numeric_limits<double>::infinity();
    for (const std::uint32_t c : candidates) {
      const double d = positions[c].distance_to(target);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    return best;
  };

  GatewayFlows out;
  std::vector<std::uint32_t> all(n_nodes);
  std::iota(all.begin(), all.end(), 0u);
  const std::size_t k = std::max<std::size_t>(n_gateways, 1);
  for (std::size_t g = 0; g < k; ++g) {
    const double f =
        (static_cast<double>(g) + 1.0) / (static_cast<double>(k) + 1.0);
    const std::uint32_t gw = nearest(f * area, all);
    if (std::find(out.gateways.begin(), out.gateways.end(), gw) ==
        out.gateways.end()) {
      out.gateways.push_back(gw);
    }
  }

  std::set<std::uint32_t> used(out.gateways.begin(), out.gateways.end());
  out.pairs.reserve(n_flows);
  std::size_t attempts = 0;
  const std::size_t max_attempts = n_flows * 1000 + 1000;
  while (out.pairs.size() < n_flows && attempts++ < max_attempts) {
    const auto src = static_cast<std::uint32_t>(rng.uniform_u64(0, n_nodes - 1));
    if (!used.insert(src).second) continue;
    out.pairs.push_back({src, nearest(positions[src], out.gateways)});
  }
  WMN_CHECK_EQ(out.pairs.size(), n_flows, "could not build requested flow count");
  return out;
}

std::vector<sim::Time> arrival_offsets(std::size_t n, sim::Time mean_gap,
                                       sim::Time horizon,
                                       sim::RngStream& rng) {
  return arrival_offsets(n, mean_gap, horizon, rng, RateEnvelope{});
}

std::vector<sim::Time> arrival_offsets(std::size_t n, sim::Time mean_gap,
                                       sim::Time horizon, sim::RngStream& rng,
                                       const RateEnvelope& envelope) {
  WMN_CHECK_GT(mean_gap.ns(), std::int64_t{0},
               "arrival gap must be positive");
  std::vector<sim::Time> out;
  out.reserve(n);
  sim::Time at = sim::Time::zero();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::min(at, horizon));
    if (envelope.active()) {
      // Frozen-rate: the envelope value at the current offset shapes
      // this gap. One draw per flow either way.
      const double mult = envelope.multiplier_at(at.to_seconds());
      at += sim::Time::seconds(rng.exponential(mean_gap.to_seconds() / mult));
    } else {
      at += sim::Time::seconds(rng.exponential(mean_gap.to_seconds()));
    }
  }
  return out;
}

}  // namespace wmn::traffic
