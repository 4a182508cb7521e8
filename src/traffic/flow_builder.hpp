// Flow-set construction for experiments.
//
// random_pairs: the standard evaluation workload — n distinct
// (src, dst) pairs drawn uniformly with src != dst (and no duplicate
// pairs), matching the "randomly chosen CBR connections" setup of the
// source papers.
//
// gateway_flows: WMN backhaul workload — every flow targets its
// source's nearest gateway, concentrating load near the gateways; the
// workload behind the load-balance (F8) and gateway-hotspot (F11)
// experiments.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "mobility/vec2.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "traffic/rate_envelope.hpp"

namespace wmn::traffic {

using NodePair = std::pair<std::uint32_t, std::uint32_t>;

[[nodiscard]] std::vector<NodePair> random_pairs(std::size_t n_flows,
                                                 std::uint32_t n_nodes,
                                                 sim::RngStream& rng);

struct GatewayFlows {
  std::vector<std::uint32_t> gateways;  // distinct, in anchor order
  std::vector<NodePair> pairs;          // (source, its nearest gateway)
};

// The gateways are the nodes nearest to `n_gateways` anchor points
// spread evenly along the diagonal of an `area`-sized field (a node
// nearest to two anchors counts once), so route diversity exists as in
// deployed meshes. Each of the `n_flows` flows starts at a distinct
// non-gateway node drawn uniformly from `rng` and ends at the gateway
// nearest to it. `positions` holds every node's position, by index.
[[nodiscard]] GatewayFlows gateway_flows(
    std::size_t n_flows, std::size_t n_gateways,
    const std::vector<mobility::Vec2>& positions, mobility::Vec2 area,
    sim::RngStream& rng);

// Seeded flow-arrival process: `n` non-decreasing start offsets drawn
// as a Poisson process with the given mean inter-arrival gap (flow 0
// starts at offset 0 — somebody is always already talking when the
// window opens). Offsets exceeding `horizon` are clamped to it, so a
// short traffic window still starts every flow. The scenario adds
// these to the traffic start time when staggered arrivals are enabled:
// flows join the mesh over time instead of all at once.
[[nodiscard]] std::vector<sim::Time> arrival_offsets(std::size_t n,
                                                     sim::Time mean_gap,
                                                     sim::Time horizon,
                                                     sim::RngStream& rng);

// Envelope-aware variant: the instantaneous arrival rate at offset t is
// (1 / mean_gap) * envelope(t) with the envelope's clock starting at
// offset 0, so a flash-crowd spike compresses the gaps drawn inside it
// (frozen-rate scheme, see traffic/rate_envelope.hpp). With an
// inactive envelope the draw sequence — and every offset — is
// bit-identical to the overload above.
[[nodiscard]] std::vector<sim::Time> arrival_offsets(
    std::size_t n, sim::Time mean_gap, sim::Time horizon, sim::RngStream& rng,
    const RateEnvelope& envelope);

}  // namespace wmn::traffic
