// Destination-side application: receives delivered packets from the
// routing agent and records per-flow end-to-end metrics.
#pragma once

#include "routing/aodv.hpp"
#include "traffic/flow_registry.hpp"

namespace wmn::traffic {

class PacketSink {
 public:
  PacketSink(sim::Simulator& simulator, routing::AodvAgent& agent,
             FlowRegistry& registry);

  PacketSink(const PacketSink&) = delete;
  PacketSink& operator=(const PacketSink&) = delete;

 private:
  void on_deliver(net::Packet packet, net::Address origin);

  sim::Simulator& sim_;
  FlowRegistry& registry_;
};

}  // namespace wmn::traffic
