#include "traffic/packet_sink.hpp"

namespace wmn::traffic {

PacketSink::PacketSink(sim::Simulator& simulator, routing::AodvAgent& agent,
                       FlowRegistry& registry)
    : sim_(simulator), registry_(registry) {
  agent.set_deliver_callback([this](net::Packet p, net::Address origin) {
    on_deliver(std::move(p), origin);
  });
}

void PacketSink::on_deliver(net::Packet packet, net::Address) {
  const net::Packet::FlowInfo& fi = packet.flow_info();
  if (!fi.valid) return;  // control or untagged traffic
  registry_.record_delivery(fi.flow_id, fi.seq, packet.payload_bytes(),
                            fi.sent_at, sim_.now());
}

}  // namespace wmn::traffic
