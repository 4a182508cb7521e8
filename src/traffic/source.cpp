#include "traffic/source.hpp"

#include "core/check.hpp"

namespace wmn::traffic {

namespace {
constexpr std::uint64_t kCbrStreamSalt = 0xCB20'0000'0000'0000ULL;
constexpr std::uint64_t kExponentialOnOffStreamSalt = 0x0F0F'0000'0000'0000ULL;
constexpr std::uint64_t kParetoOnOffStreamSalt = 0x4EA7'7A11'0000'0000ULL;
}  // namespace

Source::Source(sim::Simulator& simulator, const FlowConfig& flow,
               std::uint64_t salt, routing::AodvAgent& agent,
               net::PacketFactory& factory, FlowRegistry& registry)
    : sim_(simulator),
      flow_(flow),
      rng_(simulator.make_stream(salt ^ flow.flow_id)),
      agent_(agent),
      factory_(factory),
      registry_(registry) {
  registry_.register_flow(flow_.flow_id, agent_.address(), flow_.dest);
}

Source::~Source() { sim_.cancel(timer_); }

void Source::send_packet() {
  const sim::Time now = sim_.now();
  net::Packet pkt = factory_.make(flow_.packet_bytes, now);
  pkt.set_flow_info(net::Packet::FlowInfo{flow_.flow_id, ++seq_, now, true});
  registry_.record_sent(flow_.flow_id, flow_.packet_bytes, now);
  agent_.send(std::move(pkt), flow_.dest);
}

CbrSource::CbrSource(sim::Simulator& simulator, const CbrConfig& cfg,
                     routing::AodvAgent& agent, net::PacketFactory& factory,
                     FlowRegistry& registry)
    : Source(simulator, cfg, kCbrStreamSalt, agent, factory, registry),
      rate_pps_(cfg.rate_pps),
      base_(cfg.start) {
  WMN_CHECK_GT(rate_pps_, 0.0, "CBR rate must be positive");
  if (cfg.randomize_start_phase) {
    base_ += sim::Time::seconds(rng_.uniform01() / rate_pps_);
  }
  arm(base_, [this] { emit(); });
}

void CbrSource::emit() {
  send_packet();
  arm(paced(base_, packets_sent(), rate_pps_), [this] { emit(); });
}

OnOffSource::OnOffSource(sim::Simulator& simulator, const OnOffConfig& cfg,
                         routing::AodvAgent& agent, net::PacketFactory& factory,
                         FlowRegistry& registry)
    : Source(simulator, cfg,
             cfg.on_law == OnOffConfig::OnLaw::kPareto
                 ? kParetoOnOffStreamSalt
                 : kExponentialOnOffStreamSalt,
             agent, factory, registry),
      cfg_(cfg) {
  WMN_CHECK_GT(cfg_.rate_pps, 0.0, "on/off source rate must be positive");
  if (cfg_.on_law == OnOffConfig::OnLaw::kPareto) {
    WMN_CHECK_GT(cfg_.pareto_shape, 1.0,
                 "Pareto shape must exceed 1 (finite mean on period)");
  }
  arm(cfg_.start +
          sim::Time::seconds(rng_.exponential(cfg_.mean_off.to_seconds())),
      [this] { begin_on(); });
}

void OnOffSource::begin_on() {
  ++bursts_;
  double on_s = 0.0;
  if (cfg_.on_law == OnOffConfig::OnLaw::kPareto) {
    // Pareto(alpha, xm) has mean alpha*xm/(alpha-1); invert for the
    // scale that realises the configured mean burst length.
    const double alpha = cfg_.pareto_shape;
    on_s = rng_.pareto(alpha, cfg_.mean_on.to_seconds() * (alpha - 1.0) / alpha);
  } else {
    on_s = rng_.exponential(cfg_.mean_on.to_seconds());
  }
  on_ends_ = sim_.now() + sim::Time::seconds(on_s);
  burst_base_ = sim_.now();
  burst_sent_ = 0;
  emit();
}

void OnOffSource::begin_off() {
  arm(sim_.now() +
          sim::Time::seconds(rng_.exponential(cfg_.mean_off.to_seconds())),
      [this] { begin_on(); });
}

void OnOffSource::emit() {
  if (sim_.now() >= on_ends_) {
    begin_off();
    return;
  }
  send_packet();
  ++burst_sent_;
  arm(paced(burst_base_, burst_sent_, cfg_.rate_pps), [this] { emit(); });
}

}  // namespace wmn::traffic
