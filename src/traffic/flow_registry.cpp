#include "traffic/flow_registry.hpp"

#include <cmath>

#include "core/check.hpp"

namespace wmn::traffic {

FlowRecord& FlowRegistry::register_flow(std::uint32_t flow_id, net::Address src,
                                        net::Address dst) {
  WMN_CHECK(!flows_.contains(flow_id), "duplicate flow id");
  FlowRecord& r = flows_[flow_id];
  r.flow_id = flow_id;
  r.src = src;
  r.dst = dst;
  return r;
}

void FlowRegistry::record_sent(std::uint32_t flow_id, std::uint32_t bytes) {
  auto it = flows_.find(flow_id);
  WMN_CHECK(it != flows_.end(), "record_sent for an unregistered flow");
  ++it->second.sent;
  it->second.sent_bytes += bytes;
}

void FlowRegistry::record_sent(std::uint32_t flow_id, std::uint32_t bytes,
                               sim::Time now) {
  record_sent(flow_id, bytes);
  if (outage_query_ && outage_query_(now)) ++sent_during_outage_;
}

void FlowRegistry::record_delivery(std::uint32_t flow_id, std::uint64_t seq,
                                   std::uint32_t bytes, sim::Time sent_at,
                                   sim::Time now) {
  auto it = flows_.find(flow_id);
  if (it == flows_.end()) return;  // stray delivery after teardown
  FlowRecord& r = it->second;

  if (r.any_delivered && seq <= r.highest_seq_delivered) {
    if (seq == r.highest_seq_delivered) {
      ++r.duplicates;
      return;
    }
    ++r.out_of_order;
    // Late packet: still counts as delivered below.
  }

  ++r.delivered;
  r.delivered_bytes += bytes;
  if (outage_query_ && outage_query_(sent_at)) ++delivered_during_outage_;
  const double delay_s = (now - sent_at).to_seconds();

  // Welford update.
  const double d1 = delay_s - r.delay_mean_s;
  r.delay_mean_s += d1 / static_cast<double>(r.delivered);
  r.delay_m2 += d1 * (delay_s - r.delay_mean_s);

  if (r.last_delay_s >= 0.0) {
    const double diff = std::abs(delay_s - r.last_delay_s);
    ++r.jitter_count;
    r.jitter_mean_s +=
        (diff - r.jitter_mean_s) / static_cast<double>(r.jitter_count);
  }
  r.last_delay_s = delay_s;

  if (!r.any_delivered) {
    r.first_delivery = now;
    r.any_delivered = true;
  }
  r.last_delivery = now;
  if (seq > r.highest_seq_delivered) r.highest_seq_delivered = seq;
}

const FlowRecord* FlowRegistry::find(std::uint32_t flow_id) const {
  auto it = flows_.find(flow_id);
  return it == flows_.end() ? nullptr : &it->second;
}

std::vector<FlowRecord> FlowRegistry::snapshot() const {
  std::vector<FlowRecord> out;
  out.reserve(flows_.size());
  for (const auto& [id, r] : flows_) out.push_back(r);
  return out;
}

std::uint64_t FlowRegistry::total_sent() const {
  std::uint64_t n = 0;
  for (const auto& [id, r] : flows_) n += r.sent;
  return n;
}

std::uint64_t FlowRegistry::total_delivered() const {
  std::uint64_t n = 0;
  for (const auto& [id, r] : flows_) n += r.delivered;
  return n;
}

std::uint64_t FlowRegistry::total_delivered_bytes() const {
  std::uint64_t n = 0;
  for (const auto& [id, r] : flows_) n += r.delivered_bytes;
  return n;
}

double FlowRegistry::aggregate_pdr() const {
  const std::uint64_t sent = total_sent();
  return sent == 0 ? 0.0
                   : static_cast<double>(total_delivered()) /
                         static_cast<double>(sent);
}

double FlowRegistry::mean_delay_s() const {
  std::uint64_t n = 0;
  double sum = 0.0;
  for (const auto& [id, r] : flows_) {
    n += r.delivered;
    sum += r.delay_mean_s * static_cast<double>(r.delivered);
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double FlowRegistry::mean_jitter_s() const {
  std::uint64_t n = 0;
  double sum = 0.0;
  for (const auto& [id, r] : flows_) {
    n += r.jitter_count;
    sum += r.jitter_mean_s * static_cast<double>(r.jitter_count);
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace wmn::traffic
