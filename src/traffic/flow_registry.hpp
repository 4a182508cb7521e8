// Per-flow end-to-end bookkeeping shared by sources and sinks.
//
// Sources register flows and count offered packets; sinks record
// deliveries with their end-to-end delay. One registry per simulation;
// the experiment layer reads it after the run.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace wmn::traffic {

struct FlowRecord {
  std::uint32_t flow_id = 0;
  net::Address src;
  net::Address dst;

  // Offered load (source side).
  std::uint64_t sent = 0;
  std::uint64_t sent_bytes = 0;

  // Delivered (sink side).
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t out_of_order = 0;

  // Delay statistics (Welford) over delivered packets, seconds.
  double delay_mean_s = 0.0;
  double delay_m2 = 0.0;
  // Mean absolute successive delay difference (jitter), seconds.
  double jitter_mean_s = 0.0;
  std::uint64_t jitter_count = 0;

  double last_delay_s = -1.0;
  std::uint64_t highest_seq_delivered = 0;
  bool any_delivered = false;
  sim::Time first_delivery{};
  sim::Time last_delivery{};

  [[nodiscard]] double pdr() const {
    return sent == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(sent);
  }
  [[nodiscard]] double delay_stddev_s() const {
    return delivered < 2 ? 0.0 : std::sqrt(delay_m2 / static_cast<double>(delivered - 1));
  }
};

class FlowRegistry {
 public:
  // Create a flow record; flow ids must be unique within a run.
  FlowRecord& register_flow(std::uint32_t flow_id, net::Address src,
                            net::Address dst);

  void record_sent(std::uint32_t flow_id, std::uint32_t bytes);
  // Timestamped variant: additionally classifies the packet against the
  // outage query (below). Sources use this one.
  void record_sent(std::uint32_t flow_id, std::uint32_t bytes, sim::Time now);
  void record_delivery(std::uint32_t flow_id, std::uint64_t seq,
                       std::uint32_t bytes, sim::Time sent_at, sim::Time now);

  // Resilience accounting: when set (fault-enabled runs), packets whose
  // send time satisfies the predicate count toward the during-outage
  // aggregates; deliveries are classified by their *send* time, so a
  // packet's bucket is decided once. Unset by default — zero cost.
  void set_outage_query(std::function<bool(sim::Time)> query) {
    outage_query_ = std::move(query);
  }
  [[nodiscard]] std::uint64_t sent_during_outage() const {
    return sent_during_outage_;
  }
  [[nodiscard]] std::uint64_t delivered_during_outage() const {
    return delivered_during_outage_;
  }

  [[nodiscard]] const FlowRecord* find(std::uint32_t flow_id) const;
  [[nodiscard]] std::vector<FlowRecord> snapshot() const;

  // Aggregates over all flows.
  [[nodiscard]] std::uint64_t total_sent() const;
  [[nodiscard]] std::uint64_t total_delivered() const;
  [[nodiscard]] std::uint64_t total_delivered_bytes() const;
  [[nodiscard]] double aggregate_pdr() const;
  // Delivery-weighted mean end-to-end delay (seconds).
  [[nodiscard]] double mean_delay_s() const;
  [[nodiscard]] double mean_jitter_s() const;

 private:
  std::map<std::uint32_t, FlowRecord> flows_;
  std::function<bool(sim::Time)> outage_query_;
  std::uint64_t sent_during_outage_ = 0;
  std::uint64_t delivered_during_outage_ = 0;
};

}  // namespace wmn::traffic
