// AODV routing engine (RFC 3561 message economy) with pluggable
// rebroadcast and route-selection policies.
//
// One AodvAgent per node, layered on DcfMac. The engine implements:
//   * on-demand route discovery (RREQ broadcast / RREP unicast),
//     destination sequence numbers, RREQ-id duplicate cache;
//   * data forwarding with TTL, packet buffering during discovery,
//     bounded discovery retries with binary-exponential RREP wait;
//   * link-failure handling from two triggers (MAC retry exhaustion
//     and HELLO loss), RERR propagation, route invalidation;
//   * periodic HELLO beacons maintaining the neighbour table — and,
//     when configured, advertising the node's cross-layer load index
//     (the CLNLR neighbourhood dissemination mechanism);
//   * optional accumulated path metric in RREQs (LoadTlv), feeding
//     metric-based route selection.
//
// Every protocol in the evaluation (AODV-BF, AODV-GOSSIP, AODV-CB,
// CLNLR and its ablations) is this engine with different policy and
// config wiring — so control-packet overhead comparisons are strictly
// like-for-like.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/flat_map.hpp"
#include "mac/dcf_mac.hpp"
#include "net/address.hpp"
#include "net/packet.hpp"
#include "routing/load_source.hpp"
#include "routing/messages.hpp"
#include "routing/neighbor_table.hpp"
#include "routing/rebroadcast_policy.hpp"
#include "routing/route_selection.hpp"
#include "routing/route_table.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace wmn::routing {

struct AodvConfig {
  sim::Time hello_interval = sim::Time::seconds(1.0);
  std::uint32_t allowed_hello_loss = 2;
  sim::Time active_route_timeout = sim::Time::seconds(6.0);
  sim::Time rreq_cache_timeout = sim::Time::seconds(5.0);
  std::uint32_t rreq_retries = 2;  // network-wide attempts = retries + 1
  sim::Time net_traversal_time = sim::Time::seconds(1.0);
  std::uint8_t rreq_ttl = 30;

  // Expanding-ring search (RFC 3561 section 6.4): probe with growing
  // TTL rings before going network-wide. Off by default — the source
  // papers' overhead comparisons are against network-wide discovery.
  bool expanding_ring = false;
  std::uint8_t ers_ttl_start = 5;
  std::uint8_t ers_ttl_increment = 2;
  std::uint8_t ers_ttl_threshold = 7;  // last ring before full TTL

  std::uint8_t data_ttl = 64;
  std::size_t buffer_capacity = 64;       // per-destination
  sim::Time buffer_timeout = sim::Time::seconds(8.0);
  sim::Time housekeeping_interval = sim::Time::seconds(1.0);
  sim::Time dead_route_retention = sim::Time::seconds(10.0);

  // CLNLR switches.
  bool use_load_metric = false;     // RREQs accumulate neighbourhood load
  bool hello_carries_load = false;  // HELLOs advertise node load
  double nbhd_self_weight = 0.5;    // own weight in neighbourhood load

  // Graceful degradation (RFC 3561 optional machinery): one switch for
  // three mechanisms. OFF by default: the baseline protocols — and
  // therefore the seed determinism fingerprints — run the stock engine.
  //  * Local repair (section 6.12): an intermediate node whose next hop
  //    died may re-discover the destination itself instead of RERR-ing
  //    to the source, when the destination was close (few hops) — the
  //    repair RREQ's TTL is last-known hops + slack.
  //  * Unidirectional-neighbour blacklist (section 6.8): a failed RREP
  //    unicast means the reverse link the RREQ arrived over doesn't
  //    work in our direction; ignore that neighbour's RREQs for a while
  //    so the next discovery picks a bidirectional path.
  //  * RERR delivery (section 6.11): unicast to the single precursor
  //    when there is exactly one, suppress entirely when there are none
  //    — instead of always broadcasting.
  bool graceful_degradation = false;
  std::uint8_t local_repair_max_dest_hops = 3;
  std::uint8_t local_repair_ttl_slack = 2;
  sim::Time blacklist_timeout = sim::Time::seconds(3.0);
};

class AodvAgent {
 public:
  // Data packet that reached its destination (us): handed to the
  // application with its network-layer origin.
  using DeliverCallback = std::function<void(net::Packet, net::Address origin)>;

  AodvAgent(sim::Simulator& simulator, const AodvConfig& cfg, net::Address self,
            mac::DcfMac& mac, net::PacketFactory& factory,
            std::unique_ptr<RebroadcastPolicy> rebroadcast,
            std::unique_ptr<RouteSelectionPolicy> selection,
            std::unique_ptr<LoadSource> load);
  ~AodvAgent();

  AodvAgent(const AodvAgent&) = delete;
  AodvAgent& operator=(const AodvAgent&) = delete;

  void set_deliver_callback(DeliverCallback cb) { deliver_cb_ = std::move(cb); }

  // Application entry point: route (discovering if needed) and send.
  void send(net::Packet packet, net::Address dest);

  // --- fault-injection API ---------------------------------------------
  // Crash/recover this router (fault::schedule_crashes). pause() cancels every
  // outstanding agent event (HELLO, housekeeping, pending RREQ timers,
  // discovery timeouts), drops buffered packets, and forgets all
  // routing state — a crashed router keeps nothing. resume() is a cold
  // restart: empty tables, fresh HELLO/housekeeping timers (jittered
  // from the agent's own RNG stream; the stream is only consumed when
  // faults actually fire, so fault-free runs stay bit-identical).
  void pause();
  void resume();
  [[nodiscard]] bool paused() const { return paused_; }

  [[nodiscard]] net::Address address() const { return self_; }

  // Neighbourhood load index: weighted blend of own load and the mean
  // advertised load of 1-hop neighbours. The quantity CLNLR routes on.
  [[nodiscard]] double neighbourhood_load() const;

  [[nodiscard]] double own_load() const { return load_->load_index(); }
  [[nodiscard]] const NeighborTable& neighbors() const { return neighbors_; }
  [[nodiscard]] RouteTable& routes() { return routes_; }
  [[nodiscard]] const AodvConfig& config() const { return cfg_; }
  [[nodiscard]] std::string policy_name() const { return rebroadcast_->name(); }

  struct Counters {
    // Control plane.
    std::uint64_t rreq_originated = 0;   // discovery attempts we started
    std::uint64_t rreq_forwarded = 0;    // rebroadcasts we performed
    std::uint64_t rreq_received = 0;     // first copies processed
    std::uint64_t rreq_duplicates = 0;
    std::uint64_t rreq_suppressed = 0;   // policy said drop
    std::uint64_t rrep_originated = 0;
    std::uint64_t rrep_intermediate = 0; // cached-route replies
    std::uint64_t rrep_forwarded = 0;
    std::uint64_t rrep_dropped = 0;      // no reverse route
    std::uint64_t rerr_sent = 0;
    std::uint64_t rerr_received = 0;
    std::uint64_t hello_sent = 0;
    // Discovery outcomes.
    std::uint64_t discovery_started = 0;  // distinct (dest) discoveries
    std::uint64_t discovery_succeeded = 0;
    std::uint64_t discovery_failed = 0;
    // Data plane.
    std::uint64_t data_originated = 0;
    std::uint64_t data_forwarded = 0;
    std::uint64_t data_delivered = 0;
    std::uint64_t data_dropped_no_route = 0;
    std::uint64_t data_dropped_ttl = 0;
    std::uint64_t data_dropped_link_break = 0;
    std::uint64_t data_dropped_buffer = 0;  // buffer overflow/timeout
    std::uint64_t link_breaks = 0;
    // Resilience / graceful degradation.
    std::uint64_t data_dropped_node_down = 0;  // offered while crashed
    std::uint64_t local_repair_attempted = 0;
    std::uint64_t local_repair_succeeded = 0;
    std::uint64_t blacklist_adds = 0;
    std::uint64_t rreq_ignored_blacklist = 0;
    std::uint64_t rerr_suppressed_no_precursor = 0;
    // Route-recovery latency: break-to-reinstall, per destination.
    std::uint64_t route_recoveries = 0;
    std::uint64_t route_recovery_ns_total = 0;
    std::uint64_t route_recovery_abandoned = 0;

    // Control transmissions: RREQs sent, RREPs sent, and all four
    // control types.
    [[nodiscard]] std::uint64_t rreq_tx() const {
      return rreq_originated + rreq_forwarded;
    }
    [[nodiscard]] std::uint64_t rrep_tx() const {
      return rrep_originated + rrep_intermediate + rrep_forwarded;
    }
    [[nodiscard]] std::uint64_t control_tx() const {
      return rreq_tx() + rrep_tx() + rerr_sent + hello_sent;
    }
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Dynamic footprint of the agent's routing state (route + neighbour
  // tables, RREQ tables, discovery/buffer maps) — feeds the
  // bytes_per_node bench counter.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  // (origin, RREQ id) packed into one word.
  using RreqKey = std::uint64_t;
  static RreqKey make_key(net::Address origin, std::uint32_t id) {
    return (static_cast<std::uint64_t>(origin.value()) << 32) | id;
  }

  // The RREQ state is two tables. `rreq_seen_` maps every RREQ heard in
  // the last rreq_cache_timeout to the arrival of its first copy: the
  // duplicate filter, 16 bytes an entry, and the one table that grows
  // with the flood. A first copy that leaves an event behind (the
  // jittered rebroadcast of kForward, the deferred assessment of kDefer
  // or the destination's reply wait) also gets a PendingRreq in
  // `rreq_pending_`, which lives exactly as long as that event: the
  // event's handler erases it, and teardown and crash injection cancel
  // the events through it (an untracked event would fire into a
  // destroyed or paused agent).
  struct PendingRreq {
    sim::EventId timer{};
    // The copy to act on and its accumulated path load: the rebroadcast
    // or deferred forward, or at the destination the best copy so far.
    double path_load = 0.0;
    RreqHeader hdr;
    std::uint32_t copies = 1;

    // Destination side: the best copy as a route candidate.
    [[nodiscard]] RouteCandidate best() const {
      return RouteCandidate{path_load, hdr.hop_count};
    }
  };

  struct Discovery {
    std::uint32_t attempts = 0;
    sim::EventId timer{};
    // Local repair: a single attempt with a hop-bounded TTL, run by an
    // intermediate node on behalf of the broken route.
    bool repair = false;
    std::uint8_t repair_ttl = 0;
  };

  struct BufferedPacket {
    net::Packet packet;
    sim::Time enqueued{};
    // Present for transit packets parked during local repair: their
    // original network header (origin, remaining TTL) must survive the
    // repair rather than being re-stamped as our own traffic.
    std::optional<DataHeader> transit_hdr;
  };

  // --- RX dispatch -----------------------------------------------------
  void on_mac_receive(net::Packet packet, net::Address src);
  void handle_rreq(net::Packet packet, net::Address src);
  void handle_rrep(net::Packet packet, net::Address src);
  void handle_rerr(net::Packet packet, net::Address src);
  void handle_hello(net::Packet packet, net::Address src);
  void handle_data(net::Packet packet, net::Address src);

  // --- discovery --------------------------------------------------------
  void start_discovery(net::Address dest);
  // Send the RREQ for `d`'s next attempt. `d` is dest's entry in
  // discoveries_.
  void send_rreq(net::Address dest, Discovery& d);
  // TTL for the given attempt index (ring sequence, then network-wide),
  // or nullopt when the attempt budget is exhausted.
  [[nodiscard]] std::optional<std::uint8_t> ttl_for_attempt(
      std::uint32_t attempt) const;
  void on_discovery_timeout(net::Address dest);
  void forward_rreq(const RreqHeader& hdr, double path_load);
  void send_rrep_as_destination(const RreqHeader& hdr, const RouteCandidate& cand);
  void send_rrep_from_cache(const RreqHeader& hdr, const RouteEntry& route);
  // Record `hdr` as `key`'s pending copy; the caller schedules its event.
  PendingRreq& hold_rreq(RreqKey key, const RreqHeader& hdr, double path_load);
  // Remove and return `key`'s pending record: its event is firing.
  PendingRreq take_pending(RreqKey key);
  void rebroadcast_due(RreqKey key);
  void finish_defer(RreqKey key);
  void destination_reply_due(RreqKey key);

  // --- routes -----------------------------------------------------------
  // Update the route to `dest` from evidence (seqno, candidate, via).
  // Returns true if the table changed.
  bool update_route(net::Address dest, net::Address via, std::uint32_t seqno,
                    bool seqno_valid, const RouteCandidate& cand,
                    sim::Time lifetime);
  void upsert_neighbor_route(net::Address neighbor);
  void flush_buffer(net::Address dest);
  // Queue `bp` for `dest`, dropping the oldest packet when full.
  void park(net::Address dest, BufferedPacket bp);
  void drop_buffer(net::Address dest, const char* reason);

  // --- failures -----------------------------------------------------------
  void on_mac_tx_failed(net::Address next_hop, net::Packet packet);
  void on_neighbor_lost(net::Address neighbor);
  // Invalidate routes via `next_hop` and report them. `repair_dest`
  // (when valid) is excluded from the RERR: we are repairing it locally.
  void handle_link_break(net::Address next_hop,
                         net::Address repair_dest = net::Address{});
  // Decide the RERR recipient (precursor unicast / broadcast /
  // suppression, per cfg_.graceful_degradation) and send. `precursor_list`
  // may arrive in any order with duplicates (it concatenates several
  // routes' lists); it is normalised (sorted, unique) internally.
  void emit_rerr(const std::vector<net::Address>& dests,
                 const std::vector<std::uint32_t>& seqnos,
                 std::vector<net::Address> precursor_list);
  void send_rerr(const std::vector<net::Address>& dests,
                 const std::vector<std::uint32_t>& seqnos, net::Address target);
  void start_local_repair(net::Address dest, std::uint8_t last_hops);
  // Recovery-latency bookkeeping around route invalidation/reinstall.
  void note_route_broken(net::Address dest);
  void note_route_restored(net::Address dest);

  // --- periodic -----------------------------------------------------------
  void send_hello();
  void housekeeping();
  void cancel_all_timers();

  [[nodiscard]] sim::Time now() const { return sim_.now(); }

  sim::Simulator& sim_;
  AodvConfig cfg_;
  net::Address self_;
  mac::DcfMac& mac_;
  net::PacketFactory& factory_;
  std::unique_ptr<RebroadcastPolicy> rebroadcast_;
  std::unique_ptr<RouteSelectionPolicy> selection_;
  std::unique_ptr<LoadSource> load_;
  sim::RngStream rng_;

  RouteTable routes_;
  NeighborTable neighbors_;
  DeliverCallback deliver_cb_;

  std::uint32_t seqno_ = 0;
  std::uint32_t rreq_id_ = 0;
  std::uint32_t hello_seqno_ = 0;

  core::FlatMap<RreqKey, sim::Time> rreq_seen_;  // key -> first copy's arrival
  core::FlatMap<RreqKey, PendingRreq> rreq_pending_;
  core::FlatMap<net::Address, Discovery> discoveries_;
  core::FlatMap<net::Address, std::deque<BufferedPacket>> buffers_;

  sim::EventId hello_timer_{};
  sim::EventId housekeeping_timer_{};

  // Fault injection: true while crashed.
  bool paused_ = false;
  // Blacklisted RREQ sources (section 6.8) -> ignore-until time.
  core::FlatMap<net::Address, sim::Time> blacklist_;
  // Destinations whose route broke (link break / RERR) and has not been
  // reinstalled yet -> break time. Feeds the recovery-latency metric.
  core::FlatMap<net::Address, sim::Time> broken_at_;

  Counters counters_;
};

}  // namespace wmn::routing
