// ShardedSimulator: conservative-PDES parallel intra-run simulation.
//
// The engine owns one sim::Simulator (and therefore one slab-backed
// calendar, see sim/scheduler.hpp) per ShardMap region and advances all
// regions in lockstep epochs of width `epoch` — the conservative
// lookahead (ShardMap::lookahead): no event executed inside an epoch
// can cause an event in ANOTHER region earlier than the epoch's end
// boundary, because any cross-region influence rides a radio delivery
// whose latency is at least the lookahead.
//
// The determinism contract (bit-identical fingerprints for every
// worker-thread count, including 1) is structural:
//
//  * The region decomposition and the epoch width are pure functions
//    of scenario config — never of the thread count.
//  * Within an epoch each region executes its own calendar serially,
//    in (time, insertion-seq) order, touching only region-local state.
//    Worker count only changes which OS thread runs a region.
//  * Cross-region effects are posted to per-(src-region, dst-region)
//    inboxes with per-row monotone sequence numbers and merged at the
//    barrier — on the coordinating thread, with every worker parked —
//    in the fixed total order (release time, src region, row seq).
//    See phy::ShardRouter.
//
// With one region the same machinery runs fully inline, so shard-count
// invariance degenerates to "the code runs once" — which is exactly
// why downgrades (mobility, infinite range) are safe: one region is
// the exact event semantics of a single Simulator. It is also the
// default engine of every exp::Scenario (intra_run_shards == 0).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace wmn::sim {

// Barrier-time merge hook. merge_epoch(boundary) runs on the
// coordinating thread after every region has advanced to exactly
// `boundary` and before any region advances past it; no worker is
// executing, so the hook may freely touch every region's calendar.
// Returns true if it scheduled anything — the driver uses this to
// drain releases landing exactly on the final deadline (which a
// single Simulator's inclusive run_until would execute).
class ShardBarrierHook {
 public:
  ShardBarrierHook() = default;
  ShardBarrierHook(const ShardBarrierHook&) = delete;
  ShardBarrierHook& operator=(const ShardBarrierHook&) = delete;
  virtual ~ShardBarrierHook() = default;

  virtual bool merge_epoch(Time boundary) = 0;
};

class ShardedSimulator {
 public:
  // All regions derive their streams from `master_seed`, so a
  // component draws the same numbers whichever region it lives in.
  // `worker_threads` is clamped to [1, region_count]; 0 or 1 runs
  // everything inline on the caller's thread (no threads are created).
  ShardedSimulator(std::uint64_t master_seed, std::uint32_t region_count, Time epoch,
                   std::uint32_t worker_threads);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] std::uint32_t region_count() const {
    return static_cast<std::uint32_t>(regions_.size());
  }
  [[nodiscard]] std::uint32_t worker_threads() const { return workers_; }
  [[nodiscard]] Time epoch() const { return epoch_; }
  [[nodiscard]] Simulator& region(std::uint32_t r) { return *regions_[r]; }
  [[nodiscard]] const Simulator& region(std::uint32_t r) const { return *regions_[r]; }

  void set_barrier_hook(ShardBarrierHook* hook) { hook_ = hook; }

  // Global event budget across all regions (0 = unlimited). The budget
  // is re-split at every barrier from deterministic per-region event
  // counts, so a budget trip fires in the same region at the same
  // event for every worker count.
  void set_event_budget(std::uint64_t max_events);
  [[nodiscard]] std::uint64_t event_budget() const { return event_budget_; }

  // Cooperative cancellation, polled inside every region's event loop
  // (per-shard polling). A cancelled run aborts at the next barrier.
  void set_cancel_token(const CancelToken* token, std::uint64_t poll_every = 1024);

  // Advance all regions to `deadline` (inclusive, like
  // Simulator::run_until). The deadline must be finite: epochs step an
  // integer number of lookaheads, and a sharded run always has a
  // scenario horizon.
  void run_until(Time deadline);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::uint64_t events_executed() const;
  [[nodiscard]] std::uint64_t events_pending() const;
  [[nodiscard]] Simulator::AbortReason abort_reason() const { return abort_reason_; }

 private:
  struct WorkerTeam;  // std::thread lives only in the .cpp (see wmn-nondeterminism)

  void run_regions_until(Time boundary);
  void split_budget();
  [[nodiscard]] bool collect_aborts();

  std::vector<std::unique_ptr<Simulator>> regions_;
  Time epoch_;
  Time now_ = Time::zero();
  std::uint32_t workers_ = 1;
  std::uint64_t event_budget_ = 0;
  ShardBarrierHook* hook_ = nullptr;
  Simulator::AbortReason abort_reason_ = Simulator::AbortReason::kNone;
  std::unique_ptr<WorkerTeam> team_;  // null when workers_ == 1
};

}  // namespace wmn::sim
