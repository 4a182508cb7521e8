#include "sim/sharded_simulator.hpp"

#include <atomic>
#include <thread>

#include "core/check.hpp"

namespace wmn::sim {

// Spin-barrier worker team. An epoch is ~30 microseconds of simulated
// time and often a handful of events, so the per-epoch handoff must
// cost well under a microsecond — condition variables and the exp::
// ThreadPool's mutex-guarded queue are an order of magnitude too slow
// at ~500k epochs per run. Workers spin on an epoch sequence number
// with a bounded busy phase before yielding.
//
// Memory ordering: the coordinator writes `boundary_` then publishes
// it with a release fetch_add on `epoch_seq_`; a worker's acquire load
// of the new sequence makes the boundary (and every merge-phase write
// to its regions) visible. Each worker signals completion with a
// release increment of `done_`; the coordinator's acquire spin on
// `done_` makes all region state written by workers visible before the
// merge phase touches it. Region assignment is static (region r runs
// on worker r % W), so no two threads ever touch the same region
// concurrently.
struct ShardedSimulator::WorkerTeam {
  ShardedSimulator& owner;
  const std::uint32_t n_workers;  // including the coordinator (worker 0)
  std::atomic<std::uint64_t> epoch_seq{0};
  std::atomic<std::uint32_t> done{0};
  std::atomic<bool> shutdown{false};
  Time boundary{};  // published by the epoch_seq release increment
  std::vector<std::thread> threads;

  WorkerTeam(ShardedSimulator& o, std::uint32_t n) : owner(o), n_workers(n) {
    threads.reserve(n - 1);
    for (std::uint32_t w = 1; w < n; ++w) {
      threads.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~WorkerTeam() {
    shutdown.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
  }

  void run_share(std::uint32_t w, Time b) {
    const auto n_regions = static_cast<std::uint32_t>(owner.regions_.size());
    for (std::uint32_t r = w; r < n_regions; r += n_workers) {
      owner.regions_[r]->run_until(b);
    }
  }

  static void relax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  void worker_loop(std::uint32_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint32_t spins = 0;
      std::uint64_t cur = 0;
      while ((cur = epoch_seq.load(std::memory_order_acquire)) == seen) {
        if (shutdown.load(std::memory_order_acquire)) return;
        if (++spins < 4096) {
          relax();
        } else {
          spins = 0;
          std::this_thread::yield();
        }
      }
      seen = cur;
      run_share(w, boundary);
      done.fetch_add(1, std::memory_order_release);
    }
  }

  // Coordinator side: publish the epoch, run worker 0's share inline,
  // then wait for the rest.
  void run_epoch(Time b) {
    boundary = b;
    done.store(0, std::memory_order_relaxed);
    epoch_seq.fetch_add(1, std::memory_order_release);
    run_share(0, b);
    std::uint32_t spins = 0;
    while (done.load(std::memory_order_acquire) != n_workers - 1) {
      if (++spins < 4096) {
        relax();
      } else {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }
};

ShardedSimulator::ShardedSimulator(std::uint64_t master_seed, std::uint32_t region_count,
                                   Time epoch, std::uint32_t worker_threads)
    : epoch_(epoch) {
  WMN_CHECK_GT(region_count, 0u, "sharded simulator needs at least one region");
  WMN_CHECK_GT(epoch.ns(), 0, "epoch width must be positive");
  WMN_CHECK_NE(epoch, Time::max(), "infinite lookahead must downgrade to one region");
  regions_.reserve(region_count);
  for (std::uint32_t r = 0; r < region_count; ++r) {
    regions_.push_back(std::make_unique<Simulator>(master_seed));
  }
  workers_ = worker_threads == 0 ? 1 : worker_threads;
  if (workers_ > region_count) workers_ = region_count;
  // More spin-barrier workers than hardware threads is strictly worse
  // than fewer (they evict each other mid-epoch); clamping is safe
  // because worker count is unobservable in event order. The query
  // reads sysfs, so a one-worker engine skips it.
  if (workers_ > 1) {
    const std::uint32_t hw = std::thread::hardware_concurrency();
    if (hw > 0 && workers_ > hw) workers_ = hw;
  }
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::set_event_budget(std::uint64_t max_events) {
  event_budget_ = max_events;
  split_budget();
}

void ShardedSimulator::set_cancel_token(const CancelToken* token, std::uint64_t poll_every) {
  for (auto& r : regions_) r->set_cancel_token(token, poll_every);
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& r : regions_) total += r->events_executed();
  return total;
}

std::uint64_t ShardedSimulator::events_pending() const {
  std::uint64_t total = 0;
  for (const auto& r : regions_) total += r->events_pending();
  return total;
}

// Re-split the global budget: every region may spend up to the whole
// remaining allowance. Whichever region trips it stops at a
// deterministic event count (its own executed + remaining), and the
// trip is detected at the next barrier — identically for every worker
// count, because the split happens only at barriers from
// deterministic per-region counters.
void ShardedSimulator::split_budget() {
  if (event_budget_ == 0) return;
  const std::uint64_t executed = events_executed();
  const std::uint64_t remaining = event_budget_ > executed ? event_budget_ - executed : 0;
  for (auto& r : regions_) r->set_event_budget(r->events_executed() + remaining);
}

bool ShardedSimulator::collect_aborts() {
  // Budget beats cancel: a budget trip is deterministic and callers
  // map it to a typed abort; a cancel is external.
  for (const auto& r : regions_) {
    if (r->abort_reason() == Simulator::AbortReason::kEventBudget) {
      abort_reason_ = Simulator::AbortReason::kEventBudget;
      return true;
    }
  }
  for (const auto& r : regions_) {
    if (r->abort_reason() == Simulator::AbortReason::kCancelled) {
      abort_reason_ = Simulator::AbortReason::kCancelled;
      return true;
    }
  }
  return false;
}

void ShardedSimulator::run_regions_until(Time boundary) {
  if (team_) {
    team_->run_epoch(boundary);
  } else {
    for (auto& r : regions_) r->run_until(boundary);
  }
}

void ShardedSimulator::run_until(Time deadline) {
  WMN_CHECK_NE(deadline, Time::max(), "sharded run_until needs a finite deadline");
  WMN_CHECK_GE(deadline, now_, "sharded deadline is in the past");
  abort_reason_ = Simulator::AbortReason::kNone;
  // Worker threads live only for the duration of the run: sweep pools
  // keep many scenarios alive at once, and idle teams would burn cores
  // spinning between runs.
  if (workers_ > 1 && !team_) team_ = std::make_unique<WorkerTeam>(*this, workers_);
  split_budget();
  bool drain_deadline = false;
  while (now_ < deadline || drain_deadline) {
    const Time boundary =
        now_ < deadline && deadline - now_ > epoch_ ? now_ + epoch_ : deadline;
    run_regions_until(boundary);
    if (collect_aborts()) {
      team_.reset();
      return;
    }
    now_ = boundary;
    // Every region clock sits exactly at the boundary and every worker
    // is parked: the hook may schedule into any region at >= boundary.
    // Events landing exactly on the boundary run at the head of the
    // next epoch (run_until deadlines are inclusive). A merge at the
    // final boundary can release deliveries at exactly the deadline —
    // re-run the deadline until the merge goes quiet, matching the
    // inclusive semantics of Simulator::run_until.
    bool merged = false;
    if (hook_ != nullptr) merged = hook_->merge_epoch(boundary);
    drain_deadline = merged && now_ == deadline;
    split_budget();
  }
  team_.reset();
}

}  // namespace wmn::sim
