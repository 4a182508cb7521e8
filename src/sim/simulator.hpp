// The discrete-event simulator: a clock plus an event calendar plus the
// master RNG seed from which all component streams derive.
//
// One Simulator instance = one independent simulation run. The kernel
// is strictly single-threaded; experiment-level parallelism runs many
// Simulator instances concurrently (see exp::SweepEngine), which is
// safe because instances share no mutable state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/check.hpp"
#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace wmn::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t master_seed = 1) : master_seed_(master_seed) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- clock -------------------------------------------------------
  [[nodiscard]] Time now() const { return now_; }

  // --- scheduling ----------------------------------------------------
  // Schedule `fn` to run `delay` after the current time. Negative
  // delays are clamped to zero (run "now", after already-queued
  // same-time events). Inline and templated on the callable: this runs
  // once per simulated event, and forwarding the lambda itself lets
  // its captures be built directly in the calendar slot.
  template <typename F>
  EventId schedule(Time delay, F&& fn) {
    if (delay.is_negative()) delay = Time::zero();
    return calendar_.schedule(now_ + delay, std::forward<F>(fn));
  }

  // Schedule at an absolute timestamp; must not be in the past. Under
  // CheckPolicy::kLogAndCount the violation is logged and the event is
  // clamped to `now_`: inserting the past-dated time itself would break
  // calendar monotonicity one pop later and cascade a second violation
  // out of the run loop.
  template <typename F>
  EventId schedule_at(Time at, F&& fn) {
    WMN_CHECK_GE(at, now_, "cannot schedule in the past");
    if (at < now_) at = now_;
    return calendar_.schedule(at, std::forward<F>(fn));
  }

  void cancel(EventId id) { calendar_.cancel(id); }
  [[nodiscard]] bool pending(EventId id) const { return calendar_.pending(id); }

  // --- keyed streams ---------------------------------------------------
  // A stream is a component-held, (time, seq)-sorted run of future
  // items that keeps only its earliest item in the calendar (see
  // phy::WirelessChannel's arrival streams). Each item reserves its seq
  // exactly where it would have been scheduled on its own, runs at that
  // same (time, seq) position and counts as one executed event, so a
  // stream is indistinguishable from individually scheduled items.
  [[nodiscard]] std::uint64_t reserve_seq(std::uint64_t n = 1) {
    return calendar_.reserve_seq(n);
  }

  // Key a stream into the calendar at its next item (at, seq). Same
  // past-time clamp as schedule_at().
  template <typename F>
  EventId schedule_keyed(Time at, std::uint64_t seq, F&& fn) {
    WMN_CHECK_GE(at, now_, "cannot schedule in the past");
    if (at < now_) at = now_;
    return calendar_.schedule_keyed(at, seq, std::forward<F>(fn));
  }

  // Called by a stream after it ran an item, with its next item's key.
  // True means: the finished item is counted and the clock stands at
  // `at` — run the next item now, inline. That holds only where the run
  // loop would have popped that item next anyway: it precedes the
  // calendar top, lies within the run_until() deadline, no stop() is
  // pending and the event budget does not trip. False means: key the
  // stream back into the calendar at (at, seq) and return; the run loop
  // counts the finished item.
  [[nodiscard]] bool advance_inline(Time at, std::uint64_t seq) {
    if (stopped_ || at > deadline_) return false;
    if (event_budget_ != 0 && events_executed_ + 1 >= event_budget_) return false;
    if (!calendar_.precedes_top(at, seq)) return false;
    ++events_executed_;
    now_ = at;
    return true;
  }

  // Items streams hold beyond their one calendar entry each, so that
  // events_pending() reads as if every item were scheduled on its own.
  void add_held_events(std::int64_t delta) { held_events_ += delta; }

  // --- event budget --------------------------------------------------
  // Deterministic runaway guard: abort the run once `events_executed()`
  // reaches `max_events` with more work pending. A pure function of the
  // event count — two same-seed runs trip it at the identical event —
  // so a budgeted run is exactly reproducible. 0 (the default) disables
  // the budget; existing runs and fingerprints are untouched.
  void set_event_budget(std::uint64_t max_events) {
    event_budget_ = max_events;
  }
  [[nodiscard]] std::uint64_t event_budget() const { return event_budget_; }

  // True iff the last run_until() ended because the budget tripped; a
  // stop(), a deadline or a drained calendar is a clean finish.
  [[nodiscard]] bool budget_exhausted() const { return budget_exhausted_; }

  // --- execution -----------------------------------------------------
  // Run until the calendar drains or stop() is called.
  void run() { run_until(Time::max()); }

  // Run until the clock would pass `deadline`; events at exactly
  // `deadline` are executed. The clock finishes at
  // min(deadline, time of last event) unless stopped early.
  void run_until(Time deadline) {
    stopped_ = false;
    budget_exhausted_ = false;
    deadline_ = deadline;
    while (!stopped_ && !calendar_.empty()) {
      if (event_budget_ != 0 && events_executed_ >= event_budget_)
          [[unlikely]] {
        budget_exhausted_ = true;
        stopped_ = true;
        return;
      }
      const Time t = calendar_.next_time();
      if (t > deadline) {
        now_ = deadline;
        return;
      }
      auto fired = calendar_.pop();
      WMN_CHECK_GE(fired.at, now_, "calendar must be monotone");
      now_ = fired.at;
      fired.fn();
      ++events_executed_;
    }
    if (!stopped_ && deadline != Time::max() && now_ < deadline) now_ = deadline;
  }

  // Request termination; takes effect before the next event dispatch.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool stopped() const { return stopped_; }

  // --- rng -----------------------------------------------------------
  [[nodiscard]] std::uint64_t master_seed() const { return master_seed_; }

  // Create an independent random stream. Components pass a stable
  // stream id (e.g. hash of node id + purpose) so wiring order does not
  // perturb the streams.
  [[nodiscard]] RngStream make_stream(std::uint64_t stream_id) const {
    return RngStream(master_seed_, stream_id);
  }

  // --- diagnostics ----------------------------------------------------
  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }
  [[nodiscard]] std::size_t events_pending() const {
    return calendar_.size() + static_cast<std::size_t>(held_events_);
  }

 private:
  Scheduler calendar_;
  Time now_ = Time::zero();
  std::uint64_t master_seed_;
  Time deadline_ = Time::zero();  // of the active run_until()
  std::uint64_t events_executed_ = 0;
  std::int64_t held_events_ = 0;
  std::uint64_t event_budget_ = 0;  // 0 = unlimited
  bool stopped_ = false;
  bool budget_exhausted_ = false;
};

}  // namespace wmn::sim
