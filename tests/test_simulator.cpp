#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/check.hpp"
#include "sim/rng.hpp"

namespace wmn::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), Time::zero());
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator s;
  std::vector<double> times;
  s.schedule(Time::seconds(1.0), [&] { times.push_back(s.now().to_seconds()); });
  s.schedule(Time::seconds(2.5), [&] { times.push_back(s.now().to_seconds()); });
  s.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
  EXPECT_EQ(s.now(), Time::seconds(2.5));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) s.schedule(Time::seconds(1.0), chain);
  };
  s.schedule(Time::seconds(1.0), chain);
  s.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), Time::seconds(5.0));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  bool ran = false;
  s.schedule(Time::seconds(1.0), [&] {
    s.schedule(Time::seconds(-5.0), [&] {
      ran = true;
      EXPECT_EQ(s.now(), Time::seconds(1.0));
    });
  });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.schedule(Time::seconds(1.0), [&] { ++fired; });
  s.schedule(Time::seconds(10.0), [&] { ++fired; });
  s.run_until(Time::seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), Time::seconds(5.0));
  // Continuing picks up the remaining event.
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsExactlyAtDeadlineExecute) {
  Simulator s;
  bool ran = false;
  s.schedule(Time::seconds(5.0), [&] { ran = true; });
  s.run_until(Time::seconds(5.0));
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopHaltsDispatch) {
  Simulator s;
  int fired = 0;
  s.schedule(Time::seconds(1.0), [&] {
    ++fired;
    s.stop();
  });
  s.schedule(Time::seconds(2.0), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.stopped());
}

TEST(Simulator, CancelPendingEvent) {
  Simulator s;
  bool ran = false;
  const EventId id = s.schedule(Time::seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  s.cancel(id);
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule(Time::seconds(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Simulator, MakeStreamIsDeterministicPerSeed) {
  Simulator a(123);
  Simulator b(123);
  auto sa = a.make_stream(9);
  auto sb = b.make_stream(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sa.bits(), sb.bits());
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.schedule(Time::seconds(1.0), [] {});
  s.run_until(Time::seconds(30.0));
  EXPECT_EQ(s.now(), Time::seconds(30.0));
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator s;
  bool ran = false;
  s.schedule_at(Time::seconds(4.0), [&] {
    ran = true;
    EXPECT_EQ(s.now(), Time::seconds(4.0));
  });
  s.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, ScheduleAtPastTimeClampsUnderLogAndCount) {
  // Regression: under kLogAndCount the failed WMN_CHECK_GE falls
  // through instead of aborting, so schedule_at must still clamp a
  // stale absolute timestamp to now() — otherwise the event lands in
  // the past and the clock runs backwards.
  core::set_check_policy(core::CheckPolicy::kLogAndCount);
  core::reset_check_violations();
  Simulator s;
  bool ran = false;
  s.schedule(Time::seconds(3.0), [&] {
    s.schedule_at(Time::seconds(1.0), [&] {
      ran = true;
      EXPECT_EQ(s.now(), Time::seconds(3.0));
    });
  });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(core::check_violations(), 1u);
  core::set_check_policy(core::CheckPolicy::kAbort);
}

TEST(Simulator, EventBudgetAbortsDeterministically) {
  struct Stopped {
    bool budget_exhausted;
    std::uint64_t events;
    Time at;
    bool operator==(const Stopped&) const = default;
  };
  auto run_with_budget = [](std::uint64_t budget) {
    Simulator s;
    s.set_event_budget(budget);
    std::function<void()> chain = [&] { s.schedule(Time::seconds(1.0), chain); };
    s.schedule(Time::seconds(1.0), chain);
    s.run_until(Time::seconds(1000.0));
    return Stopped{s.budget_exhausted(), s.events_executed(), s.now()};
  };
  const Stopped a = run_with_budget(5);
  EXPECT_TRUE(a.budget_exhausted);
  EXPECT_EQ(a.events, 5u);
  // Pure function of the event count: a second run stops identically.
  EXPECT_EQ(run_with_budget(5), a);
}

TEST(Simulator, EventBudgetZeroMeansUnlimited) {
  Simulator s;
  EXPECT_EQ(s.event_budget(), 0u);
  for (int i = 0; i < 10; ++i) s.schedule(Time::seconds(i + 1), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 10u);
  EXPECT_FALSE(s.budget_exhausted());
}

// --- keyed streams ----------------------------------------------------

// A three-item stream at 10, 20 and 30 ns that asks advance_inline()
// before each later item, as phy::WirelessChannel's streams do.
struct TinyStream {
  explicit TinyStream(Simulator& sim) : s(sim), first(sim.reserve_seq(3)) {
    s.schedule_keyed(at(0), first, [this] { run(); });
  }
  static Time at(std::size_t i) { return Time::nanos(10 * static_cast<std::int64_t>(i + 1)); }
  void run() {
    for (;;) {
      ran.push_back(s.now());
      if (on_item) on_item();
      if (++next == 3) return;
      if (!s.advance_inline(at(next), first + next)) {
        s.schedule_keyed(at(next), first + next, [this] { run(); });
        return;
      }
    }
  }
  Simulator& s;
  std::uint64_t first;
  std::size_t next = 0;
  std::vector<Time> ran;
  std::function<void()> on_item;
};

TEST(Simulator, StreamItemsBeyondTheDeadlineWait) {
  Simulator s;
  TinyStream stream(s);
  s.run_until(Time::nanos(25));
  EXPECT_EQ(stream.ran, (std::vector<Time>{Time::nanos(10), Time::nanos(20)}));
  EXPECT_EQ(s.now(), Time::nanos(25));
  EXPECT_EQ(s.events_executed(), 2u);
  s.run();
  EXPECT_EQ(stream.ran.size(), 3u);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, StopEndsAStreamsInlineRun) {
  Simulator s;
  TinyStream stream(s);
  stream.on_item = [&] {
    if (stream.ran.size() == 1) s.stop();
  };
  s.run();
  EXPECT_TRUE(s.stopped());
  EXPECT_EQ(stream.ran.size(), 1u);
  EXPECT_EQ(s.events_executed(), 1u);
  s.run();
  EXPECT_EQ(stream.ran.size(), 3u);
}


// A keyed stream in miniature, shaped like phy::WirelessChannel's
// arrival streams: the rig holds a stream's items sorted by (time, seq)
// and keeps only the earliest in the calendar, running later ones
// inline when advance_inline() allows. Items and ordinary events spawn
// more ordinary events, new streams and follow-up items in their own
// stream, all driven by one RNG, so any difference in execution order
// changes the trace. The reference rig schedules every item on its own
// with schedule_keyed() at the same reserved seq.
class StreamRig {
 public:
  struct Step {
    Time at;
    std::uint64_t tag;
    bool operator==(const Step&) const = default;
  };

  StreamRig(bool streamed, std::uint64_t seed)
      : streamed_(streamed), rng_(seed, 7) {
    for (int i = 0; i < 4; ++i) open_stream(6);
    for (int i = 0; i < 4; ++i) schedule_plain();
  }

  // Stop spawning once this many steps exist, so every run drains.
  static constexpr std::uint64_t kMaxTags = 4000;

  Simulator sim;
  std::vector<Step> trace;
  std::uint64_t dispatches = 0;  // calendar entries of streams

  // Items streams hold beyond their one calendar entry each.
  [[nodiscard]] std::size_t held() const {
    std::size_t n = 0;
    for (const Stream& s : streams_) n += s.items.empty() ? 0 : s.items.size() - 1;
    return n;
  }

 private:
  struct Item {
    Time at;
    std::uint64_t seq;
    std::uint64_t tag;
  };
  struct Stream {
    std::vector<Item> items;  // sorted by (at, seq)
  };

  static bool before(const Item& a, const Item& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  Time jitter(std::uint64_t max_ns) {
    // Coarse 10 ns steps make same-time ties common.
    return Time::nanos(static_cast<std::int64_t>(rng_.uniform_u64(0, max_ns / 10) * 10));
  }

  void record(std::uint64_t tag) {
    trace.push_back(Step{sim.now(), tag});
  }

  void schedule_plain() {
    const std::uint64_t tag = next_tag_++;
    sim.schedule(jitter(60), [this, tag] {
      record(tag);
      spawn(kNoStream);
    });
  }

  void add_item(std::uint32_t id, Item item) {
    if (!streamed_) {
      sim.schedule_keyed(item.at, item.seq, [this, id, item] { run_item(id, item); });
      return;
    }
    std::vector<Item>& items = streams_[id].items;
    items.insert(std::upper_bound(items.begin(), items.end(), item, before), item);
  }

  void open_stream(int n) {
    const auto id = static_cast<std::uint32_t>(streams_.size());
    streams_.emplace_back();
    for (int i = 0; i < n; ++i) {
      const Time at = sim.now() + jitter(40);
      add_item(id, Item{at, sim.reserve_seq(), next_tag_++});
    }
    if (streamed_ && !streams_[id].items.empty()) key(id);
  }

  void key(std::uint32_t id) {
    const std::vector<Item>& items = streams_[id].items;
    sim.add_held_events(static_cast<std::int64_t>(items.size()) - 1);
    sim.schedule_keyed(items.front().at, items.front().seq, [this, id] { run_stream(id); });
  }

  void run_stream(std::uint32_t id) {
    ++dispatches;
    sim.add_held_events(1 - static_cast<std::int64_t>(streams_[id].items.size()));
    bool first = true;
    while (!streams_[id].items.empty()) {
      const Item next = streams_[id].items.front();
      if (!first && !sim.advance_inline(next.at, next.seq)) {
        key(id);
        return;
      }
      first = false;
      streams_[id].items.erase(streams_[id].items.begin());
      run_item(id, next);
    }
  }

  void run_item(std::uint32_t id, const Item& item) {
    EXPECT_EQ(sim.now(), item.at);
    record(item.tag);
    spawn(id);
  }

  static constexpr std::uint32_t kNoStream = 0xFFFFFFFFu;

  void spawn(std::uint32_t id) {
    if (next_tag_ >= kMaxTags) return;
    if (rng_.bernoulli(0.45)) schedule_plain();
    if (id != kNoStream && rng_.bernoulli(0.35)) {
      // A follow-up item, reserved mid-stream like an arrival's end.
      add_item(id, Item{sim.now() + jitter(40), sim.reserve_seq(), next_tag_++});
    }
    if (rng_.bernoulli(0.12)) {
      open_stream(static_cast<int>(rng_.uniform_u64(1, 8)));
    }
  }

  bool streamed_;
  RngStream rng_;
  std::uint64_t next_tag_ = 1;
  std::vector<Stream> streams_;
};

class KeyedStreams : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyedStreams, SameTraceAsIndividuallyScheduledItems) {
  StreamRig streamed(true, GetParam());
  StreamRig reference(false, GetParam());
  streamed.sim.run();
  reference.sim.run();
  ASSERT_GT(reference.trace.size(), 1000u);
  EXPECT_EQ(streamed.trace, reference.trace);
  EXPECT_EQ(streamed.sim.events_executed(), reference.sim.events_executed());
  EXPECT_EQ(streamed.sim.events_executed(), reference.trace.size());
  EXPECT_EQ(streamed.sim.now(), reference.sim.now());
  EXPECT_EQ(streamed.sim.events_pending(), 0u);
  // The rig really ran items inline, not one calendar entry each.
  EXPECT_GT(streamed.dispatches, 0u);
  EXPECT_LT(streamed.dispatches * 2, streamed.trace.size());
}

TEST_P(KeyedStreams, EventBudgetTripsAtTheSameEvent) {
  for (const std::uint64_t budget : {1u, 2u, 97u, 1000u}) {
    StreamRig streamed(true, GetParam());
    StreamRig reference(false, GetParam());
    streamed.sim.set_event_budget(budget);
    reference.sim.set_event_budget(budget);
    streamed.sim.run();
    reference.sim.run();
    EXPECT_TRUE(streamed.sim.budget_exhausted());
    EXPECT_TRUE(reference.sim.budget_exhausted());
    EXPECT_EQ(streamed.sim.events_executed(), budget);
    EXPECT_EQ(reference.sim.events_executed(), budget);
    EXPECT_EQ(streamed.trace, reference.trace);
    EXPECT_EQ(streamed.sim.events_pending(), reference.sim.events_pending());
  }
}

TEST_P(KeyedStreams, RunUntilSlicesStopAtTheDeadline) {
  StreamRig streamed(true, GetParam());
  StreamRig reference(false, GetParam());
  bool held_across_edge = false;
  for (Time t = Time::zero();; t = t + Time::nanos(37)) {
    streamed.sim.run_until(t);
    reference.sim.run_until(t);
    ASSERT_EQ(streamed.sim.now(), t);
    ASSERT_EQ(reference.sim.now(), t);
    ASSERT_EQ(streamed.trace, reference.trace);
    for (const StreamRig::Step& step : streamed.trace) ASSERT_LE(step.at, t);
    ASSERT_EQ(streamed.sim.events_executed(), reference.sim.events_executed());
    // Items held outside the calendar still count as pending.
    ASSERT_EQ(streamed.sim.events_pending(), reference.sim.events_pending());
    held_across_edge = held_across_edge || streamed.held() > 0;
    if (reference.sim.events_pending() == 0) break;
  }
  EXPECT_TRUE(held_across_edge);
  EXPECT_GT(reference.trace.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyedStreams, ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace wmn::sim
