#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/rng.hpp"

namespace wmn::sim {
namespace {

TEST(Scheduler, StartsEmpty) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.next_time(), Time::max());
}

TEST(Scheduler, PopsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Time::seconds(3.0), [&] { order.push_back(3); });
  s.schedule(Time::seconds(1.0), [&] { order.push_back(1); });
  s.schedule(Time::seconds(2.0), [&] { order.push_back(2); });
  while (!s.empty()) s.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(Time::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  while (!s.empty()) s.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule(Time::seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(s.pending(id));
  s.cancel(id);
  EXPECT_FALSE(s.pending(id));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_time(), Time::max());
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelMiddleKeepsOthers) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(Time::seconds(1.0), [&] { order.push_back(1); });
  const EventId mid = s.schedule(Time::seconds(2.0), [&] { order.push_back(2); });
  s.schedule(Time::seconds(3.0), [&] { order.push_back(3); });
  s.cancel(mid);
  EXPECT_EQ(s.size(), 2u);
  while (!s.empty()) s.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  const EventId id = s.schedule(Time::seconds(1.0), [] {});
  s.schedule(Time::seconds(2.0), [] {});
  (void)s.pop();
  s.cancel(id);  // already fired
  EXPECT_EQ(s.size(), 1u);  // the second event must survive
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler s;
  s.cancel(EventId{});
  s.cancel(EventId{999});
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, DoubleCancelIsNoop) {
  Scheduler s;
  const EventId id = s.schedule(Time::seconds(1.0), [] {});
  s.schedule(Time::seconds(2.0), [] {});
  s.cancel(id);
  s.cancel(id);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Scheduler, NextTimeSkipsCancelledTop) {
  Scheduler s;
  const EventId early = s.schedule(Time::seconds(1.0), [] {});
  s.schedule(Time::seconds(5.0), [] {});
  s.cancel(early);
  EXPECT_EQ(s.next_time(), Time::seconds(5.0));
}

TEST(Scheduler, ClearDropsEverything) {
  Scheduler s;
  for (int i = 0; i < 10; ++i) s.schedule(Time::seconds(i), [] {});
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_time(), Time::max());
}

TEST(Scheduler, TotalScheduledCounts) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule(Time::zero(), [] {});
  EXPECT_EQ(s.total_scheduled(), 5u);
}

// EventIds carry a generation tag: an id whose slot was recycled must
// go stale rather than aliasing the event now occupying the slot.
TEST(Scheduler, StaleIdAfterFireCannotCancelRecycledSlot) {
  Scheduler s;
  const EventId old_id = s.schedule(Time::seconds(1.0), [] {});
  (void)s.pop();  // fires, releasing the slot to the free list
  bool ran = false;
  const EventId new_id = s.schedule(Time::seconds(2.0), [&] { ran = true; });
  s.cancel(old_id);  // stale: must NOT hit the recycled slot
  EXPECT_FALSE(s.pending(old_id));
  EXPECT_TRUE(s.pending(new_id));
  ASSERT_EQ(s.size(), 1u);
  s.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, StaleIdAfterCancelCannotCancelRecycledSlot) {
  Scheduler s;
  const EventId old_id = s.schedule(Time::seconds(1.0), [] {});
  s.cancel(old_id);
  bool ran = false;
  const EventId new_id = s.schedule(Time::seconds(2.0), [&] { ran = true; });
  EXPECT_NE(old_id.value(), 0u);
  s.cancel(old_id);  // second cancel through a recycled slot
  EXPECT_TRUE(s.pending(new_id));
  ASSERT_EQ(s.size(), 1u);
  s.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, GenerationsSurviveManyRecycles) {
  Scheduler s;
  // Cycle one slot a thousand times; each retired id must stay dead.
  std::vector<EventId> dead;
  for (int i = 0; i < 1000; ++i) {
    const EventId id = s.schedule(Time::nanos(i), [] {});
    for (const EventId old_id : dead) EXPECT_FALSE(s.pending(old_id));
    EXPECT_TRUE(s.pending(id));
    (void)s.pop();
    dead.push_back(id);
    if (dead.size() > 8) dead.erase(dead.begin());  // keep the loop O(n)
  }
}

TEST(Scheduler, CancelDestroysCallableEagerly) {
  // O(1) cancel must release the capture immediately, not at pop time:
  // a cancelled retransmit timer should drop its packet reference now.
  Scheduler s;
  auto token = std::make_shared<int>(42);
  const EventId id = s.schedule(Time::seconds(1.0), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  s.cancel(id);
  EXPECT_EQ(token.use_count(), 1);
  s.clear();
}

TEST(Scheduler, ReservedSeqKeepsItsPlaceInTheOrder) {
  // A seq reserved before two ordinary schedules at the same instant
  // pops first, even though its event is inserted last.
  Scheduler s;
  std::vector<int> order;
  const std::uint64_t seq = s.reserve_seq();
  s.schedule(Time::seconds(1.0), [&] { order.push_back(2); });
  s.schedule(Time::seconds(1.0), [&] { order.push_back(3); });
  s.schedule_keyed(Time::seconds(1.0), seq, [&] { order.push_back(1); });
  while (!s.empty()) s.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, ReserveSeqHandsOutConsecutiveBlocks) {
  Scheduler s;
  EXPECT_EQ(s.reserve_seq(), 1u);
  EXPECT_EQ(s.reserve_seq(5), 2u);
  EXPECT_EQ(s.reserve_seq(), 7u);
  EXPECT_EQ(s.total_scheduled(), 7u);
  EXPECT_TRUE(s.empty());  // reserving inserts nothing
}

TEST(Scheduler, PrecedesTopComparesTimeThenSeq) {
  Scheduler s;
  EXPECT_TRUE(s.precedes_top(Time::max(), 1));  // empty calendar
  const std::uint64_t early = s.reserve_seq();
  s.schedule(Time::seconds(2.0), [] {});  // seq 2 on top
  const std::uint64_t late = s.reserve_seq();
  EXPECT_TRUE(s.precedes_top(Time::seconds(1.0), late));
  EXPECT_TRUE(s.precedes_top(Time::seconds(2.0), early));
  EXPECT_FALSE(s.precedes_top(Time::seconds(2.0), late));
  EXPECT_FALSE(s.precedes_top(Time::seconds(3.0), early));
}

TEST(Scheduler, PrecedesTopSkipsCancelledTop) {
  Scheduler s;
  const std::uint64_t seq = s.reserve_seq();
  const EventId top = s.schedule(Time::seconds(1.0), [] {});
  s.schedule(Time::seconds(5.0), [] {});
  EXPECT_FALSE(s.precedes_top(Time::seconds(2.0), seq));
  s.cancel(top);
  EXPECT_TRUE(s.precedes_top(Time::seconds(2.0), seq));
}

// Property: random inserts with random cancellations still pop sorted.
class SchedulerStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerStress, RandomWorkloadPopsSorted) {
  Scheduler s;
  RngStream rng(GetParam(), 0);
  std::vector<EventId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(s.schedule(
        Time::nanos(static_cast<std::int64_t>(rng.uniform_u64(0, 1'000'000))),
        [] {}));
  }
  // Cancel a random third.
  for (const EventId id : ids) {
    if (rng.bernoulli(1.0 / 3.0)) s.cancel(id);
  }
  Time prev = Time::zero();
  std::size_t popped = 0;
  while (!s.empty()) {
    const auto fired = s.pop();
    EXPECT_GE(fired.at, prev);
    prev = fired.at;
    ++popped;
  }
  EXPECT_GT(popped, 2500u);
  EXPECT_LT(popped, 4500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerStress,
                         ::testing::Values(1, 2, 3, 17, 99));

}  // namespace
}  // namespace wmn::sim
