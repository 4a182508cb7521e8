// 4-ary-heap event calendar.
//
// Ordering is (timestamp, insertion sequence): two events scheduled for
// the same instant execute in the order they were scheduled, which the
// MAC layer relies on for deterministic slot resolution. The arity is a
// pure layout choice — (time, seq) is a total order, so the pop
// sequence is independent of heap shape; 4 children per node halves the
// tree depth, and the extra sibling compares stay inside one cache line
// of 24-byte entries.
//
// Storage: callables live in a slab of generation-tagged slots recycled
// through a free list; the heap itself holds small (time, seq, slot,
// gen) entries. Cancellation is O(1) and lazy — it releases the slot
// immediately (bumping its generation) and leaves the heap entry to be
// discarded when it surfaces, recognized by its stale generation. No
// hashing anywhere: pending() and the dead-entry test are one array
// index plus one integer compare. Together with the allocation-free
// EventFn this makes schedule/cancel/pop malloc-free after the slab and
// heap reach steady-state size.
//
// Keyed scheduling: reserve_seq() hands out the insertion sequence
// numbers the next schedule() calls would have taken, without inserting
// anything, and schedule_keyed() inserts at an explicit (time, seq)
// key. A caller that holds many future items (an arrival stream, see
// phy/channel.hpp) reserves each item's seq where it would have
// scheduled the item, keeps the items itself, and keeps only its
// earliest one in the calendar: the pop order is exactly the one the
// individually scheduled items would have produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace wmn::sim {

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Insert an event at absolute time `at`. Returns a cancellable id.
  // Inline, like schedule_keyed and pop below: they run once per
  // simulated event, and keeping them visible to callers lets the
  // fixed-size EventFn moves and the heap arithmetic fold into the call
  // site. Templated on the callable so a lambda's captures are
  // constructed directly in the calendar slot (no intermediate
  // full-capacity EventFn copy).
  template <typename F>
  EventId schedule(Time at, F&& fn) {
    return schedule_keyed(at, ++next_seq_, std::forward<F>(fn));
  }

  // Reserve `n` consecutive sequence numbers and return the first. Seqs
  // start at 1; 0 is never handed out.
  [[nodiscard]] std::uint64_t reserve_seq(std::uint64_t n = 1) {
    const std::uint64_t first = next_seq_ + 1;
    next_seq_ += n;
    return first;
  }

  // Insert at the key (at, seq); `seq` must come from reserve_seq() and
  // key at most one live event at a time (a cancelled or fired event's
  // seq may key its replacement).
  template <typename F>
  EventId schedule_keyed(Time at, std::uint64_t seq, F&& fn);

  // True iff the key (at, seq) orders before every live event.
  // Compacts stale heap tops as a side effect.
  [[nodiscard]] bool precedes_top(Time at, std::uint64_t seq) {
    if (live_count_ == 0) return true;
    drop_dead_top();
    const Entry& top = heap_.front();
    return at < top.at || (at == top.at && seq < top.seq);
  }

  // Remove a pending event; no-op on fired, cancelled, or invalid ids.
  // Releases the callable (and anything it captures) eagerly.
  void cancel(EventId id);

  // True iff `id` is scheduled and not yet fired or cancelled.
  [[nodiscard]] bool pending(EventId id) const {
    const std::uint32_t slot = id_slot(id);
    return slot < slots_.size() && slots_[slot].gen == id_gen(id);
  }

  // True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  [[nodiscard]] std::size_t size() const { return live_count_; }

  // Timestamp of the next live event; Time::max() when empty.
  // Compacts stale heap tops as a side effect.
  [[nodiscard]] Time next_time();

  // Remove and return the next live event. Precondition: !empty().
  struct Fired {
    Time at;
    EventFn fn;
  };
  Fired pop();

  // Drop everything (used when a run is aborted).
  void clear();

  // Sequence numbers ever handed out: events scheduled plus seqs
  // reserved (diagnostics / micro-benchmarks).
  [[nodiscard]] std::uint64_t total_scheduled() const { return next_seq_; }

 private:
  // A slot whose generation matches a heap entry / EventId is live; the
  // generation is bumped whenever the slot is released (fire or
  // cancel), which invalidates every outstanding reference at once.
  // (A stale id could only alias after the same slot cycles through
  // 2^32 generations while the id is held — not a practical concern.)
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNilSlot;
  };

  struct Entry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kArity = 4;  // children per heap node

  // EventId layout: high 32 bits generation, low 32 bits slot + 1 (so
  // id 0 stays the invalid sentinel).
  static constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return EventId((std::uint64_t{gen} << 32) | (slot + 1));
  }
  static constexpr std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id.value() & 0xFFFFFFFFu) - 1;
  }
  static constexpr std::uint32_t id_gen(EventId id) {
    return static_cast<std::uint32_t>(id.value() >> 32);
  }

  // Min-heap predicate on (time, seq).
  static bool later(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }

  [[nodiscard]] bool stale(const Entry& e) const {
    return slots_[e.slot].gen != e.gen;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void drop_dead_top();

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 0;
};

// --- hot-path definitions (see the note on schedule() above) ---------

inline std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNilSlot;
    return slot;
  }
  WMN_CHECK(slots_.size() < kNilSlot, "scheduler slot slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

inline void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = EventFn{};  // drop captures now, not when the entry surfaces
  ++s.gen;           // invalidates every outstanding id / heap entry
  s.next_free = free_head_;
  free_head_ = slot;
  --live_count_;
}

// Both sifts move a hole instead of swapping: one 24-byte entry copy
// per level plus one at the end, versus three per level for std::swap.
inline void Scheduler::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

inline void Scheduler::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    std::size_t smallest = first;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (later(heap_[smallest], heap_[c])) smallest = c;
    }
    if (!later(e, heap_[smallest])) break;
    heap_[i] = heap_[smallest];
    i = smallest;
  }
  heap_[i] = e;
}

inline void Scheduler::drop_dead_top() {
  while (!heap_.empty() && stale(heap_[0])) {
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

template <typename F>
inline EventId Scheduler::schedule_keyed(Time at, std::uint64_t seq, F&& fn) {
  WMN_CHECK(!at.is_negative(), "events cannot be scheduled before t=0");
  WMN_CHECK(seq != 0 && seq <= next_seq_, "event key was never reserved");
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::forward<F>(fn);
  heap_.push_back(Entry{at, seq, slot, s.gen});
  sift_up(heap_.size() - 1);
  ++live_count_;
  return make_id(slot, s.gen);
}

// Both peeks test live_count_ rather than heap_.empty(): with no live
// event the heap holds only stale entries, if any, and with one the
// compacted top is live. (GCC 12's -Wnull-dereference also cannot see
// through an empty() test on a just-constructed vector.)
inline Time Scheduler::next_time() {
  if (live_count_ == 0) return Time::max();
  drop_dead_top();
  return heap_.front().at;
}

inline Scheduler::Fired Scheduler::pop() {
  drop_dead_top();
  WMN_CHECK(!heap_.empty(), "pop() on empty scheduler");
  const Entry top = heap_[0];
  Fired out{top.at, std::move(slots_[top.slot].fn)};
  release_slot(top.slot);
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return out;
}

}  // namespace wmn::sim
