#include "routing/route_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <vector>

namespace wmn::routing {
namespace {

RouteEntry entry(std::uint32_t dest, std::uint32_t via, std::uint8_t hops,
                 sim::Time expires, std::uint32_t seqno = 1) {
  RouteEntry e;
  e.dest = net::Address(dest);
  e.next_hop = net::Address(via);
  e.hop_count = hops;
  e.dest_seqno = seqno;
  e.valid_seqno = true;
  e.state = RouteState::kValid;
  e.expires = expires;
  return e;
}

TEST(RouteTable, LookupFindsValidEntry) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  const RouteEntry* e = t.lookup(net::Address(5), sim::Time::seconds(1.0));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->next_hop, net::Address(2));
  EXPECT_EQ(e->hop_count, 3);
}

TEST(RouteTable, LookupMissesUnknownDest) {
  RouteTable t;
  EXPECT_EQ(t.lookup(net::Address(9), sim::Time::zero()), nullptr);
}

TEST(RouteTable, ExpiredEntryBecomesInvalidLazily) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  EXPECT_NE(t.lookup(net::Address(5), sim::Time::seconds(9.0)), nullptr);
  EXPECT_EQ(t.lookup(net::Address(5), sim::Time::seconds(10.0)), nullptr);
  // The dead entry still exists for its seqno.
  ASSERT_NE(t.find(net::Address(5)), nullptr);
  EXPECT_EQ(t.find(net::Address(5))->state, RouteState::kInvalid);
}

TEST(RouteTable, InvalidateBumpsSeqno) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0), 7));
  const auto inv = t.invalidate(net::Address(5), sim::Time::seconds(1.0));
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->dest_seqno, 8u);  // 7 + 1
  EXPECT_EQ(t.lookup(net::Address(5), sim::Time::seconds(1.0)), nullptr);
}

TEST(RouteTable, InvalidateMissingOrInvalidReturnsNothing) {
  RouteTable t;
  EXPECT_FALSE(t.invalidate(net::Address(5), sim::Time::zero()).has_value());
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  (void)t.invalidate(net::Address(5), sim::Time::zero());
  EXPECT_FALSE(t.invalidate(net::Address(5), sim::Time::zero()).has_value());
}

TEST(RouteTable, TouchExtendsLifetime) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.touch(net::Address(5), sim::Time::seconds(20.0));
  EXPECT_NE(t.lookup(net::Address(5), sim::Time::seconds(15.0)), nullptr);
}

TEST(RouteTable, TouchNeverShortensLifetime) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.touch(net::Address(5), sim::Time::seconds(3.0));
  EXPECT_NE(t.lookup(net::Address(5), sim::Time::seconds(9.0)), nullptr);
}

TEST(RouteTable, DestsViaFindsAllRoutesThroughHop) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.upsert(entry(6, 2, 4, sim::Time::seconds(10.0)));
  t.upsert(entry(7, 3, 2, sim::Time::seconds(10.0)));
  auto dests = t.dests_via(net::Address(2), sim::Time::seconds(1.0));
  EXPECT_EQ(dests.size(), 2u);
}

TEST(RouteTable, DestsViaSkipsExpired) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(1.0)));
  EXPECT_TRUE(t.dests_via(net::Address(2), sim::Time::seconds(2.0)).empty());
}

std::vector<net::Address> precursors_of(const RouteTable& t,
                                        std::uint32_t dest) {
  std::vector<net::Address> out;
  t.append_precursors(net::Address(dest), out);
  return out;
}

TEST(RouteTable, PrecursorsAccumulate) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.add_precursor(net::Address(5), net::Address(9));
  t.add_precursor(net::Address(5), net::Address(8));
  t.add_precursor(net::Address(5), net::Address(8));  // dup
  // The list is kept sorted and duplicate-free — RERR precursor fanout
  // reads it in this normalised order.
  const std::vector<net::Address> expect{net::Address(8), net::Address(9)};
  EXPECT_EQ(precursors_of(t, 5), expect);
}

TEST(RouteTable, AppendPrecursorsKeepsWhatIsThere) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.add_precursor(net::Address(5), net::Address(8));
  std::vector<net::Address> out{net::Address(1)};
  t.append_precursors(net::Address(5), out);
  t.append_precursors(net::Address(6), out);  // no entry: nothing
  const std::vector<net::Address> expect{net::Address(1), net::Address(8)};
  EXPECT_EQ(out, expect);
}

TEST(RouteTable, RemovePrecursorScrubsEveryEntry) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.upsert(entry(6, 3, 2, sim::Time::seconds(10.0)));
  t.add_precursor(net::Address(5), net::Address(8));
  t.add_precursor(net::Address(5), net::Address(9));
  t.add_precursor(net::Address(6), net::Address(8));
  t.remove_precursor(net::Address(8));
  const std::vector<net::Address> expect{net::Address(9)};
  EXPECT_EQ(precursors_of(t, 5), expect);
  EXPECT_TRUE(precursors_of(t, 6).empty());
}

TEST(RouteTable, AddPrecursorToAbsentDestinationDoesNothing) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.add_precursor(net::Address(6), net::Address(8));
  EXPECT_TRUE(precursors_of(t, 6).empty());
  // A later entry for that destination starts with no precursors.
  t.upsert(entry(6, 3, 2, sim::Time::seconds(10.0)));
  EXPECT_TRUE(precursors_of(t, 6).empty());
}

TEST(RouteTable, UpsertOverLiveEntryKeepsPrecursors) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.add_precursor(net::Address(5), net::Address(8));
  t.upsert(entry(5, 4, 1, sim::Time::seconds(20.0), 7));
  ASSERT_NE(t.find(net::Address(5)), nullptr);
  EXPECT_EQ(t.find(net::Address(5))->next_hop, net::Address(4));
  const std::vector<net::Address> expect{net::Address(8)};
  EXPECT_EQ(precursors_of(t, 5), expect);
  // Invalidation keeps them too: the RERR for the break reads them.
  ASSERT_TRUE(
      t.invalidate(net::Address(5), sim::Time::seconds(1.0)).has_value());
  EXPECT_EQ(precursors_of(t, 5), expect);
}

TEST(RouteTable, PurgeDropsDeadDestinationsPrecursors) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(1.0)));
  t.upsert(entry(6, 2, 3, sim::Time::seconds(100.0)));
  t.add_precursor(net::Address(5), net::Address(8));
  t.add_precursor(net::Address(6), net::Address(9));
  t.purge(sim::Time::seconds(2.0), sim::Time::seconds(10.0));
  EXPECT_EQ(precursors_of(t, 5).size(), 1u);  // dead but retained
  t.purge(sim::Time::seconds(13.0), sim::Time::seconds(10.0));
  ASSERT_EQ(t.find(net::Address(5)), nullptr);
  EXPECT_TRUE(precursors_of(t, 5).empty());
  const std::vector<net::Address> expect{net::Address(9)};
  EXPECT_EQ(precursors_of(t, 6), expect);
  // A new route to the purged destination starts clean.
  t.upsert(entry(5, 2, 3, sim::Time::seconds(100.0)));
  EXPECT_TRUE(precursors_of(t, 5).empty());
}

TEST(RouteTable, ClearDropsEverything) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.upsert(entry(6, 2, 3, sim::Time::seconds(10.0)));
  t.add_precursor(net::Address(5), net::Address(8));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(net::Address(5)), nullptr);
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  EXPECT_TRUE(precursors_of(t, 5).empty());
}

TEST(RouteTable, PurgeRemovesLongDeadEntries) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(1.0)));
  t.upsert(entry(6, 2, 3, sim::Time::seconds(100.0)));
  // At t=2 the first entry expires; retention 10 s.
  t.purge(sim::Time::seconds(2.0), sim::Time::seconds(10.0));
  EXPECT_EQ(t.size(), 2u);  // freshly dead, still retained
  t.purge(sim::Time::seconds(13.0), sim::Time::seconds(10.0));
  EXPECT_EQ(t.size(), 1u);  // dead entry reclaimed
  EXPECT_NE(t.find(net::Address(6)), nullptr);
}

TEST(RouteTable, UpsertOverwrites) {
  RouteTable t;
  t.upsert(entry(5, 2, 3, sim::Time::seconds(10.0)));
  t.upsert(entry(5, 4, 1, sim::Time::seconds(10.0)));
  const RouteEntry* e = t.lookup(net::Address(5), sim::Time::zero());
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->next_hop, net::Address(4));
  EXPECT_EQ(t.size(), 1u);
}

// ---- differential test against a std::map reference model -------------

// The documented RouteTable semantics over ordered maps: no index, no
// slots, nothing moved on erase, and each destination's precursors in
// a list of their own.
class RouteModel {
 public:
  const RouteEntry* lookup(net::Address dest, sim::Time now) {
    RouteEntry* e = find(dest);
    if (e == nullptr) return nullptr;
    if (e->state == RouteState::kValid && e->expires <= now) {
      e->state = RouteState::kInvalid;
      e->expires = now;
    }
    return e->state == RouteState::kValid ? e : nullptr;
  }
  RouteEntry* find(net::Address dest) {
    auto it = table_.find(dest);
    return it == table_.end() ? nullptr : &it->second;
  }
  void upsert(const RouteEntry& e) { table_[e.dest] = e; }
  void touch(net::Address dest, sim::Time expires) {
    RouteEntry* e = find(dest);
    if (e != nullptr && e->state == RouteState::kValid) {
      e->expires = std::max(e->expires, expires);
    }
  }
  std::optional<RouteEntry> invalidate(net::Address dest, sim::Time now) {
    RouteEntry* e = find(dest);
    if (e == nullptr || e->state != RouteState::kValid) return std::nullopt;
    e->state = RouteState::kInvalid;
    if (e->valid_seqno) ++e->dest_seqno;
    e->expires = now;
    return *e;
  }
  std::vector<net::Address> dests_via(net::Address via, sim::Time now) const {
    std::vector<net::Address> out;
    for (const auto& [dest, e] : table_) {
      if (e.state == RouteState::kValid && e.expires > now && e.next_hop == via) {
        out.push_back(dest);
      }
    }
    return out;
  }
  void add_precursor(net::Address dest, net::Address p) {
    if (find(dest) == nullptr) return;
    auto& prec = precursors_[dest];
    if (std::find(prec.begin(), prec.end(), p) == prec.end()) {
      prec.insert(std::upper_bound(prec.begin(), prec.end(), p), p);
    }
  }
  std::vector<net::Address> precursors(net::Address dest) const {
    auto it = precursors_.find(dest);
    return it == precursors_.end() ? std::vector<net::Address>{} : it->second;
  }
  void remove_precursor(net::Address p) {
    for (auto& [dest, prec] : precursors_) std::erase(prec, p);
  }
  void purge(sim::Time now, sim::Time retention) {
    for (auto it = table_.begin(); it != table_.end();) {
      RouteEntry& e = it->second;
      if (e.state == RouteState::kValid && e.expires <= now) {
        e.state = RouteState::kInvalid;
        e.expires = now;
        ++it;
      } else if (e.state == RouteState::kInvalid && e.expires + retention <= now) {
        precursors_.erase(it->first);
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
  }
  void clear() {
    table_.clear();
    precursors_.clear();
  }
  [[nodiscard]] std::size_t size() const { return table_.size(); }

 private:
  std::map<net::Address, RouteEntry> table_;
  std::map<net::Address, std::vector<net::Address>> precursors_;
};

auto fields(const RouteEntry& e) {
  return std::tie(e.metric, e.expires, e.dest, e.next_hop, e.dest_seqno,
                  e.hop_count, e.valid_seqno, e.state);
}

// Most destinations are small; a few are far out, so the dense index
// grows in several exact steps.
net::Address random_dest(std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint32_t> pick(0, 99);
  const std::uint32_t v = pick(rng);
  if (v < 90) return net::Address(v % 40);
  return net::Address(100 + 37 * (v - 90));
}

void expect_same(RouteTable& t, RouteModel& m, sim::Time now, int step) {
  ASSERT_EQ(t.size(), m.size()) << "step " << step;
  for (std::uint32_t a = 0; a < 500; ++a) {
    const RouteEntry* got = t.find(net::Address(a));
    const RouteEntry* want = m.find(net::Address(a));
    ASSERT_EQ(got == nullptr, want == nullptr) << "step " << step << " dest " << a;
    if (got != nullptr) {
      ASSERT_TRUE(fields(*got) == fields(*want)) << "step " << step << " dest " << a;
    }
    ASSERT_EQ(precursors_of(t, a), m.precursors(net::Address(a)))
        << "step " << step << " dest " << a;
  }
  for (std::uint32_t via = 0; via < 8; ++via) {
    ASSERT_EQ(t.dests_via(net::Address(via), now),
              m.dests_via(net::Address(via), now))
        << "step " << step << " via " << via;
  }
}

TEST(RouteTable, MatchesOrderedMapModelUnderRandomOperations) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> op(0, 99);
    std::uniform_int_distribution<std::uint32_t> small(0, 7);
    std::uniform_int_distribution<std::int64_t> ms(0, 3000);
    RouteTable t;
    RouteModel m;
    sim::Time now = sim::Time::zero();
    for (int step = 0; step < 4000; ++step) {
      now = now + sim::Time::millis(static_cast<double>(ms(rng) / 10));
      const net::Address dest = random_dest(rng);
      const int o = op(rng);
      if (o < 30) {
        RouteEntry e;
        e.dest = dest;
        e.next_hop = net::Address(small(rng));
        e.hop_count = static_cast<std::uint8_t>(1 + small(rng));
        e.dest_seqno = small(rng);
        e.valid_seqno = small(rng) < 6;
        e.metric = static_cast<double>(small(rng)) * 0.25;
        e.state = small(rng) < 6 ? RouteState::kValid : RouteState::kInvalid;
        e.expires = now + sim::Time::millis(static_cast<double>(ms(rng)));
        t.upsert(e);
        m.upsert(e);
      } else if (o < 40) {
        const sim::Time until = now + sim::Time::millis(static_cast<double>(ms(rng)));
        t.touch(dest, until);
        m.touch(dest, until);
      } else if (o < 50) {
        const auto a = t.invalidate(dest, now);
        const auto b = m.invalidate(dest, now);
        ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
        if (a) {
          ASSERT_TRUE(fields(*a) == fields(*b)) << "step " << step;
        }
      } else if (o < 60) {
        const net::Address p(small(rng));
        t.add_precursor(dest, p);
        m.add_precursor(dest, p);
      } else if (o < 65) {
        const net::Address p(small(rng));
        t.remove_precursor(p);
        m.remove_precursor(p);
      } else if (o < 77) {
        // Purge at a `now` that sometimes jumps far ahead, so whole
        // runs of entries are reclaimed at once.
        const sim::Time at = now + sim::Time::millis(static_cast<double>(
                                      small(rng) < 2 ? ms(rng) * 5 : 0));
        const sim::Time retention =
            sim::Time::millis(static_cast<double>(500 + ms(rng) / 2));
        t.purge(at, retention);
        m.purge(at, retention);
        now = at;
      } else if (o < 78) {
        t.clear();
        m.clear();
      } else {
        const RouteEntry* a = t.lookup(dest, now);
        const RouteEntry* b = m.lookup(dest, now);
        ASSERT_EQ(a == nullptr, b == nullptr) << "step " << step;
        if (a != nullptr) {
          ASSERT_TRUE(fields(*a) == fields(*b)) << "step " << step;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(t, m, now, step));
    }
  }
}

}  // namespace
}  // namespace wmn::routing
