// Insertion-order independence: the orders that escape the routing
// layer (RERR destination lists, neighbour-loss fan-out, neighbour
// snapshots, walks over the AODV agent's small tables) must be a
// function of *logical* table content only. The tables hold no hash
// buckets any more, but the route table's slot order still records its
// insert/erase history, so these pin what may and may not leak. They
// are the runtime twins of the `wmn-unordered-iteration` static check
// in tools/wmn-tidy (see docs/TOOLING.md, "Custom static analysis"),
// which now guards new code.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "core/flat_map.hpp"
#include "routing/neighbor_table.hpp"
#include "routing/route_table.hpp"
#include "sim/simulator.hpp"

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

// Give a table a very different slot history: grow it far past the
// final size with short-lived routes, then reclaim them (each erase
// moves the last entry into the freed slot). The surviving logical
// content is untouched but the slot order is not.
void churn_slots(RouteTable& t, std::uint32_t base, int n) {
  const sim::Time life = sim::Time::seconds(1.0);
  for (int i = 0; i < n; ++i) {
    t.upsert(entry(base + static_cast<std::uint32_t>(i), 99, 1, life));
  }
  for (int i = 0; i < n; ++i) {
    t.invalidate(net::Address(base + static_cast<std::uint32_t>(i)),
                 sim::Time::seconds(2.0));
  }
  t.purge(sim::Time::seconds(100.0), sim::Time::seconds(1.0));
}

TEST(HashLayout, DestsViaIgnoresInsertionOrderAndRehashHistory) {
  const std::vector<std::uint32_t> dests = {17, 3, 42, 8, 29, 5, 11};
  const sim::Time life = sim::Time::seconds(50.0);

  RouteTable plain;
  for (std::uint32_t d : dests) plain.upsert(entry(d, 2, 3, life));

  RouteTable churned;
  churn_slots(churned, 1000, 256);
  for (auto it = dests.rbegin(); it != dests.rend(); ++it) {
    churned.upsert(entry(*it, 2, 3, life));
  }

  const auto a = plain.dests_via(net::Address(2), sim::Time::seconds(1.0));
  const auto b = churned.dests_via(net::Address(2), sim::Time::seconds(1.0));
  ASSERT_EQ(a.size(), dests.size());
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()))
      << "RERR destination order must not depend on slot order";
}

TEST(HashLayout, DestsViaFiltersByNextHopThenSorts) {
  RouteTable t;
  const sim::Time life = sim::Time::seconds(50.0);
  t.upsert(entry(9, 2, 3, life));
  t.upsert(entry(4, 7, 3, life));  // different next hop: excluded
  t.upsert(entry(1, 2, 3, life));
  const auto via2 = t.dests_via(net::Address(2), sim::Time::seconds(1.0));
  ASSERT_EQ(via2.size(), 2u);
  EXPECT_EQ(via2[0], net::Address(1));
  EXPECT_EQ(via2[1], net::Address(9));
}

TEST(HashLayout, NeighborLossCallbacksFireInAddressOrder) {
  const std::vector<std::uint32_t> addrs = {31, 2, 19, 7, 44, 3};

  auto run = [&](bool reversed) {
    sim::Simulator s;
    NeighborTable t(s, sim::Time::seconds(1.0), 2);
    std::vector<net::Address> lost;
    t.set_loss_callback([&](net::Address a) { lost.push_back(a); });
    s.schedule(sim::Time::zero(), [&] {
      auto order = addrs;
      if (reversed) std::reverse(order.begin(), order.end());
      for (std::uint32_t a : order) t.heard(net::Address(a), 1, 0.0, 0);
    });
    s.run_until(sim::Time::seconds(10.0));
    return lost;
  };

  const auto forward = run(false);
  const auto backward = run(true);
  ASSERT_EQ(forward.size(), addrs.size());
  EXPECT_EQ(forward, backward)
      << "loss fan-out order leaked the neighbour table's insertion order";
  EXPECT_TRUE(std::is_sorted(forward.begin(), forward.end()));
}

TEST(HashLayout, NeighborSnapshotSortedByAddress) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  for (std::uint32_t a : {12u, 5u, 33u, 1u}) {
    t.heard(net::Address(a), 1, 0.1, 0);
  }
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const NeighborInfo& x, const NeighborInfo& y) {
        return x.addr < y.addr;
      }));
}

TEST(HashLayout, FlatMapWalksInKeyOrderWhateverTheInsertionOrder) {
  const std::vector<std::uint32_t> keys = {31, 2, 19, 7, 44, 3};
  auto build = [&](bool reversed) {
    core::FlatMap<std::uint32_t, std::string> m;
    auto order = keys;
    if (reversed) std::reverse(order.begin(), order.end());
    for (std::uint32_t k : order) m[k] = std::to_string(k);
    return m;
  };
  auto forward = build(false);
  auto backward = build(true);
  std::vector<std::uint32_t> walked;
  for (const auto& [k, v] : forward) walked.push_back(k);
  EXPECT_TRUE(std::is_sorted(walked.begin(), walked.end()));
  EXPECT_EQ(walked.size(), keys.size());

  // erase_if visits in key order too, and both maps agree on it.
  std::vector<std::uint32_t> visited_f;
  std::vector<std::uint32_t> visited_b;
  forward.erase_if([&](std::uint32_t k, const std::string&) {
    visited_f.push_back(k);
    return k % 2 == 1;
  });
  backward.erase_if([&](std::uint32_t k, const std::string&) {
    visited_b.push_back(k);
    return k % 2 == 1;
  });
  EXPECT_EQ(visited_f, walked);
  EXPECT_EQ(visited_b, walked);
  ASSERT_EQ(std::distance(forward.begin(), forward.end()), 2);  // 2 and 44
  EXPECT_NE(forward.find(2), nullptr);
  EXPECT_EQ(forward.find(3), nullptr);
  const std::string* survivor = backward.find(44);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(*survivor, "44");
  const auto [value, inserted] = forward.try_emplace(44, "other");
  EXPECT_FALSE(inserted);
  EXPECT_EQ(value, "44");
}

}  // namespace
}  // namespace wmn::routing
