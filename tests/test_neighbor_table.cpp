#include "routing/neighbor_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <random>
#include <vector>

namespace wmn::routing {
namespace {

TEST(NeighborTable, HeardAddsNeighbor) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  t.heard(net::Address(3), 1, 0.25, 7);
  EXPECT_TRUE(t.contains(net::Address(3)));
  EXPECT_EQ(t.count(), 1u);
  const NeighborInfo* info = t.info(net::Address(3));
  ASSERT_NE(info, nullptr);
  EXPECT_DOUBLE_EQ(info->load_index, 0.25);
  EXPECT_EQ(info->degree, 7);
}

TEST(NeighborTable, MeanLoadAveragesNeighbors) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  EXPECT_DOUBLE_EQ(t.mean_neighbor_load(), 0.0);  // alone
  t.heard(net::Address(1), 1, 0.2, 1);
  t.heard(net::Address(2), 1, 0.6, 1);
  EXPECT_DOUBLE_EQ(t.mean_neighbor_load(), 0.4);
}

TEST(NeighborTable, SilentNeighborExpiresAndFiresCallback) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  std::vector<net::Address> lost;
  t.set_loss_callback([&](net::Address a) { lost.push_back(a); });

  s.schedule(sim::Time::zero(), [&] { t.heard(net::Address(3), 1, 0.0, 0); });
  s.run_until(sim::Time::seconds(10.0));
  EXPECT_FALSE(t.contains(net::Address(3)));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], net::Address(3));
}

TEST(NeighborTable, RefreshedNeighborSurvives) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  std::vector<net::Address> lost;
  t.set_loss_callback([&](net::Address a) { lost.push_back(a); });

  // Re-beacon every second for 10 seconds.
  for (int i = 0; i <= 10; ++i) {
    s.schedule_at(sim::Time::seconds(static_cast<double>(i)),
                  [&] { t.heard(net::Address(3), 1, 0.0, 0); });
  }
  s.run_until(sim::Time::seconds(10.5));
  EXPECT_TRUE(t.contains(net::Address(3)));
  EXPECT_TRUE(lost.empty());
}

TEST(NeighborTable, RefreshUpdatesLivenessOnly) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  s.schedule(sim::Time::zero(), [&] { t.heard(net::Address(3), 1, 0.5, 4); });
  // Refresh (data frame overheard) at 2 s keeps it alive past 2.5 s.
  s.schedule(sim::Time::seconds(2.0), [&] { t.refresh(net::Address(3)); });
  s.schedule(sim::Time::seconds(4.0), [&] {
    EXPECT_TRUE(t.contains(net::Address(3)));
    // Load/degree unchanged by refresh.
    EXPECT_DOUBLE_EQ(t.info(net::Address(3))->load_index, 0.5);
  });
  s.run_until(sim::Time::seconds(4.1));
}

TEST(NeighborTable, RefreshUnknownIsNoop) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  t.refresh(net::Address(42));
  EXPECT_EQ(t.count(), 0u);
}

TEST(NeighborTable, SnapshotListsAll) {
  sim::Simulator s;
  NeighborTable t(s, sim::Time::seconds(1.0), 2);
  t.heard(net::Address(1), 1, 0.1, 1);
  t.heard(net::Address(2), 2, 0.2, 2);
  t.heard(net::Address(3), 3, 0.3, 3);
  EXPECT_EQ(t.snapshot().size(), 3u);
}

TEST(NeighborTable, MeanLoadSumsInAddressOrderWhateverTheInsertionOrder) {
  // 1e16 + 1.0 rounds back to 1e16, so the three loads sum to 0 in
  // address order and to 1 in some other orders.
  const std::array<double, 3> load = {1e16, 1.0, -1e16};  // addresses 1, 2, 3
  const double address_order = ((load[0] + load[1]) + load[2]) / 3.0;
  std::array<std::uint32_t, 3> order = {1, 2, 3};
  int permutations = 0;
  do {
    sim::Simulator s;
    NeighborTable t(s, sim::Time::seconds(1.0), 2);
    for (std::uint32_t a : order) t.heard(net::Address(a), 1, load[a - 1], 1);
    EXPECT_EQ(t.mean_neighbor_load(), address_order)
        << "insertion order " << order[0] << order[1] << order[2];
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(permutations, 6);
}

// ---- differential test against a std::map reference model -------------

// The documented NeighborTable semantics over an ordered map. The model
// runs its own sweeps: every lifetime/2 from construction or resume(),
// none while paused.
class NeighborModel {
 public:
  NeighborModel(sim::Time hello, std::uint32_t loss)
      : lifetime_(hello * static_cast<std::int64_t>(loss) + hello / 2),
        next_sweep_(lifetime_ / 2) {}

  // Apply every sweep due by `t`; returns the neighbours they lost.
  std::vector<net::Address> advance(sim::Time t) {
    std::vector<net::Address> lost;
    while (next_sweep_ && *next_sweep_ <= t) {
      for (auto it = table_.begin(); it != table_.end();) {
        if (it->second.last_heard + lifetime_ <= *next_sweep_) {
          lost.push_back(it->first);
          it = table_.erase(it);
        } else {
          ++it;
        }
      }
      *next_sweep_ = *next_sweep_ + lifetime_ / 2;
    }
    return lost;
  }
  void heard(net::Address a, std::uint32_t seqno, double load,
             std::uint16_t degree, sim::Time now) {
    NeighborInfo& n = table_[a];
    n.addr = a;
    n.last_heard = now;
    n.last_seqno = seqno;
    n.load_index = load;
    n.degree = degree;
  }
  void refresh(net::Address a, sim::Time now) {
    if (auto it = table_.find(a); it != table_.end()) it->second.last_heard = now;
  }
  void pause() {
    next_sweep_.reset();
    table_.clear();
  }
  void resume(sim::Time now) {
    if (!next_sweep_) next_sweep_ = now + lifetime_ / 2;
  }
  [[nodiscard]] std::vector<NeighborInfo> snapshot() const {
    std::vector<NeighborInfo> out;
    for (const auto& [a, n] : table_) out.push_back(n);
    return out;
  }
  [[nodiscard]] double mean() const {
    if (table_.empty()) return 0.0;
    double sum = 0.0;
    for (const auto& [a, n] : table_) sum += n.load_index;
    return sum / static_cast<double>(table_.size());
  }
  [[nodiscard]] std::optional<sim::Time> next_sweep() const { return next_sweep_; }

 private:
  sim::Time lifetime_;
  std::optional<sim::Time> next_sweep_;
  std::map<net::Address, NeighborInfo> table_;
};

bool same(const NeighborInfo& a, const NeighborInfo& b) {
  return a.addr == b.addr && a.last_heard == b.last_heard &&
         a.last_seqno == b.last_seqno && a.load_index == b.load_index &&
         a.degree == b.degree;
}

TEST(NeighborTable, MatchesOrderedMapModelUnderRandomOperations) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> op(0, 99);
    std::uniform_int_distribution<std::uint32_t> addr(0, 24);
    std::uniform_int_distribution<std::int64_t> gap_us(1, 600'000);
    std::uniform_real_distribution<double> load(0.0, 1.0);
    sim::Simulator s;
    NeighborTable t(s, sim::Time::seconds(1.0), 2);
    NeighborModel m(sim::Time::seconds(1.0), 2);
    std::vector<net::Address> lost;
    std::size_t total_lost = 0;
    t.set_loss_callback([&](net::Address a) { lost.push_back(a); });
    sim::Time at = sim::Time::zero();
    for (int step = 0; step < 3000; ++step) {
      at = at + sim::Time::micros(static_cast<double>(gap_us(rng)));
      // Keep operations off the sweep instants, where the two sides
      // would have to agree on a tie order.
      if (m.next_sweep() == at) at = at + sim::Time::micros(1.0);
      const int o = op(rng);
      const net::Address a(addr(rng));
      const double l = load(rng);
      s.schedule_at(at, [&, o, a, l] {
        const sim::Time now = s.now();
        // The model's mean is a fresh address-order sum. Reading here,
        // after this step's sweeps and before its edit, checks a mean
        // cached across each kind of edit on its own.
        EXPECT_EQ(t.mean_neighbor_load(), m.mean()) << "step " << step;
        if (o < 55) {
          const auto seqno = static_cast<std::uint32_t>(step);
          const auto degree = static_cast<std::uint16_t>(o);
          t.heard(a, seqno, l, degree);
          m.heard(a, seqno, l, degree, now);
        } else if (o < 92) {
          t.refresh(a);
          m.refresh(a, now);
        } else if (o < 95) {
          t.pause();
          m.pause();
        } else {
          t.resume();
          m.resume(now);
        }
      });
      const std::vector<net::Address> want_lost = m.advance(at);
      s.run_until(at);
      ASSERT_EQ(lost, want_lost) << "step " << step;
      total_lost += lost.size();
      lost.clear();
      const auto got = t.snapshot();
      const auto want = m.snapshot();
      ASSERT_EQ(got.size(), want.size()) << "step " << step;
      ASSERT_EQ(t.count(), want.size()) << "step " << step;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(same(got[i], want[i])) << "step " << step << " entry " << i;
        ASSERT_TRUE(t.contains(want[i].addr));
        ASSERT_TRUE(same(*t.info(want[i].addr), want[i]));
      }
      for (std::uint32_t v = 0; v <= 25; ++v) {
        ASSERT_EQ(t.contains(net::Address(v)),
                  std::any_of(want.begin(), want.end(),
                              [&](const NeighborInfo& n) { return n.addr == net::Address(v); }));
      }
      ASSERT_EQ(t.mean_neighbor_load(), m.mean()) << "step " << step;
    }
    EXPECT_GT(total_lost, 0u) << "no sweep ever expired a neighbour";
  }
}

}  // namespace
}  // namespace wmn::routing
