#include "mac/dcf_mac.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"

namespace wmn::mac {
namespace {

using mobility::ConstantPositionModel;
using mobility::Vec2;

struct MacBed {
  explicit MacBed(std::vector<Vec2> positions, MacConfig mac_cfg = {},
                  std::uint64_t seed = 1)
      : sim(seed), channel(sim, std::make_unique<phy::LogDistanceModel>()) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      mobilities.push_back(std::make_unique<ConstantPositionModel>(positions[i]));
      phys.push_back(std::make_unique<phy::WifiPhy>(sim, phy::PhyConfig{}, id,
                                                    mobilities.back().get()));
      channel.attach(phys.back().get());
      macs.push_back(std::make_unique<DcfMac>(sim, mac_cfg, net::Address(id),
                                              *phys.back(), factory));
      rx.emplace_back();
      failures.emplace_back();
      successes.emplace_back();
      // Capture this+index, not element references: the log vectors
      // reallocate as nodes are added.
      macs.back()->set_rx_callback(
          [this, i](net::Packet p, net::Address src) {
            rx[i].push_back({std::move(p), src});
          });
      macs.back()->set_tx_failed_callback(
          [this, i](net::Address dst, net::Packet p) {
            failures[i].push_back({dst, std::move(p)});
          });
      macs.back()->set_tx_ok_callback(
          [this, i](net::Address dst) { successes[i].push_back(dst); });
    }
  }

  net::Packet packet(std::uint32_t bytes) { return factory.make(bytes, sim.now()); }

  sim::Simulator sim;
  phy::WirelessChannel channel;
  net::PacketFactory factory;
  std::vector<std::unique_ptr<ConstantPositionModel>> mobilities;
  std::vector<std::unique_ptr<phy::WifiPhy>> phys;
  std::vector<std::unique_ptr<DcfMac>> macs;
  std::vector<std::vector<std::pair<net::Packet, net::Address>>> rx;
  std::vector<std::vector<std::pair<net::Address, net::Packet>>> failures;
  std::vector<std::vector<net::Address>> successes;
};

TEST(DcfMac, UnicastDeliversAndAcks) {
  MacBed tb({{0, 0}, {150, 0}});
  tb.sim.schedule(sim::Time::zero(),
                  [&] { tb.macs[0]->enqueue(tb.packet(512), net::Address(1)); });
  tb.sim.run_until(sim::Time::seconds(1.0));
  ASSERT_EQ(tb.rx[1].size(), 1u);
  EXPECT_EQ(tb.rx[1][0].second, net::Address(0));
  EXPECT_EQ(tb.successes[0].size(), 1u);
  EXPECT_TRUE(tb.failures[0].empty());
  EXPECT_EQ(tb.macs[1]->counters().tx_acks, 1u);
  EXPECT_EQ(tb.macs[0]->counters().tx_data_unicast, 1u);
}

TEST(DcfMac, UnicastToAbsentNodeFailsAfterRetries) {
  MacBed tb({{0, 0}, {150, 0}});
  tb.sim.schedule(sim::Time::zero(),
                  [&] { tb.macs[0]->enqueue(tb.packet(512), net::Address(77)); });
  tb.sim.run_until(sim::Time::seconds(5.0));
  ASSERT_EQ(tb.failures[0].size(), 1u);
  EXPECT_EQ(tb.failures[0][0].first, net::Address(77));
  EXPECT_EQ(tb.macs[0]->counters().retry_drops, 1u);
  // retry_limit retries beyond the first attempt.
  EXPECT_EQ(tb.macs[0]->counters().retries, MacConfig{}.retry_limit);
  // The failed packet is returned intact (512-byte payload).
  EXPECT_EQ(tb.failures[0][0].second.size_bytes(), 512u);
}

TEST(DcfMac, BroadcastHasNoAckNoRetry) {
  MacBed tb({{0, 0}, {150, 0}, {150, 100}});
  tb.sim.schedule(sim::Time::zero(), [&] {
    tb.macs[0]->enqueue(tb.packet(64), net::Address::broadcast());
  });
  tb.sim.run_until(sim::Time::seconds(1.0));
  EXPECT_EQ(tb.rx[1].size(), 1u);
  EXPECT_EQ(tb.rx[2].size(), 1u);
  EXPECT_EQ(tb.macs[0]->counters().tx_data_broadcast, 1u);
  EXPECT_EQ(tb.macs[0]->counters().retries, 0u);
  EXPECT_EQ(tb.macs[1]->counters().tx_acks, 0u);
  EXPECT_EQ(tb.macs[2]->counters().tx_acks, 0u);
}

TEST(DcfMac, QueueOverflowDrops) {
  MacConfig cfg;
  cfg.queue_capacity = 3;
  MacBed tb({{0, 0}, {150, 0}}, cfg);
  tb.sim.schedule(sim::Time::zero(), [&] {
    for (int i = 0; i < 10; ++i) {
      tb.macs[0]->enqueue(tb.packet(512), net::Address(1));
    }
  });
  tb.sim.run_until(sim::Time::seconds(5.0));
  EXPECT_GT(tb.macs[0]->counters().queue_drops, 0u);
  // Everything accepted must eventually be delivered.
  EXPECT_EQ(tb.rx[1].size(), tb.macs[0]->counters().enqueued);
}

TEST(DcfMac, ManyFramesAllDelivered) {
  MacBed tb({{0, 0}, {150, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] {
    for (int i = 0; i < 40; ++i) {
      tb.macs[0]->enqueue(tb.packet(512), net::Address(1));
    }
  });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.rx[1].size(), 40u);
  EXPECT_EQ(tb.successes[0].size(), 40u);
}

TEST(DcfMac, BidirectionalTrafficCompletes) {
  MacBed tb({{0, 0}, {150, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] {
    for (int i = 0; i < 20; ++i) {
      tb.macs[0]->enqueue(tb.packet(256), net::Address(1));
      tb.macs[1]->enqueue(tb.packet(256), net::Address(0));
    }
  });
  tb.sim.run_until(sim::Time::seconds(10.0));
  EXPECT_EQ(tb.rx[1].size(), 20u);
  EXPECT_EQ(tb.rx[0].size(), 20u);
}

TEST(DcfMac, HiddenTerminalsEventuallyDeliverViaRetries) {
  // 0 and 2 cannot hear each other (480+ m apart) but both reach 1:
  // the classic hidden-terminal geometry. Retries must recover most
  // frames even though first attempts collide.
  MacBed tb({{0, 0}, {245, 0}, {490, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] {
    for (int i = 0; i < 10; ++i) {
      tb.macs[0]->enqueue(tb.packet(512), net::Address(1));
      tb.macs[2]->enqueue(tb.packet(512), net::Address(1));
    }
  });
  tb.sim.run_until(sim::Time::seconds(30.0));
  EXPECT_GT(tb.macs[0]->counters().retries + tb.macs[2]->counters().retries, 0u);
  EXPECT_GE(tb.rx[1].size(), 16u);  // most of the 20 make it
}

TEST(DcfMac, OverhearsButDoesNotDeliverForeignUnicast) {
  MacBed tb({{0, 0}, {150, 0}, {75, 60}});
  tb.sim.schedule(sim::Time::zero(),
                  [&] { tb.macs[0]->enqueue(tb.packet(128), net::Address(1)); });
  tb.sim.run_until(sim::Time::seconds(1.0));
  EXPECT_EQ(tb.rx[1].size(), 1u);
  EXPECT_TRUE(tb.rx[2].empty());
  EXPECT_GT(tb.macs[2]->counters().rx_overheard, 0u);
}

TEST(DcfMac, QueueRatioReflectsBacklog) {
  MacConfig cfg;
  cfg.queue_capacity = 10;
  MacBed tb({{0, 0}, {150, 0}}, cfg);
  EXPECT_DOUBLE_EQ(tb.macs[0]->queue_ratio(), 0.0);
  tb.sim.schedule(sim::Time::zero(), [&] {
    for (int i = 0; i < 5; ++i) {
      tb.macs[0]->enqueue(tb.packet(512), net::Address(1));
    }
    EXPECT_DOUBLE_EQ(tb.macs[0]->queue_ratio(), 0.5);
  });
  tb.sim.run_until(sim::Time::seconds(5.0));
  EXPECT_DOUBLE_EQ(tb.macs[0]->queue_ratio(), 0.0);
}

TEST(DcfMac, BusyRatioRisesUnderSaturation) {
  MacBed tb({{0, 0}, {150, 0}});
  // Saturate: a packet every 2 ms for 2 seconds (~2.2 ms air time each).
  for (int i = 0; i < 1000; ++i) {
    tb.sim.schedule_at(sim::Time::millis(i * 2.0), [&] {
      tb.macs[0]->enqueue(tb.packet(512), net::Address(1));
    });
  }
  tb.sim.run_until(sim::Time::seconds(2.0));
  EXPECT_GT(tb.macs[1]->busy_ratio(), 0.5);  // neighbour sees busy air
}

TEST(DcfMac, FairnessBothSaturatedSendersShareChannel) {
  MacBed tb({{0, 0}, {100, 0}, {50, 80}});
  // Nodes 0 and 1 both saturate toward node 2.
  for (int i = 0; i < 500; ++i) {
    tb.sim.schedule_at(sim::Time::millis(i * 4.0), [&] {
      tb.macs[0]->enqueue(tb.packet(512), net::Address(2));
      tb.macs[1]->enqueue(tb.packet(512), net::Address(2));
    });
  }
  tb.sim.run_until(sim::Time::seconds(6.0));
  const auto d0 = static_cast<double>(tb.macs[0]->counters().tx_data_unicast);
  const auto d1 = static_cast<double>(tb.macs[1]->counters().tx_data_unicast);
  EXPECT_GT(d0, 0.0);
  EXPECT_GT(d1, 0.0);
  EXPECT_LT(std::abs(d0 - d1) / std::max(d0, d1), 0.3);  // within 30%
}

// Forwards every PHY callback to the MAC and stamps the CCA ones.
class CcaTap final : public phy::PhyListener {
 public:
  CcaTap(DcfMac& mac, const sim::Simulator& sim) : mac_(mac), sim_(sim) {}
  void on_rx_start() override { mac_.on_rx_start(); }
  void on_rx_end(std::optional<net::Packet> p, double dbm) override {
    mac_.on_rx_end(std::move(p), dbm);
  }
  void on_tx_end() override { mac_.on_tx_end(); }
  void on_cca_change(bool busy) override {
    edges.emplace_back(busy, sim_.now());
    mac_.on_cca_change(busy);
  }
  std::vector<std::pair<bool, sim::Time>> edges;

 private:
  DcfMac& mac_;
  const sim::Simulator& sim_;
};

TEST(DcfMac, WatchesCcaOnlyWhileContending) {
  // Node 2 is 320 m from nodes 0 and 1: its frame reaches them as weak
  // energy, above the CCA threshold but too weak to decode. Node 0
  // queues a frame while that energy is on the air, so its MAC contends
  // and watches; node 1 has nothing to send and never watches.
  MacBed tb({{0, 0}, {0, 10}, {320, 0}});
  CcaTap tap0(*tb.macs[0], tb.sim);
  CcaTap tap1(*tb.macs[1], tb.sim);
  tb.phys[0]->set_listener(&tap0);
  tb.phys[1]->set_listener(&tap1);
  const sim::Time air = tb.phys[2]->tx_duration(500);
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[2]->send(tb.packet(500)); });
  bool watched_while_contending = false;
  tb.sim.schedule_at(sim::Time::micros(100.0), [&] {
    EXPECT_FALSE(tb.phys[0]->watched());
    tb.macs[0]->enqueue(tb.packet(64), net::Address(1));
    watched_while_contending = tb.phys[0]->watched();
  });
  tb.sim.run_until(sim::Time::seconds(1.0));
  EXPECT_TRUE(watched_while_contending);
  // The one edge node 0 needs, idle at the frame's end at node 0, at its
  // exact nanosecond.
  const sim::Time end_at_0 = air + sim::Time::seconds(320.0 / phy::kSpeedOfLight);
  ASSERT_EQ(tap0.edges.size(), 1u);
  EXPECT_FALSE(tap0.edges[0].first);
  EXPECT_EQ(tap0.edges[0].second, end_at_0);
  EXPECT_TRUE(tap1.edges.empty());
  EXPECT_EQ(tb.successes[0].size(), 1u);
  EXPECT_FALSE(tb.phys[0]->watched());  // done contending
  // Node 1 still accounts the busy time it never watched.
  EXPECT_GE(tb.phys[1]->cumulative_busy_time(), air);
}

// Feed node 1 a data frame as if its radio had just decoded it.
void inject(MacBed& tb, std::uint32_t from, std::uint16_t seq, bool retry) {
  net::Packet p = tb.packet(64);
  p.push(MacHeader{net::Address(from), net::Address(1), FrameType::kData, seq, retry});
  tb.macs[1]->on_rx_end(std::move(p), -50.0);
}

TEST(DcfMac, DuplicateDetectionIsPerPeerAndResetsOnPowerCycle) {
  MacBed tb({{0, 0}, {150, 0}, {150, 100}});
  const auto& c = tb.macs[1]->counters();
  // (peer, seq, retry flag, delivered?) — one frame per millisecond.
  struct Frame {
    std::uint32_t from;
    std::uint16_t seq;
    bool retry;
    bool delivered;
  };
  const std::vector<Frame> frames = {
      {0, 5, false, true},   // first frame from 0
      {0, 5, true, false},   // its retry: duplicate
      {2, 5, true, true},    // same seq from another peer: new
      {0, 6, false, true},
      {2, 5, true, false},   // 2's retry, interleaved with 0's frames
      {0, 6, true, false},
      {0, 6, false, true},   // same seq without the retry bit: new frame
      {2, 7, true, true},    // retry bit on a new seq: new frame
  };
  for (std::size_t i = 0; i < frames.size(); ++i) {
    tb.sim.schedule_at(sim::Time::millis(static_cast<double>(i + 1)), [&, i] {
      const std::size_t before = tb.rx[1].size();
      inject(tb, frames[i].from, frames[i].seq, frames[i].retry);
      EXPECT_EQ(tb.rx[1].size() - before, frames[i].delivered ? 1u : 0u)
          << "frame " << i;
    });
  }
  tb.sim.run_until(sim::Time::millis(20.0));
  EXPECT_EQ(c.rx_duplicates, 3u);
  EXPECT_EQ(tb.rx[1].size(), 5u);
  EXPECT_EQ(tb.rx[1][1].second, net::Address(2));

  // A power cycle forgets every peer's last seq: the retry of 0's seq 6
  // is delivered afresh.
  tb.sim.schedule_at(sim::Time::millis(30.0), [&] {
    tb.macs[1]->power_down();
    tb.macs[1]->power_up();
    inject(tb, 0, 6, true);
    inject(tb, 0, 6, true);
  });
  tb.sim.run_until(sim::Time::millis(40.0));
  EXPECT_EQ(tb.rx[1].size(), 6u);
  EXPECT_EQ(c.rx_duplicates, 4u);
}

}  // namespace
}  // namespace wmn::mac
