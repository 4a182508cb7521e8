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

// Forwards every PHY callback to the MAC and stamps each CCA edge with
// its instant.
class CcaTap final : public phy::PhyListener {
 public:
  CcaTap(DcfMac& mac, const phy::WifiPhy& phy) : mac_(mac), phy_(phy) {}
  void on_rx_start() override { mac_.on_rx_start(); }
  void on_rx_end(std::optional<net::Packet> p, double dbm) override {
    mac_.on_rx_end(std::move(p), dbm);
  }
  void on_tx_end() override { mac_.on_tx_end(); }
  void on_cca_change(bool busy) override {
    edges.emplace_back(busy, phy_.cca_since());
    mac_.on_cca_change(busy);
  }
  std::vector<std::pair<bool, sim::Time>> edges;

 private:
  DcfMac& mac_;
  const phy::WifiPhy& phy_;
};

TEST(DcfMac, WatchesCcaOnlyWhileContending) {
  // Node 2 is 320 m from nodes 0 and 1: its frame reaches them as weak
  // energy, above the CCA threshold but too weak to decode. Node 0
  // queues a frame while that energy is on the air, so its MAC contends
  // and watches; node 1 has nothing to send and never watches.
  MacBed tb({{0, 0}, {0, 10}, {320, 0}});
  CcaTap tap0(*tb.macs[0], *tb.phys[0]);
  CcaTap tap1(*tb.macs[1], *tb.phys[1]);
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
  // exact nanosecond (delivered when the MAC's access timer settles the
  // radio, not by an event of its own).
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

// --- the access countdown at exact instants ------------------------------
// Node 0 contends for one frame, queued at kQueuedAt on an idle medium,
// while a script drives its CCA. Each case checks the instant the frame
// goes on the air against the DCF rules worked by hand: DIFS = 50 us,
// slot = 20 us, and k = the backoff the MAC draws (read off an
// undisturbed run with the same seed, so the draw is the same).

constexpr sim::Time kQueuedAt = sim::Time::millis(1.0);
constexpr sim::Time kDifs = sim::Time::micros(50.0);
constexpr sim::Time kSlot = sim::Time::micros(20.0);

// Forwards every PHY callback to the MAC and stamps its own
// transmissions' ends.
class TxTap final : public phy::PhyListener {
 public:
  TxTap(DcfMac& mac, const sim::Simulator& sim) : mac_(mac), sim_(sim) {}
  void on_rx_start() override { mac_.on_rx_start(); }
  void on_rx_end(std::optional<net::Packet> p, double dbm) override {
    mac_.on_rx_end(std::move(p), dbm);
  }
  void on_tx_end() override {
    tx_ends.push_back(sim_.now());
    mac_.on_tx_end();
  }
  void on_cca_change(bool busy) override { mac_.on_cca_change(busy); }
  std::vector<sim::Time> tx_ends;

 private:
  DcfMac& mac_;
  const sim::Simulator& sim_;
};

struct Countdown {
  explicit Countdown(std::vector<Vec2> positions = {{0, 0}}, MacConfig cfg = {})
      : tb(std::move(positions), cfg, /*seed=*/3), tap(*tb.macs[0], tb.sim) {
    tb.phys[0]->set_listener(&tap);
  }
  // Queue a frame of `bytes` for `dst` at kQueuedAt, run, and return
  // the instant its first transmission (`first_air` long) began.
  sim::Time run(net::Address dst, std::uint32_t bytes, sim::Time first_air) {
    tb.sim.schedule_at(kQueuedAt, [this, dst, bytes] {
      tb.macs[0]->enqueue(tb.packet(bytes), dst);
    });
    tb.sim.run_until(sim::Time::millis(20.0));
    EXPECT_FALSE(tap.tx_ends.empty());
    return tap.tx_ends.empty() ? sim::Time::max() : tap.tx_ends[0] - first_air;
  }
  sim::Time run_broadcast() {
    const std::uint32_t bytes = 64;
    return run(net::Address::broadcast(), bytes,
               tb.phys[0]->tx_duration(bytes + MacHeader::kWireSize));
  }
  // A -90 dBm copy (above the -92 dBm CCA threshold, below decode
  // sensitivity) on the air over [begin, end), entered `lead` early.
  void weak(sim::Time begin, sim::Time end, sim::Time lead) {
    tb.sim.schedule_at(begin - lead, [this, begin, end] {
      tb.phys[0]->add_weak_copy(begin, end, phy::dbm_to_mw(-90.0));
    });
  }

  MacBed tb;
  TxTap tap;
};

// The backoff node 0 draws for its first frame.
std::int64_t drawn_slots() {
  Countdown c;
  const sim::Time start = c.run_broadcast();
  return (start - kQueuedAt - kDifs).ns() / kSlot.ns();
}

TEST(DcfCountdown, UndisturbedFrameGoesAfterDifsAndItsBackoff) {
  const std::int64_t k = drawn_slots();
  // The cases below need a draw that leaves room mid-backoff.
  ASSERT_GE(k, 4);
  Countdown c;
  EXPECT_EQ(c.run_broadcast(), kQueuedAt + kDifs + kSlot * k);
}

TEST(DcfCountdown, BusyEdgeInsideDifsRestartsIt) {
  const std::int64_t k = drawn_slots();
  Countdown c;
  const sim::Time busy = kQueuedAt + sim::Time::micros(20.0);
  const sim::Time idle = busy + sim::Time::micros(100.0);
  c.weak(busy, idle, sim::Time::micros(1.0));
  // The DIFS starts again at the idle edge; no slot was spent.
  EXPECT_EQ(c.run_broadcast(), idle + kDifs + kSlot * k);
}

TEST(DcfCountdown, BusyEdgeMidBackoffFreezesWholeSlotsOnly) {
  const std::int64_t k = drawn_slots();
  Countdown c;
  // 2 slots and 7 us into the backoff: 2 whole slots are spent, the
  // partial third is not.
  const sim::Time busy = kQueuedAt + kDifs + kSlot * 2 + sim::Time::micros(7.0);
  const sim::Time idle = busy + sim::Time::micros(100.0);
  c.weak(busy, idle, sim::Time::micros(1.0));
  EXPECT_EQ(c.run_broadcast(), idle + kDifs + kSlot * (k - 2));
}

TEST(DcfCountdown, BusyEdgeAtTheCompletionNanosecondDoesNotStopTheFrame) {
  const std::int64_t k = drawn_slots();
  Countdown c;
  const sim::Time done = kQueuedAt + kDifs + kSlot * k;
  // Entered 1 us ahead, as a copy is at most one propagation delay
  // before it begins: the countdown's completion comes first.
  c.weak(done, done + sim::Time::micros(100.0), sim::Time::micros(1.0));
  EXPECT_EQ(c.run_broadcast(), done);
}

TEST(DcfCountdown, ArrivalAtTheCompletionNanosecondDoesNotStopTheFrame) {
  const std::int64_t k = drawn_slots();
  // The frame is queued while copy A is on the air. Copy C, entered
  // later, overlaps A's end and outlasts it by 300 ns, so the countdown
  // first aims 300 ns short of where it completes.
  Countdown c({{0, 0}, {150, 0}});
  const sim::Time a_end = kQueuedAt + sim::Time::micros(200.0);
  c.weak(kQueuedAt - sim::Time::micros(10.0), a_end, sim::Time::micros(1.0));
  const sim::Time idle = a_end + sim::Time::nanos(300);
  c.weak(a_end - sim::Time::micros(10.0), idle, sim::Time::micros(1.0));
  const sim::Time done = idle + kDifs + kSlot * k;
  // Node 1's frame, sent 500 ns ahead (150 m), begins at node 0 at that
  // very nanosecond: it finds node 0 transmitting, as when the
  // countdown's timer was set before the frame was sent.
  const sim::Time delay = sim::Time::seconds(150.0 / phy::kSpeedOfLight);
  c.tb.sim.schedule_at(done - delay, [&c] { c.tb.phys[1]->send(c.tb.packet(100)); });
  EXPECT_EQ(c.run_broadcast(), done);
  EXPECT_EQ(c.tb.phys[0]->counters().rx_ok, 0u);
  EXPECT_EQ(c.tb.phys[0]->counters().rx_missed_busy, 1u);
}

TEST(DcfCountdown, LockDuringBackoffResumesAfterDifsAtTheLockEnd) {
  const std::int64_t k = drawn_slots();
  // Node 1, 150 m away, sends a frame node 0 decodes; it begins at
  // node 0 1 slot and 5 us into the backoff.
  Countdown c({{0, 0}, {150, 0}});
  const sim::Time delay = sim::Time::seconds(150.0 / phy::kSpeedOfLight);
  const sim::Time lock = kQueuedAt + kDifs + kSlot + sim::Time::micros(5.0);
  const std::uint32_t bytes = 100;
  c.tb.sim.schedule_at(lock - delay,
                       [&c, bytes] { c.tb.phys[1]->send(c.tb.packet(bytes)); });
  const sim::Time lock_end = lock + c.tb.phys[1]->tx_duration(bytes);
  EXPECT_EQ(c.run_broadcast(), lock_end + kDifs + kSlot * (k - 1));
  EXPECT_EQ(c.tb.phys[0]->counters().rx_ok, 1u);
}

TEST(DcfCountdown, IdleEdgeUnderNavWaitsForTheNavToExpire) {
  const std::int64_t k = drawn_slots();
  MacConfig cfg;
  cfg.rts_threshold_bytes = 0;  // every unicast opens with an RTS
  Countdown c({{0, 0}}, cfg);
  const sim::Time busy = kQueuedAt + sim::Time::micros(20.0);
  const sim::Time idle = busy + sim::Time::micros(100.0);
  c.weak(busy, idle, sim::Time::micros(1.0));
  // Mid-busy, node 0 overhears an RTS between two other stations that
  // reserves the medium for 200 us, past the idle edge.
  const sim::Time heard = kQueuedAt + sim::Time::micros(60.0);
  c.tb.sim.schedule_at(heard, [&c] {
    net::Packet rts = c.tb.packet(0);
    rts.push(RtsHeader{net::Address(5), net::Address(6), 200});
    c.tb.macs[0]->on_rx_end(std::move(rts), -60.0);
  });
  const sim::Time nav_end = heard + sim::Time::micros(200.0);
  EXPECT_EQ(c.run(net::Address(1), 64, c.tb.phys[0]->tx_duration(RtsHeader::kWireSize)),
            nav_end + kDifs + kSlot * k);
  // No CTS comes back, so the RTS is retried; the first try is the one
  // timed above.
  EXPECT_GE(c.tb.macs[0]->counters().tx_rts, 1u);
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
