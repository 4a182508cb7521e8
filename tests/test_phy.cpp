#include "phy/wifi_phy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "phy/fault_overlay.hpp"

namespace wmn::phy {
namespace {

using mobility::ConstantPositionModel;
using mobility::Vec2;

// One PHY callback, stamped with the radio and the simulated time.
struct Callback {
  std::uint32_t node;
  char kind;  // 'S' rx start, 'E' rx end, 'C' CCA change
  sim::Time at;
};

// Records every PHY callback for assertions; a shared journal, when
// set, also keeps the order of callbacks across radios.
class RecordingListener final : public PhyListener {
 public:
  void on_rx_start() override {
    ++rx_starts;
    note('S');
  }
  void on_rx_end(std::optional<net::Packet> packet, double power) override {
    note('E');
    if (packet) {
      received.push_back(std::move(*packet));
      rx_power_dbm.push_back(power);
    } else {
      ++rx_failures;
    }
  }
  void on_tx_end() override { ++tx_ends; }
  void on_cca_change(bool busy) override {
    note('C');
    cca_changes.push_back(busy);
    if (phy != nullptr) cca_at.push_back(phy->cca_since());
  }

  void note(char kind) {
    if (journal != nullptr) journal->push_back(Callback{node, kind, sim->now()});
  }

  int rx_starts = 0;
  int rx_failures = 0;
  int tx_ends = 0;
  std::vector<net::Packet> received;
  std::vector<double> rx_power_dbm;
  std::vector<bool> cca_changes;
  std::vector<sim::Time> cca_at;  // each edge's instant (needs phy)
  std::uint32_t node = 0;
  const sim::Simulator* sim = nullptr;
  const WifiPhy* phy = nullptr;
  std::vector<Callback>* journal = nullptr;
};

struct TestBed {
  explicit TestBed(std::vector<Vec2> positions, std::uint64_t seed = 1,
                   const PhyConfig& cfg = PhyConfig{})
      : sim(seed), channel(sim, std::make_unique<LogDistanceModel>()) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      mobilities.push_back(std::make_unique<ConstantPositionModel>(positions[i]));
      phys.push_back(std::make_unique<WifiPhy>(sim, cfg,
                                               static_cast<std::uint32_t>(i),
                                               mobilities.back().get()));
      listeners.push_back(std::make_unique<RecordingListener>());
      listeners.back()->node = static_cast<std::uint32_t>(i);
      listeners.back()->sim = &sim;
      listeners.back()->journal = &journal;
      listeners.back()->phy = phys.back().get();
      phys.back()->set_listener(listeners.back().get());
      channel.attach(phys.back().get());
    }
  }

  // The callbacks of one kind, in the order they ran.
  std::vector<Callback> journal_of(char kind) const {
    std::vector<Callback> out;
    for (const Callback& c : journal) {
      if (c.kind == kind) out.push_back(c);
    }
    return out;
  }

  net::Packet packet(std::uint32_t bytes) { return factory.make(bytes, sim.now()); }

  sim::Simulator sim;
  // Declared before the channel: an enabled spatial index detaches from
  // the models when the channel dies, so they must outlive it.
  std::vector<std::unique_ptr<ConstantPositionModel>> mobilities;
  WirelessChannel channel;
  net::PacketFactory factory;
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
  std::vector<Callback> journal;
};

// Fault view with one settable crashed node.
class SwitchableOverlay final : public FaultOverlay {
 public:
  [[nodiscard]] bool node_up(std::uint32_t node) const override {
    return node != down;
  }
  [[nodiscard]] double link_loss_db(std::uint32_t, std::uint32_t,
                                    sim::Time) const override {
    return 0.0;
  }
  std::uint32_t down = 0xFFFFFFFFu;  // none
};

TEST(WifiPhy, TxDurationMatchesRateAndPreamble) {
  TestBed tb({{0, 0}, {100, 0}});
  // 512 bytes at 2 Mb/s = 2048 us + 192 us preamble.
  const sim::Time d = tb.phys[0]->tx_duration(512);
  EXPECT_EQ(d, sim::Time::micros(2048.0 + 192.0));
}

TEST(WifiPhy, InRangeFrameIsDelivered) {
  TestBed tb({{0, 0}, {150, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(100)); });
  tb.sim.run();
  EXPECT_EQ(tb.listeners[1]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[1]->rx_starts, 1);
  EXPECT_EQ(tb.listeners[0]->tx_ends, 1);
  EXPECT_EQ(tb.phys[1]->counters().rx_ok, 1u);
  // Receive power must be above sensitivity.
  EXPECT_GE(tb.listeners[1]->rx_power_dbm[0], PhyConfig{}.rx_sensitivity_dbm);
}

TEST(WifiPhy, OutOfRangeFrameIsNotDelivered) {
  TestBed tb({{0, 0}, {600, 0}});  // beyond 250 m decode range
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(100)); });
  tb.sim.run();
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  EXPECT_EQ(tb.phys[1]->counters().rx_ok, 0u);
}

TEST(WifiPhy, FarFrameStillRaisesCca) {
  // 300-400 m: below decode sensitivity but above the CCA threshold.
  TestBed tb({{0, 0}, {320, 0}});
  tb.phys[1]->watch_cca(true);
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.run_until(sim::Time::millis(10.0));
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  // The weak copy is no event: its edges reach the listener when the
  // radio is next read, each stamped with its own instant.
  EXPECT_TRUE(tb.listeners[1]->cca_changes.empty());
  EXPECT_EQ(tb.phys[1]->cumulative_busy_time(), tb.phys[0]->tx_duration(500));
  // The receiver saw the medium busy for the frame's air time.
  ASSERT_EQ(tb.listeners[1]->cca_changes, (std::vector<bool>{true, false}));
  const sim::Time begin = sim::Time::seconds(320.0 / kSpeedOfLight);
  EXPECT_EQ(tb.listeners[1]->cca_at,
            (std::vector<sim::Time>{begin, begin + tb.phys[0]->tx_duration(500)}));
  EXPECT_EQ(tb.phys[1]->counters().rx_below_sensitivity, 1u);
}

TEST(WifiPhy, SimultaneousTransmittersCollideAtMidpoint) {
  // Two senders equidistant from the middle receiver: comparable power,
  // SINR ~0 dB < 10 dB threshold, both frames lost.
  TestBed tb({{0, 0}, {200, 0}, {400, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[2]->send(tb.packet(500)); });
  tb.sim.run();
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  EXPECT_EQ(tb.listeners[1]->rx_failures, 1);  // locked one, it died
  EXPECT_EQ(tb.phys[1]->counters().rx_failed_sinr, 1u);
}

TEST(WifiPhy, CaptureStrongFrameSurvivesWeakInterferer) {
  // Receiver at 50 m from sender A and 390 m from sender B: A is >25 dB
  // stronger, so A's frame survives B's concurrent transmission.
  TestBed tb({{0, 0}, {50, 0}, {440, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[2]->send(tb.packet(500)); });
  tb.sim.run();
  EXPECT_EQ(tb.listeners[1]->received.size(), 1u);
}

TEST(WifiPhy, CannotReceiveWhileTransmitting) {
  TestBed tb({{0, 0}, {100, 0}});
  // Both transmit at the same instant: neither receives.
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[1]->send(tb.packet(500)); });
  tb.sim.run();
  EXPECT_TRUE(tb.listeners[0]->received.empty());
  EXPECT_TRUE(tb.listeners[1]->received.empty());
  EXPECT_GT(tb.phys[0]->counters().rx_missed_busy +
                tb.phys[1]->counters().rx_missed_busy,
            0u);
}

TEST(WifiPhy, BroadcastReachesAllInRange) {
  TestBed tb({{0, 0}, {100, 0}, {200, 0}, {200, 100}, {900, 900}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run();
  EXPECT_EQ(tb.listeners[1]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[2]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[3]->received.size(), 1u);
  EXPECT_TRUE(tb.listeners[4]->received.empty());  // far corner
}

TEST(WifiPhy, CcaBusyDuringOwnTx) {
  TestBed tb({{0, 0}, {100, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] {
    tb.phys[0]->send(tb.packet(100));
    EXPECT_TRUE(tb.phys[0]->cca_busy());
    EXPECT_FALSE(tb.phys[0]->can_transmit());
  });
  tb.sim.run();
  EXPECT_FALSE(tb.phys[0]->cca_busy());
  EXPECT_TRUE(tb.phys[0]->can_transmit());
}

TEST(WifiPhy, BusyTimeAccountingMatchesAirTime) {
  TestBed tb({{0, 0}, {100, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(512)); });
  tb.sim.run();
  const sim::Time air = tb.phys[0]->tx_duration(512);
  // Sender busy for exactly the TX; receiver for the arrival.
  EXPECT_EQ(tb.phys[0]->cumulative_busy_time(), air);
  EXPECT_EQ(tb.phys[1]->cumulative_busy_time(), air);
}

TEST(WifiPhy, ChannelCountsCopies) {
  TestBed tb({{0, 0}, {100, 0}, {2000, 2000}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run();
  EXPECT_EQ(tb.channel.counters().transmissions, 1u);
  EXPECT_EQ(tb.channel.counters().copies_delivered, 1u);     // node 1
  EXPECT_EQ(tb.channel.counters().copies_dropped_floor, 1u); // node 2
}

TEST(WifiPhy, PropagationDelayOrdersDistantReceivers) {
  // Two receivers at different distances: the near one locks first.
  TestBed tb({{0, 0}, {30, 0}, {240, 0}});
  sim::Time near_start, far_start;
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.run();
  // Both received; the frame is identical.
  ASSERT_EQ(tb.listeners[1]->received.size(), 1u);
  ASSERT_EQ(tb.listeners[2]->received.size(), 1u);
  EXPECT_EQ(tb.listeners[1]->received[0].uid(), tb.listeners[2]->received[0].uid());
  (void)near_start;
  (void)far_start;
}

// --- arrival streams --------------------------------------------------
// A transmission's copies run as one stream; these pin the stream's
// ordering and accounting against what per-copy events would do.

TEST(ArrivalStream, DelaySpreadLongerThanTheFrame) {
  // A 64-byte frame at 1 Gb/s with no preamble lasts 512 ns; the far
  // receiver's copy needs 3 us to arrive. The near receiver's end must
  // run before the far receiver's begin, not after all begins.
  PhyConfig cfg;
  cfg.tx_power_dbm = 40.0;
  cfg.bit_rate_bps = 1e9;
  cfg.preamble = sim::Time::zero();
  TestBed tb({{0, 0}, {10, 0}, {900, 0}}, 1, cfg);
  const sim::Time air = tb.phys[0]->tx_duration(64);
  ASSERT_EQ(air, sim::Time::nanos(512));
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run();
  ASSERT_EQ(tb.listeners[1]->received.size(), 1u);
  ASSERT_EQ(tb.listeners[2]->received.size(), 1u);
  const std::vector<Callback> starts = tb.journal_of('S');
  const std::vector<Callback> ends = tb.journal_of('E');
  ASSERT_EQ(starts.size(), 2u);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(starts[0].node, 1u);
  EXPECT_EQ(ends[0].node, 1u);
  EXPECT_EQ(ends[0].at, starts[0].at + air);
  EXPECT_LT(ends[0].at, starts[1].at);  // near end before far begin
  EXPECT_EQ(starts[1].node, 2u);
  EXPECT_EQ(ends[1].at, starts[1].at + air);
  // Journal order is time order: the near radio's whole reception
  // precedes the far radio's.
  std::vector<std::uint32_t> order;
  for (const Callback& c : tb.journal) {
    if (c.kind != 'C' && c.node != 0) order.push_back(c.node);
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 1, 2, 2}));
  EXPECT_EQ(tb.channel.deliveries_in_flight(), 0u);
}

class EqualDelay : public ::testing::TestWithParam<bool> {};

TEST_P(EqualDelay, ReceiversTieInAttachOrder) {
  // Four receivers exactly 100 m from the sender: identical delays, so
  // (time, seq) order falls back to the seqs reserved in candidate
  // (attach) order — not x order, y order or anything else.
  TestBed tb({{0, 0}, {0, 100}, {100, 0}, {-100, 0}, {0, -100}});
  if (GetParam()) tb.channel.enable_spatial_index(400.0, 400.0);
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run();
  const std::vector<Callback> starts = tb.journal_of('S');
  const std::vector<Callback> ends = tb.journal_of('E');
  ASSERT_EQ(starts.size(), 4u);
  ASSERT_EQ(ends.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(starts[i].node, i + 1);
    EXPECT_EQ(ends[i].node, i + 1);
    EXPECT_EQ(starts[i].at, starts[0].at);
    EXPECT_EQ(ends[i].at, ends[0].at);
  }
}

INSTANTIATE_TEST_SUITE_P(FullScanAndIndexed, EqualDelay, ::testing::Bool());

TEST(ArrivalStream, ReceiverCrashedBeforeArrivalIsAFaultDrop) {
  // Node 1 is up when the frame is sent, so the channel queues its
  // copy; it crashes 100 ns later, before the copy (333 ns) begins.
  TestBed tb({{0, 0}, {100, 0}, {150, 0}});
  SwitchableOverlay overlay;
  tb.channel.set_fault_overlay(&overlay);
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.schedule(sim::Time::nanos(100), [&] { overlay.down = 1; });
  tb.sim.run();
  // The crashed copy counts once, as a fault drop: 1 + 0 + 1 == N - 1.
  EXPECT_EQ(tb.channel.counters().copies_delivered, 1u);
  EXPECT_EQ(tb.channel.counters().copies_dropped_floor, 0u);
  EXPECT_EQ(tb.channel.counters().copies_dropped_fault, 1u);
  EXPECT_EQ(tb.listeners[1]->rx_starts, 0);
  EXPECT_TRUE(tb.listeners[1]->cca_changes.empty());
  EXPECT_EQ(tb.listeners[2]->received.size(), 1u);
  // send, crash, finish_tx, two begins and one end: the dropped copy
  // still counts its begin but has no end.
  EXPECT_EQ(tb.sim.events_executed(), 6u);
  EXPECT_EQ(tb.channel.deliveries_in_flight(), 0u);
}

TEST(ArrivalStream, DownRadioDropsTheCopyWithoutAnEnd) {
  TestBed tb({{0, 0}, {100, 0}});
  tb.phys[1]->set_up(false);
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run();
  EXPECT_EQ(tb.phys[1]->counters().rx_dropped_down, 1u);
  EXPECT_EQ(tb.listeners[1]->rx_starts, 0);
  EXPECT_EQ(tb.channel.counters().copies_delivered, 1u);
  // send, the copy's begin, finish_tx — and no end item.
  EXPECT_EQ(tb.sim.events_executed(), 3u);
  EXPECT_EQ(tb.sim.events_pending(), 0u);
}

TEST(ArrivalStream, EndSeqIsReservedBeforeTheCcaCallback) {
  // The receiver's MAC reacts to CCA busy by scheduling an event at
  // exactly the frame's end. begin_arrival reserves the end's seq
  // before it reports CCA, so at that shared instant the end runs
  // first, as a scheduled end event did.
  struct Mac final : PhyListener {
    Mac(sim::Simulator& s, sim::Time frame) : sim(s), air(frame) {}
    void on_rx_start() override { log.push_back('S'); }
    void on_rx_end(std::optional<net::Packet>, double) override { log.push_back('E'); }
    void on_tx_end() override {}
    void on_cca_change(bool busy) override {
      log.push_back(busy ? 'B' : 'I');
      if (busy) sim.schedule(air, [this] { log.push_back('M'); });
    }
    sim::Simulator& sim;
    sim::Time air;
    std::string log;
  };
  TestBed tb({{0, 0}, {100, 0}});
  Mac mac(tb.sim, tb.phys[0]->tx_duration(64));
  tb.phys[1]->set_listener(&mac);
  tb.phys[1]->watch_cca(true);
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run();
  EXPECT_EQ(mac.log, "SBEIM");
}

// --- begin order under mobility -----------------------------------------
// Random-waypoint radios in a 150 m square, so every radio decodes every
// other and each copy's begin shows up as one on_rx_start. One radio
// transmits per millisecond, so streams never overlap. Pauses pin some
// radios (memoised links next to live ones), and a radio attached
// halfway through invalidates every neighbour cache.
std::vector<Callback> moving_mesh_journal(bool indexed) {
  constexpr std::uint32_t kRadios = 24;
  sim::Simulator sim(7);
  mobility::RandomWaypointConfig rwp;
  rwp.area_width_m = 150.0;
  rwp.area_height_m = 150.0;
  rwp.min_speed_mps = 5.0;
  rwp.max_speed_mps = 40.0;
  rwp.pause = sim::Time::millis(50.0);
  std::vector<std::unique_ptr<mobility::RandomWaypointModel>> models;
  for (std::uint32_t i = 0; i <= kRadios; ++i) {
    const Vec2 start{static_cast<double>((i * 37) % 150),
                     static_cast<double>((i * 53) % 150)};
    models.push_back(
        std::make_unique<mobility::RandomWaypointModel>(sim, rwp, start, i));
  }
  WirelessChannel channel(sim, std::make_unique<LogDistanceModel>());
  if (indexed) channel.enable_spatial_index(150.0, 150.0);
  net::PacketFactory factory;
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
  std::vector<Callback> journal;
  const auto add_radio = [&](std::uint32_t i) {
    phys.push_back(std::make_unique<WifiPhy>(sim, PhyConfig{}, i, models[i].get()));
    listeners.push_back(std::make_unique<RecordingListener>());
    listeners.back()->node = i;
    listeners.back()->sim = &sim;
    listeners.back()->journal = &journal;
    phys.back()->set_listener(listeners.back().get());
    channel.attach(phys.back().get());
  };
  for (std::uint32_t i = 0; i < kRadios; ++i) add_radio(i);
  for (std::uint32_t k = 0; k < 2000; ++k) {
    sim.schedule_at(sim::Time::millis(k), [&, k] {
      phys[(k * 7) % phys.size()]->send(factory.make(64, sim.now()));
    });
  }
  sim.schedule_at(sim::Time::micros(1000500.0), [&] { add_radio(kRadios); });
  sim.run_until(sim::Time::seconds(2.1));
  std::vector<Callback> starts;
  for (const Callback& c : journal) {
    if (c.kind == 'S') starts.push_back(c);
  }
  return starts;
}

TEST(ArrivalStream, MovingSourcesBeginInTimeThenAttachOrder) {
  const std::vector<Callback> indexed = moving_mesh_journal(true);
  // Group the begins by transmission (one per millisecond). Within one,
  // a from-scratch sort orders them by (arrival time, attach index):
  // the seq of equal-time copies follows candidate (attach) order.
  std::size_t ties = 0;
  std::size_t transmissions = 0;
  for (std::size_t a = 0; a < indexed.size();) {
    const std::int64_t ms = indexed[a].at.ns() / 1'000'000;
    std::size_t b = a;
    while (b < indexed.size() && indexed[b].at.ns() / 1'000'000 == ms) ++b;
    const std::uint32_t source = static_cast<std::uint32_t>(ms * 7) %
                                 (ms > 1000 ? 25u : 24u);
    std::vector<Callback> sorted(indexed.begin() + static_cast<std::ptrdiff_t>(a),
                                 indexed.begin() + static_cast<std::ptrdiff_t>(b));
    std::sort(sorted.begin(), sorted.end(), [](const Callback& x, const Callback& y) {
      return x.at < y.at || (x.at == y.at && x.node < y.node);
    });
    EXPECT_EQ(b - a, ms > 1000 ? 24u : 23u) << "transmission at " << ms << " ms";
    for (std::size_t k = a; k < b; ++k) {
      EXPECT_EQ(indexed[k].node, sorted[k - a].node) << "transmission at " << ms << " ms";
      EXPECT_EQ(indexed[k].at, sorted[k - a].at);
      EXPECT_NE(indexed[k].node, source);
      if (k > a && indexed[k].at == indexed[k - 1].at) ++ties;
    }
    ++transmissions;
    a = b;
  }
  EXPECT_EQ(transmissions, 2000u);
  EXPECT_GT(ties, 0u);  // equal-delay ties do occur and are covered
  // The per-pair scan sorts each stream from scratch: same begins, same
  // order.
  const std::vector<Callback> full = moving_mesh_journal(false);
  ASSERT_EQ(full.size(), indexed.size());
  for (std::size_t k = 0; k < full.size(); ++k) {
    EXPECT_EQ(full[k].node, indexed[k].node);
    EXPECT_EQ(full[k].at, indexed[k].at);
  }
}

// --- CCA energy -----------------------------------------------------------
// The radio keeps its lockable arrivals' summed energy as a running sum.
// Drive it with random overlapping lockable arrivals (up to 12 at once)
// and compare, after every step and with ==, against a sum recomputed
// over the arrivals on the air in arrival order; the lock's interference
// and the decode outcomes follow the same recomputation.
TEST(CcaEnergy, RunningSumIsBitEqualToARecomputation) {
  TestBed tb({{0, 0}});
  WifiPhy& phy = *tb.phys[0];
  const PhyConfig cfg;
  sim::RngStream rng = tb.sim.make_stream(99);
  struct Live {
    std::uint64_t key;
    double mw;
  };
  std::vector<Live> live;
  bool locked = false;
  std::uint64_t locked_key = 0;
  double locked_mw = 0.0;
  double locked_max = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  const auto sum_except = [&](std::uint64_t except) {
    double sum = 0.0;
    for (const Live& a : live) {
      if (a.key != except) sum += a.mw;
    }
    return sum;
  };
  std::size_t max_concurrent = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool begin = live.empty() || (live.size() < 12 && rng.uniform01() < 0.55);
    if (begin) {
      const double dbm = rng.uniform(cfg.rx_sensitivity_dbm, -58.0);
      const double mw = dbm_to_mw(dbm);
      const WifiPhy::ArrivalEnd end = phy.begin_arrival(tb.packet(64), dbm, mw);
      ASSERT_NE(end.key, 0u);
      live.push_back(Live{end.key, mw});
      if (!locked) {
        locked = true;
        locked_key = end.key;
        locked_mw = mw;
        locked_max = sum_except(end.key);
      } else if (locked) {
        locked_max = std::max(locked_max, sum_except(locked_key));
      }
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_u64(0, live.size() - 1));
      const std::uint64_t key = live[pick].key;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      phy.end_arrival(key);
      if (locked && key == locked_key) {
        locked = false;
        const double sinr =
            locked_mw / (dbm_to_mw(cfg.noise_floor_dbm) + locked_max);
        if (sinr >= db_to_linear(cfg.sinr_threshold_db)) {
          ++ok;
        } else {
          ++failed;
        }
      }
    }
    max_concurrent = std::max(max_concurrent, live.size());
    const double energy = sum_except(~0ULL);
    ASSERT_EQ(phy.arrival_energy_mw(), energy) << "step " << step;
    ASSERT_EQ(phy.cca_busy(), locked || energy >= dbm_to_mw(cfg.cca_threshold_dbm))
        << "step " << step;
    ASSERT_EQ(phy.counters().rx_ok, ok) << "step " << step;
    ASSERT_EQ(phy.counters().rx_failed_sinr, failed) << "step " << step;
  }
  EXPECT_EQ(max_concurrent, 12u);
  EXPECT_GT(ok, 0u);
  EXPECT_GT(failed, 0u);
}

TEST(ArrivalStream, InFlightCountsCopiesNotYetBegun) {
  // Lockable receivers at 30 m (100 ns) and 240 m (800 ns); the frame
  // lasts 0.5 ms. Slice the run around the two begins.
  TestBed tb({{0, 0}, {30, 0}, {240, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.run_until(sim::Time::nanos(50));
  EXPECT_EQ(tb.channel.deliveries_in_flight(), 2u);
  // Two begins and finish_tx, though the stream holds one calendar entry.
  EXPECT_EQ(tb.sim.events_pending(), 3u);
  tb.sim.run_until(sim::Time::nanos(500));
  EXPECT_EQ(tb.sim.now(), sim::Time::nanos(500));
  EXPECT_EQ(tb.channel.deliveries_in_flight(), 1u);
  EXPECT_EQ(tb.listeners[1]->rx_starts, 1);
  EXPECT_EQ(tb.sim.events_pending(), 3u);  // near end, far begin, finish_tx
  tb.sim.run_until(sim::Time::micros(3.0));
  EXPECT_EQ(tb.channel.deliveries_in_flight(), 0u);
  EXPECT_EQ(tb.sim.events_pending(), 3u);  // two ends, finish_tx
  tb.sim.run();
  EXPECT_EQ(tb.sim.events_pending(), 0u);
  EXPECT_EQ(tb.sim.events_executed(), 6u);
  EXPECT_EQ(tb.listeners[1]->received.size(), 1u);
}

// --- interference ledger ------------------------------------------------------
// Weak copies (below sensitivity) are no events: they wait in the
// receiving radio's ledger and settle when the radio is read.

TEST(InterferenceLedger, WeakCopiesAreNoEvents) {
  // 320 m: the copy is above the floor but below sensitivity.
  TestBed tb({{0, 0}, {320, 0}});
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(500)); });
  tb.sim.run();
  // send and finish_tx only: the weak copy took no calendar item.
  EXPECT_EQ(tb.sim.events_executed(), 2u);
  EXPECT_EQ(tb.channel.counters().copies_delivered, 1u);
  EXPECT_EQ(tb.channel.deliveries_in_flight(), 1u);  // not settled yet
  tb.phys[1]->settle();
  EXPECT_EQ(tb.channel.deliveries_in_flight(), 0u);
  EXPECT_EQ(tb.phys[1]->counters().rx_below_sensitivity, 1u);
  EXPECT_TRUE(tb.listeners[1]->cca_changes.empty());  // unwatched
}

TEST(InterferenceLedger, TwoSubThresholdCopiesSumAboveTheCcaThreshold) {
  // -93 dBm each is under the -92 dBm threshold; together they are
  // -90 dBm, above it, while both are on the air.
  TestBed tb({{0, 0}});
  WifiPhy& phy = *tb.phys[0];
  const double mw = dbm_to_mw(-93.0);
  tb.sim.schedule(sim::Time::zero(), [&] {
    phy.add_weak_copy(sim::Time::micros(10.0), sim::Time::micros(110.0), mw);
    phy.add_weak_copy(sim::Time::micros(60.0), sim::Time::micros(200.0), mw);
  });
  std::vector<bool> busy;
  for (const double us : {5.0, 30.0, 60.0, 100.0, 110.0, 150.0, 250.0}) {
    tb.sim.schedule_at(sim::Time::micros(us), [&] { busy.push_back(phy.cca_busy()); });
  }
  tb.sim.run();
  EXPECT_EQ(busy, (std::vector<bool>{false, false, true, true, false, false, false}));
  EXPECT_EQ(phy.cumulative_busy_time(), sim::Time::micros(50.0));  // [60, 110)
  EXPECT_EQ(phy.counters().rx_below_sensitivity, 2u);
}

TEST(InterferenceLedger, BusyTimeOfWeakEnergyIsTheHandComputedInterval) {
  // A and B are each above the CCA threshold and overlap: busy over
  // [10, 200) us. C alone is under it and adds nothing.
  TestBed tb({{0, 0}});
  WifiPhy& phy = *tb.phys[0];
  tb.sim.schedule(sim::Time::zero(), [&] {
    phy.add_weak_copy(sim::Time::micros(10.0), sim::Time::micros(110.0), dbm_to_mw(-90.0));
    phy.add_weak_copy(sim::Time::micros(50.0), sim::Time::micros(200.0), dbm_to_mw(-88.0));
    phy.add_weak_copy(sim::Time::micros(300.0), sim::Time::micros(400.0), dbm_to_mw(-95.0));
  });
  tb.sim.run_until(sim::Time::micros(500.0));
  EXPECT_EQ(phy.cumulative_busy_time(), sim::Time::micros(190.0));
  EXPECT_EQ(phy.arrival_energy_mw(), 0.0);
}

TEST(InterferenceLedger, WeakUnitsEnterTheSameLedgerAsMilliwatts) {
  // The channel memoises a static weak link's power as weak_units(mw)
  // and enters it with add_weak_units; that must leave exactly what
  // add_weak_copy(mw) leaves: ledger, counters and busy time.
  struct Seen {
    std::vector<double> energy_mw;
    std::vector<bool> busy;
    std::vector<std::size_t> pending;
    sim::Time busy_time;
    WifiPhy::Counters counters;
  };
  const auto run = [](bool as_units) {
    TestBed tb({{0, 0}});
    WifiPhy& phy = *tb.phys[0];
    const net::Packet frame = tb.packet(64);
    WifiPhy::ArrivalEnd end;
    const auto add = [&](double b_us, double e_us, double dbm) {
      const sim::Time b = sim::Time::micros(b_us);
      const sim::Time e = sim::Time::micros(e_us);
      if (as_units) {
        phy.add_weak_units(b, e, phy.weak_units(dbm_to_mw(dbm)));
      } else {
        phy.add_weak_copy(b, e, dbm_to_mw(dbm));
      }
    };
    tb.sim.schedule(sim::Time::zero(), [&] {
      end = phy.begin_arrival(frame, -78.0, dbm_to_mw(-78.0));
      add(10.0, 110.0, -90.0);
      add(50.0, 200.0, -88.3);
      add(60.0, 70.0, -93.7);
      add(300.0, 400.0, -95.1);
    });
    tb.sim.schedule_at(sim::Time::micros(150.0),
                       [&] { phy.end_arrival(end.key); });
    Seen seen;
    for (const double us : {5.0, 30.0, 65.0, 100.0, 150.0, 250.0, 350.0,
                            450.0}) {
      tb.sim.schedule_at(sim::Time::micros(us), [&] {
        seen.pending.push_back(phy.weak_copies_pending());
        seen.energy_mw.push_back(phy.arrival_energy_mw());
        seen.busy.push_back(phy.cca_busy());
      });
    }
    tb.sim.run_until(sim::Time::micros(500.0));
    seen.busy_time = phy.cumulative_busy_time();
    seen.counters = phy.counters();
    return seen;
  };
  const Seen mw = run(false);
  const Seen units = run(true);
  EXPECT_EQ(units.energy_mw, mw.energy_mw);
  EXPECT_EQ(units.busy, mw.busy);
  EXPECT_EQ(units.pending, mw.pending);
  EXPECT_EQ(units.busy_time, mw.busy_time);
  EXPECT_GT(mw.busy_time, sim::Time::zero());
  EXPECT_EQ(units.counters.rx_ok, mw.counters.rx_ok);
  EXPECT_EQ(units.counters.rx_failed_sinr, mw.counters.rx_failed_sinr);
  EXPECT_EQ(units.counters.rx_below_sensitivity,
            mw.counters.rx_below_sensitivity);
  EXPECT_EQ(mw.counters.rx_below_sensitivity, 4u);
  EXPECT_EQ(units.counters.rx_airtime, mw.counters.rx_airtime);
  EXPECT_EQ(units.counters.busy_time, mw.counters.busy_time);
}

TEST(InterferenceLedger, WeakCopyBeginningMidLockFailsTheDecode) {
  // A -80 dBm frame alone decodes (16 dB over the noise floor). A -86
  // dBm weak copy that begins halfway through raises the lock's
  // max-interference to 6 dB under the frame: the decode fails.
  for (const bool interfere : {false, true}) {
    TestBed tb({{0, 0}});
    WifiPhy& phy = *tb.phys[0];
    const net::Packet frame = tb.packet(64);
    WifiPhy::ArrivalEnd end;
    tb.sim.schedule(sim::Time::zero(), [&] {
      end = phy.begin_arrival(frame, -80.0, dbm_to_mw(-80.0));
      if (interfere) {
        phy.add_weak_copy(sim::Time::micros(50.0), sim::Time::micros(60.0),
                          dbm_to_mw(-86.0));
      }
    });
    tb.sim.schedule_at(sim::Time::micros(100.0), [&] { phy.end_arrival(end.key); });
    tb.sim.run();
    EXPECT_EQ(phy.counters().rx_ok, interfere ? 0u : 1u);
    EXPECT_EQ(phy.counters().rx_failed_sinr, interfere ? 1u : 0u);
  }
}

TEST(InterferenceLedger, WeakCopyBeginningBeforeAMissedCopyEndsMeetsBoth) {
  // Lock on B (-73.5 dBm) at t = 0; a lockable -85 dBm copy A arrives
  // with it and is missed. A weak -86 dBm copy W begins at 50 us, while
  // A is still on the air; A ends at 100 us, before anything settles W.
  // The lock's interference at 50 us is A + W: SINR 8.8 dB, a failed
  // decode. Either alone leaves 11.2 dB or more, a success.
  for (const bool with_w : {false, true}) {
    TestBed tb({{0, 0}});
    WifiPhy& phy = *tb.phys[0];
    const net::Packet frame = tb.packet(64);
    WifiPhy::ArrivalEnd b;
    WifiPhy::ArrivalEnd a;
    tb.sim.schedule(sim::Time::zero(), [&] {
      b = phy.begin_arrival(frame, -73.5, dbm_to_mw(-73.5));
      a = phy.begin_arrival(frame, -85.0, dbm_to_mw(-85.0));
      if (with_w) {
        phy.add_weak_copy(sim::Time::micros(50.0), sim::Time::micros(150.0),
                          dbm_to_mw(-86.0));
      }
    });
    tb.sim.schedule_at(sim::Time::micros(100.0), [&] { phy.end_arrival(a.key); });
    tb.sim.schedule_at(sim::Time::micros(200.0), [&] { phy.end_arrival(b.key); });
    tb.sim.run();
    EXPECT_EQ(phy.counters().rx_missed_busy, 1u);
    EXPECT_EQ(phy.counters().rx_ok, with_w ? 0u : 1u);
    EXPECT_EQ(phy.counters().rx_failed_sinr, with_w ? 1u : 0u);
  }
}

TEST(InterferenceLedger, WeakCopyAtACrashedReceiverIsAFaultDrop) {
  // Node 1 at 320 m gets a weak copy that begins at about 1067 ns; it
  // crashes at 100 ns, after the channel entered the copy. Under a
  // fault overlay the copy counts as a fault drop, as a lockable copy
  // crashed in propagation does.
  TestBed tb({{0, 0}, {320, 0}});
  SwitchableOverlay overlay;
  tb.channel.set_fault_overlay(&overlay);
  tb.sim.schedule(sim::Time::zero(), [&] { tb.phys[0]->send(tb.packet(64)); });
  tb.sim.schedule(sim::Time::nanos(100), [&] {
    overlay.down = 1;
    tb.phys[1]->set_up(false);
  });
  tb.sim.run();
  tb.phys[1]->settle();
  EXPECT_EQ(tb.channel.counters().copies_delivered, 0u);
  EXPECT_EQ(tb.channel.counters().copies_dropped_fault, 1u);
  EXPECT_EQ(tb.channel.deliveries_in_flight(), 0u);
  EXPECT_EQ(tb.phys[1]->counters().rx_dropped_down, 0u);
  EXPECT_EQ(tb.phys[1]->counters().rx_below_sensitivity, 0u);
}

TEST(InterferenceLedger, WatchedListenerSeesEdgesAtTheirNanosecond) {
  // The same weak copy reaches two radios; only radio 0 is watched.
  TestBed tb({{0, 0}, {0, 0}});
  tb.phys[0]->watch_cca(true);
  tb.sim.schedule(sim::Time::zero(), [&] {
    for (auto& phy : tb.phys) {
      phy->add_weak_copy(sim::Time::nanos(1234), sim::Time::nanos(5678), dbm_to_mw(-90.0));
    }
  });
  // A read between the edges delivers the first, after its instant.
  tb.sim.schedule_at(sim::Time::nanos(3000), [&] { tb.phys[0]->settle(); });
  tb.sim.run_until(sim::Time::micros(10.0));
  EXPECT_EQ(tb.sim.events_executed(), 2u);  // no event for either edge
  EXPECT_EQ(tb.listeners[0]->cca_changes, (std::vector<bool>{true}));
  // Both radios account the same busy time, settling when read; the
  // watched one delivers its second edge then.
  EXPECT_EQ(tb.phys[0]->cumulative_busy_time(), sim::Time::nanos(4444));
  EXPECT_EQ(tb.phys[1]->cumulative_busy_time(), sim::Time::nanos(4444));
  const std::vector<Callback> edges = tb.journal_of('C');
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].node, 0u);
  EXPECT_EQ(edges[0].at, sim::Time::nanos(3000));  // delivered at the read
  EXPECT_EQ(edges[1].node, 0u);
  EXPECT_EQ(edges[1].at, sim::Time::micros(10.0));
  EXPECT_EQ(tb.listeners[0]->cca_changes, (std::vector<bool>{true, false}));
  EXPECT_EQ(tb.listeners[0]->cca_at,
            (std::vector<sim::Time>{sim::Time::nanos(1234), sim::Time::nanos(5678)}));
  EXPECT_TRUE(tb.listeners[1]->cca_changes.empty());
}

TEST(InterferenceLedger, EarliestIdleBoundsTheIdleEdge) {
  // Two -90 dBm copies: either alone is above the -92 dBm threshold, so
  // CCA stays busy until both have ended.
  TestBed tb({{0, 0}});
  WifiPhy& phy = *tb.phys[0];
  const double mw = dbm_to_mw(-90.0);
  std::vector<sim::Time> bounds;
  tb.sim.schedule(sim::Time::zero(), [&] {
    bounds.push_back(phy.earliest_idle());  // idle: now
    phy.add_weak_copy(sim::Time::micros(10.0), sim::Time::micros(50.0), mw);
    phy.add_weak_copy(sim::Time::micros(20.0), sim::Time::micros(80.0), mw);
  });
  tb.sim.schedule_at(sim::Time::micros(30.0), [&] {
    phy.settle();
    bounds.push_back(phy.earliest_idle());
  });
  // A third copy begins at 60 us and keeps the medium busy past 80 us:
  // the bound read before it was a bound, not the edge.
  tb.sim.schedule_at(sim::Time::micros(55.0), [&] {
    phy.add_weak_copy(sim::Time::micros(60.0), sim::Time::micros(90.0), mw);
  });
  tb.sim.schedule_at(sim::Time::micros(70.0), [&] {
    phy.settle();
    bounds.push_back(phy.earliest_idle());
  });
  tb.sim.run();
  EXPECT_EQ(bounds, (std::vector<sim::Time>{sim::Time::zero(), sim::Time::micros(80.0),
                                            sim::Time::micros(90.0)}));
  // While the radio transmits, only finish_tx can end the busy period.
  tb.sim.schedule_at(sim::Time::micros(100.0), [&] {
    phy.send(tb.packet(10));
    bounds.push_back(phy.earliest_idle());
  });
  tb.sim.run();
  EXPECT_EQ(bounds.back(), sim::Time::max());
}

TEST(InterferenceLedger, CrashInTheMiddleOfAnEntry) {
  // A -90 dBm copy on the air over [10, 110) us; the radio is down over
  // [50, 70) us. Down time senses nothing; after the rejoin the copy,
  // still on the air, keeps CCA busy until it ends. A copy that begins
  // while the radio is down is dropped and leaves no energy behind.
  TestBed tb({{0, 0}});
  WifiPhy& phy = *tb.phys[0];
  tb.sim.schedule(sim::Time::zero(), [&] {
    phy.add_weak_copy(sim::Time::micros(10.0), sim::Time::micros(110.0), dbm_to_mw(-90.0));
    phy.add_weak_copy(sim::Time::micros(60.0), sim::Time::micros(200.0), dbm_to_mw(-90.0));
  });
  tb.sim.schedule_at(sim::Time::micros(50.0), [&] { phy.set_up(false); });
  tb.sim.schedule_at(sim::Time::micros(70.0), [&] { phy.set_up(true); });
  tb.sim.run_until(sim::Time::micros(300.0));
  // Busy over [10, 50) and [70, 110).
  EXPECT_EQ(phy.cumulative_busy_time(), sim::Time::micros(80.0));
  EXPECT_EQ(phy.counters().rx_below_sensitivity, 1u);
  EXPECT_EQ(phy.counters().rx_dropped_down, 1u);
  EXPECT_EQ(phy.arrival_energy_mw(), 0.0);
  EXPECT_FALSE(phy.cca_busy());
}

}  // namespace
}  // namespace wmn::phy
