// Simulator benchmark: runs one pinned workload on the serial
// engine, times only the public Scenario entry points (the constructor
// and run()), checks every run's outputs, and prints one JSON object as
// the last line of stdout. run.py builds and invokes it; the
// metric catalogue is in README.md.
//
//   simbench --workload mesh100 --seed 1000 --seconds 25 --trace 0
//
// --trace 0 gives the end-to-end metrics: each pass runs the workload's
// fixed batch of scenarios, whose seeds derive from the workload seed,
// and the pass repeats while the time budget allows.
//
// --trace 1 gives the per-layer metrics of the scenario at the workload
// seed itself, alternating untraced and traced runs of it. A traced run
// works from outside the simulator: it drives the run as
// 1-simulated-second simulator().run_until() slices before calling
// run(), and wraps every radio's MAC callbacks in timed spans through a
// forwarding phy::PhyListener. Neither changes the event order, so the
// traced fingerprint must equal the untraced one.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "exp/scenario.hpp"

namespace {

using namespace wmn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The process's peak resident set. VmHWM starts afresh at exec, unlike
// ru_maxrss, which keeps the high-water mark of the process that
// spawned this one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename T>
double as_double(T v) {
  return static_cast<double>(v);
}

// ---- workloads ------------------------------------------------------

// The T1 reference mesh (bench/bench_macro.cpp): 100 nodes on a
// perturbed 1000x1000 m grid, 10 CBR flows at the 6 pkt/s congestion
// point, CLNLR.
exp::ScenarioConfig reference_mesh(std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 100;
  cfg.area_width_m = 1000.0;
  cfg.area_height_m = 1000.0;
  cfg.placement = exp::Placement::kPerturbedGrid;
  cfg.placement_jitter_m = 60.0;
  cfg.traffic.n_flows = 10;
  cfg.traffic.rate_pps = 6.0;
  cfg.traffic.packet_bytes = 512;
  cfg.warmup = sim::Time::seconds(5.0);
  cfg.traffic_time = sim::Time::seconds(25.0);
  cfg.drain = sim::Time::seconds(2.0);
  cfg.seed = seed;
  cfg.protocol = core::Protocol::kClnlr;
  return cfg;
}

exp::ScenarioConfig mesh400(std::uint64_t seed) {  // bench_macro's scale point
  exp::ScenarioConfig cfg = reference_mesh(seed);
  cfg.n_nodes = 400;
  cfg.area_width_m = 2000.0;
  cfg.area_height_m = 2000.0;
  cfg.traffic.n_flows = 40;
  cfg.traffic_time = sim::Time::seconds(8.0);
  return cfg;
}

exp::ScenarioConfig gateway_sessions(std::uint64_t seed) {  // bench_macro's F11 point
  exp::ScenarioConfig cfg = reference_mesh(seed);
  cfg.traffic.pattern = exp::TrafficSpec::Pattern::kGateway;
  cfg.traffic.n_gateways = 3;
  cfg.traffic.n_flows = 12;
  cfg.traffic.model = exp::TrafficSpec::Model::kSessions;
  cfg.traffic.users_per_node = 1000;
  cfg.traffic.session_rate_per_user_per_s = 0.004;
  cfg.traffic.mean_arrival_gap_s = 1.0;
  cfg.traffic_time = sim::Time::seconds(15.0);
  return cfg;
}

exp::ScenarioConfig mobile100(std::uint64_t seed) {  // bench_f7_mobility, 10 m/s
  exp::ScenarioConfig cfg = reference_mesh(seed);
  cfg.mobility.max_speed_mps = 10.0;
  cfg.mobility.pause = sim::Time::seconds(2.0);
  return cfg;
}

struct Workload {
  const char* name;
  exp::ScenarioConfig (*config)(std::uint64_t seed);
  // Scenarios in one end-to-end pass. A single scenario's cost and
  // outcome depend strongly on its seed (placement and flow pairs), so
  // the end-to-end metrics pool a fixed batch of seeds.
  std::size_t batch;
  // Calibration units run before each scenario: 5-10% of its run time.
  std::size_t cal_units;
};

constexpr Workload kWorkloads[] = {
    {"mesh100", reference_mesh, 28, 2},
    {"mesh400", mesh400, 4, 12},
    {"gateway_sessions", gateway_sessions, 28, 2},
    {"mobile100", mobile100, 28, 2},
};

// Scenario i of a batch uses the workload seed itself for i == 0 and a
// splitmix64 derivation of it otherwise.
std::uint64_t batch_seed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(i);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) >> 1;
}

// ---- host-speed calibration -----------------------------------------

// A fixed reference computation shaped like the simulator's inner loop:
// a binary-heap calendar, scattered reads and writes over a 1 MiB table,
// and small heap allocations. Every unit does identical work and shares
// no code with the simulator, so its duration tracks only the host's
// momentary speed, which on a shared host drifts by tens of percent over
// minutes. Measured on such a host, unit time and mesh100 run time
// correlate at 0.7. Run between scenarios, the units normalise the
// scenarios' timings to the host state in which one unit takes kRefUnitS.
class Calibrator {
 public:
  static constexpr double kRefUnitS = 0.025;

  double unit() {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    struct Ev {
      std::uint64_t at;
      std::uint32_t node;
      bool operator>(const Ev& o) const { return at > o.at; }
    };
    std::vector<Ev> heap;
    for (std::uint32_t i = 0; i < 2048; ++i) heap.push_back({next() % 1000000, i});
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    std::vector<std::unique_ptr<std::uint64_t[]>> blocks;
    for (int e = 0; e < kEvents; ++e) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const Ev ev = heap.back();
      heap.pop_back();
      const std::size_t base = ev.node * 2654435761ULL % table_.size();
      for (std::uint64_t k = 0; k < 8; ++k) {
        sink_ += table_[(base + next() % 4096) % table_.size()] += k;
      }
      if (e % 16 == 0) {
        blocks.emplace_back(new std::uint64_t[8 + e % 48]);
        if (blocks.size() > 256) blocks.erase(blocks.begin(), blocks.begin() + 128);
      }
      heap.push_back({ev.at + next() % 5000 + 1, static_cast<std::uint32_t>(next() % 200000)});
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    return seconds_since(t0);
  }

 private:
  static constexpr int kEvents = 150000;
  std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(std::size_t{1} << 17);
  std::uint64_t sink_ = 0;
};

// ---- tracing ---------------------------------------------------------

// Time spent inside the MAC's PhyListener callbacks, per callback.
struct CallStat {
  std::uint64_t calls = 0;
  double ns = 0.0;  // inclusive of nested callbacks
};

struct MacTrace {
  CallStat cca;
  CallStat rx_start;
  CallStat rx_end;
  CallStat tx_end;
  double outer_ns = 0.0;  // nested callbacks counted once
  int depth = 0;
};

class Span {
 public:
  Span(MacTrace& trace, CallStat& stat)
      : trace_(trace), stat_(stat), t0_(Clock::now()) {
    ++trace_.depth;
  }
  ~Span() {
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0_).count();
    stat_.ns += ns;
    ++stat_.calls;
    if (--trace_.depth == 0) trace_.outer_ns += ns;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  MacTrace& trace_;
  CallStat& stat_;
  Clock::time_point t0_;
};

// Installed on a radio in place of its DcfMac: forwards every callback
// to the MAC inside a span.
class TracingListener final : public phy::PhyListener {
 public:
  TracingListener(mac::DcfMac& mac, MacTrace& trace) : mac_(mac), trace_(trace) {}

  void on_rx_start() override {
    const Span span(trace_, trace_.rx_start);
    mac_.on_rx_start();
  }
  void on_rx_end(std::optional<net::Packet> packet, double rx_power_dbm) override {
    const Span span(trace_, trace_.rx_end);
    mac_.on_rx_end(std::move(packet), rx_power_dbm);
  }
  void on_tx_end() override {
    const Span span(trace_, trace_.tx_end);
    mac_.on_tx_end();
  }
  void on_cca_change(bool busy) override {
    const Span span(trace_, trace_.cca);
    mac_.on_cca_change(busy);
  }

 private:
  mac::DcfMac& mac_;
  MacTrace& trace_;
};

// Host time of a traced run's slices, split by simulated phase.
struct SliceTimes {
  double warmup_s = 0.0;
  double traffic_s = 0.0;
  double drain_s = 0.0;
  std::uint64_t pending_max = 0;  // calendar depth at slice edges
  [[nodiscard]] double total() const { return warmup_s + traffic_s + drain_s; }
};

// ---- one scenario run -----------------------------------------------

// Deterministic outputs of one run.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t channel_tx = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t copies_dropped_floor = 0;
  std::uint64_t receivers = 0;  // N - 1
  std::uint64_t index_version = 0;
  std::uint64_t rx_ok = 0;
  std::uint64_t rx_failed_sinr = 0;
  std::uint64_t rx_missed_busy = 0;
  std::uint64_t rx_below_sensitivity = 0;
  std::uint64_t mac_tx_unicast = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t packets_created = 0;
  std::uint64_t arena_nodes = 0;
  double bytes_per_node = 0.0;
  exp::RunMetrics m;
};

struct RunResult {
  double setup_s = 0.0;
  double run_s = 0.0;  // run() alone, or the slices plus run() when traced
  std::uint64_t fingerprint = 0;
  std::vector<std::string> failures;
  Counts counts;
  SliceTimes slices;
  MacTrace mac;
};

// Output checks on a finished scenario; appends one line per failure.
void check_outputs(exp::Scenario& s, const exp::RunMetrics& m,
                   std::uint64_t violations, std::vector<std::string>& failures) {
  if (violations != 0) {
    failures.push_back(std::to_string(violations) + " invariant violations");
  }
  const phy::WirelessChannel& ch = s.channel();
  const auto& cc = ch.counters();
  const std::uint64_t n = s.node_count();
  if (cc.copies_delivered + cc.copies_dropped_floor + cc.copies_dropped_fault !=
      (n - 1) * cc.transmissions) {
    failures.emplace_back("channel identity: copies != (N-1) * transmissions");
  }
  std::uint64_t settled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const phy::WifiPhy& p = s.node_phy(i);
    const auto& pc = p.counters();
    settled += pc.rx_ok + pc.rx_failed_sinr + pc.rx_missed_busy +
               pc.rx_below_sensitivity + pc.rx_dropped_down;
    if (p.state() == phy::WifiPhy::State::kRx) ++settled;
  }
  if (cc.copies_delivered - ch.deliveries_in_flight() != settled) {
    failures.emplace_back("phy identity: arrivals landed != arrivals settled");
  }
  if (m.data_delivered > m.data_sent) {
    failures.emplace_back("more packets delivered than sent");
  }
}

Counts collect_counts(exp::Scenario& s, const exp::RunMetrics& m) {
  Counts c;
  c.m = m;
  c.events = s.simulator().events_executed();
  const phy::WirelessChannel& ch = s.channel();
  c.channel_tx = ch.counters().transmissions;
  c.copies_delivered = ch.counters().copies_delivered;
  c.copies_dropped_floor = ch.counters().copies_dropped_floor;
  c.receivers = s.node_count() - 1;
  c.index_version = ch.spatial_index() != nullptr ? ch.spatial_index()->version() : 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    const auto& pc = s.node_phy(i).counters();
    c.rx_ok += pc.rx_ok;
    c.rx_failed_sinr += pc.rx_failed_sinr;
    c.rx_missed_busy += pc.rx_missed_busy;
    c.rx_below_sensitivity += pc.rx_below_sensitivity;
    c.mac_tx_unicast += s.node_mac(i).counters().tx_data_unicast;
    c.data_forwarded += s.agent(i).counters().data_forwarded;
  }
  c.packets_created = s.packet_factory().packets_created();
  c.arena_nodes = s.packet_factory().arena().capacity_nodes();
  c.bytes_per_node = as_double(s.bytes_per_node());
  return c;
}

RunResult run_scenario(const exp::ScenarioConfig& cfg, bool traced) {
  RunResult r;
  // Declared before the scenario so they outlive it.
  std::vector<TracingListener> listeners;

  auto t0 = Clock::now();
  auto s = std::make_unique<exp::Scenario>(cfg);
  r.setup_s = seconds_since(t0);

  const std::uint64_t violations_before = core::check_violations();
  if (traced) {
    listeners.reserve(s->node_count());
    for (std::size_t i = 0; i < s->node_count(); ++i) {
      listeners.emplace_back(s->node_mac(i), r.mac);
      s->node_phy(i).set_listener(&listeners.back());
    }
    const sim::Time warmup_end = cfg.warmup;
    const sim::Time traffic_end = cfg.warmup + cfg.traffic_time;
    const sim::Time horizon = traffic_end + cfg.drain;
    sim::Simulator& engine = s->simulator();
    t0 = Clock::now();
    for (sim::Time t = sim::Time::zero(); t < horizon;) {
      t = std::min(t + sim::Time::seconds(1.0), horizon);
      const auto slice_t0 = Clock::now();
      engine.run_until(t);
      const double dt = seconds_since(slice_t0);
      (t <= warmup_end ? r.slices.warmup_s
                       : t <= traffic_end ? r.slices.traffic_s : r.slices.drain_s) += dt;
      r.slices.pending_max =
          std::max<std::uint64_t>(r.slices.pending_max, engine.events_pending());
    }
    s->run();
    r.run_s = seconds_since(t0);
  } else {
    t0 = Clock::now();
    s->run();
    r.run_s = seconds_since(t0);
  }

  const exp::RunMetrics m = s->metrics();
  r.fingerprint = exp::fingerprint(m);
  check_outputs(*s, m, core::check_violations() - violations_before, r.failures);
  r.counts = collect_counts(*s, m);
  s.reset();
  return r;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// Every run goes through here: it counts attempts and failures, checks
// that a seed always yields one fingerprint (traced or not), and logs
// one line per run to stderr.
class Ledger {
 public:
  RunResult run(const exp::ScenarioConfig& cfg, bool traced) {
    RunResult res = run_scenario(cfg, traced);
    ++attempted;
    const auto [it, fresh] = fingerprints.emplace(cfg.seed, res.fingerprint);
    if (!fresh && it->second != res.fingerprint) {
      res.failures.push_back(std::string(traced ? "traced" : "untraced") +
                             " fingerprint " + hex64(res.fingerprint) +
                             " != " + hex64(it->second));
    }
    if (!res.failures.empty()) {
      ++failed;
      for (const auto& f : res.failures) {
        failures.push_back("seed " + std::to_string(cfg.seed) + ": " + f);
      }
    }
    std::fprintf(stderr,
                 "run seed=%" PRIu64 " traced=%d fingerprint=%s setup_s=%.6f "
                 "run_s=%.4f events=%" PRIu64 " pdr=%.4f peak_rss_mb=%.1f checks=%s\n",
                 cfg.seed, traced ? 1 : 0, hex64(res.fingerprint).c_str(),
                 res.setup_s, res.run_s, res.counts.events, res.counts.m.pdr,
                 peak_rss_mb(), res.failures.empty() ? "ok" : "FAILED");
    return res;
  }

  std::map<std::uint64_t, std::uint64_t> fingerprints;  // seed -> first seen
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// ---- JSON output ----------------------------------------------------

std::string json_string(const std::string& v) {
  std::string quoted = "\"";
  for (char ch : v) {
    if (ch == '"' || ch == '\\') quoted += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) quoted += ch;
  }
  return quoted + "\"";
}

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    add(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) { add(key, std::to_string(v)); }
  void str(const std::string& key, const std::string& v) { add(key, json_string(v)); }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + value;
  }
  std::string body_;
};

// ---- measurements ----------------------------------------------------

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1000;
  double seconds = 10.0;
  bool trace = false;
  bool short_horizon = false;  // smoke test: five simulated seconds
};

exp::ScenarioConfig config_for(const Options& opt, std::uint64_t seed) {
  exp::ScenarioConfig cfg = opt.workload->config(seed);
  if (opt.short_horizon) {
    cfg.warmup = sim::Time::seconds(2.0);
    cfg.traffic_time = sim::Time::seconds(2.0);
    cfg.drain = sim::Time::seconds(1.0);
  }
  return cfg;
}

double horizon_s(const exp::ScenarioConfig& cfg) {
  return (cfg.warmup + cfg.traffic_time + cfg.drain).to_seconds();
}

// Repeats `body` while another repetition of the last one's length
// still fits in the budget; always runs it at least once.
template <typename F>
void repeat_within(double seconds, F&& body) {
  const auto start = Clock::now();
  double last = 0.0;
  do {
    const auto t0 = Clock::now();
    body();
    last = seconds_since(t0);
  } while (seconds_since(start) + last <= seconds);
}

// Timings are scaled by the host speed measured between scenarios, so
// host drift between runs does not read as a change in the simulator.
// `host` gets the unscaled figures and the calibration unit time.
void measure_end_to_end(const Options& opt, Ledger& ledger, JsonObject& metrics,
                        JsonObject& host) {
  std::vector<exp::ScenarioConfig> batch;
  double batch_horizon_s = 0.0;
  for (std::size_t i = 0; i < opt.workload->batch; ++i) {
    batch.push_back(config_for(opt, batch_seed(opt.seed, i)));
    batch_horizon_s += horizon_s(batch.back());
  }

  Calibrator cal;
  std::vector<double> wall_per_sim;  // one per pass, host-normalised
  std::vector<double> setup;         // host-normalised
  std::vector<double> raw_wall_per_sim;
  std::vector<double> raw_setup;
  std::vector<double> unit_s;
  double bytes_per_node = 0.0;
  repeat_within(opt.seconds, [&] {
    double wall = 0.0;
    double cal_s = 0.0;
    std::size_t units = 0;
    std::vector<double> pass_setup;
    const bool first = wall_per_sim.empty();
    for (const exp::ScenarioConfig& cfg : batch) {
      for (std::size_t u = 0; u < opt.workload->cal_units; ++u, ++units) {
        cal_s += cal.unit();
      }
      const RunResult res = ledger.run(cfg, false);
      wall += res.run_s;
      pass_setup.push_back(res.setup_s);
      if (first) bytes_per_node += res.counts.bytes_per_node;
      // Set-up alone is cheap; more samples steady its median.
      for (int k = 0; k < 4; ++k) {
        const auto t0 = Clock::now();
        { const exp::Scenario s(cfg); }
        pass_setup.push_back(seconds_since(t0));
      }
    }
    const double speed = Calibrator::kRefUnitS * as_double(units) / cal_s;
    raw_wall_per_sim.push_back(wall / batch_horizon_s);
    wall_per_sim.push_back(wall / batch_horizon_s * speed);
    for (const double t : pass_setup) {
      raw_setup.push_back(t);
      setup.push_back(t * speed);
    }
    unit_s.push_back(cal_s / as_double(units));
    std::fprintf(stderr, "pass wall_s_per_sim_s=%.6f raw=%.6f calibration_unit_s=%.6f\n",
                 wall_per_sim.back(), raw_wall_per_sim.back(), unit_s.back());
  });

  metrics.num("wall_s_per_sim_s", median(wall_per_sim));
  metrics.num("setup_s", median(setup));
  metrics.num("bytes_per_node", bytes_per_node / as_double(batch.size()));
  metrics.num("peak_rss_mb", peak_rss_mb());
  host.num("raw_wall_s_per_sim_s", median(raw_wall_per_sim));
  host.num("raw_setup_s", median(raw_setup));
  host.num("calibration_unit_s", median(unit_s));
}

void measure_layers(const Options& opt, Ledger& ledger, JsonObject& metrics) {
  const exp::ScenarioConfig cfg = config_for(opt, opt.seed);
  std::vector<double> untraced_s;
  std::vector<RunResult> traced;
  Counts c;
  repeat_within(opt.seconds, [&] {
    const RunResult u = ledger.run(cfg, false);
    untraced_s.push_back(u.run_s);
    c = u.counts;
    traced.push_back(ledger.run(cfg, true));
  });

  auto traced_median = [&](auto field) {
    std::vector<double> v;
    for (const RunResult& t : traced) v.push_back(field(t));
    return median(v);
  };
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    overhead.push_back(traced[i].run_s / untraced_s[i] - 1.0);
  }
  const exp::RunMetrics& m = c.m;
  const double tx = as_double(c.channel_tx);
  const MacTrace& mt = traced.front().mac;

  metrics.count("sim.events", c.events);
  metrics.num("sim.events_per_tx", ratio(as_double(c.events), tx));
  metrics.num("sim.ns_per_event", median(untraced_s) / as_double(c.events) * 1e9);
  metrics.num("sim.loop_self_s", traced_median([](const RunResult& t) {
                return t.slices.total() - t.mac.outer_ns * 1e-9;
              }));
  metrics.num("sim.warmup_s",
              traced_median([](const RunResult& t) { return t.slices.warmup_s; }));
  metrics.num("sim.traffic_s",
              traced_median([](const RunResult& t) { return t.slices.traffic_s; }));
  metrics.num("sim.drain_s",
              traced_median([](const RunResult& t) { return t.slices.drain_s; }));
  metrics.count("sim.pending_max", traced.front().slices.pending_max);

  metrics.count("channel.tx", c.channel_tx);
  metrics.num("channel.copies_per_tx", ratio(as_double(c.copies_delivered), tx));
  metrics.num("channel.floor_drop_ratio", ratio(as_double(c.copies_dropped_floor),
                                                tx * as_double(c.receivers)));
  metrics.count("channel.index_version", c.index_version);
  metrics.count("phy.rx_ok", c.rx_ok);
  metrics.count("phy.rx_failed_sinr", c.rx_failed_sinr);
  metrics.count("phy.rx_missed_busy", c.rx_missed_busy);
  metrics.count("phy.rx_below_sensitivity", c.rx_below_sensitivity);
  metrics.num("phy.decode_yield",
              ratio(as_double(c.rx_ok), as_double(c.copies_delivered)));

  metrics.count("mac.cca_calls", mt.cca.calls);
  metrics.num("mac.cca_per_tx", ratio(as_double(mt.cca.calls), tx));
  metrics.count("mac.rx_end_calls", mt.rx_end.calls);
  metrics.num("mac.cb_s",
              traced_median([](const RunResult& t) { return t.mac.outer_ns * 1e-9; }));
  metrics.num("mac.cca_ns", traced_median([](const RunResult& t) {
                return ratio(t.mac.cca.ns, as_double(t.mac.cca.calls));
              }));
  metrics.num("mac.rx_end_ns", traced_median([](const RunResult& t) {
                return ratio(t.mac.rx_end.ns, as_double(t.mac.rx_end.calls));
              }));
  metrics.count("mac.queue_drops", m.mac_queue_drops);
  metrics.count("mac.retries", m.mac_retries);
  metrics.count("mac.retry_drops", m.mac_retry_drops);
  metrics.num("mac.retry_ratio",
              ratio(as_double(m.mac_retries), as_double(c.mac_tx_unicast)));

  metrics.count("routing.rreq_tx", m.rreq_tx);
  metrics.count("routing.rreq_suppressed", m.rreq_suppressed);
  metrics.num("routing.rreq_per_discovery", m.rreq_per_discovery);
  metrics.num("routing.nrl", m.nrl);
  metrics.count("routing.discoveries", m.discoveries);
  metrics.num("routing.discovery_fail_ratio",
              ratio(as_double(m.discoveries_failed), as_double(m.discoveries)));
  metrics.count("routing.rerr_tx", m.rerr_tx);
  metrics.count("routing.hello_tx", m.hello_tx);
  metrics.count("routing.data_forwarded", c.data_forwarded);

  metrics.count("traffic.sent", m.data_sent);
  metrics.count("traffic.delivered", m.data_delivered);
  metrics.num("traffic.pdr", m.pdr);
  metrics.num("traffic.mean_delay_ms", m.mean_delay_ms);
  metrics.count("traffic.sessions_started", m.sessions_started);
  metrics.count("traffic.sessions_rejected", m.sessions_rejected);
  metrics.count("net.packets_created", c.packets_created);
  metrics.count("net.arena_nodes", c.arena_nodes);

  metrics.num("trace_overhead", median(overhead));
}

// ---- build provenance -----------------------------------------------

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SIMBENCH_CXX_FLAGS
#define SIMBENCH_CXX_FLAGS ""
#endif
#ifndef SIMBENCH_COMPILER
#define SIMBENCH_COMPILER "unknown"
#endif
#ifndef SIMBENCH_SANITIZE
#define SIMBENCH_SANITIZE ""
#endif

// Timings from an unoptimised or instrumented build measure the
// instrumentation, not the simulator.
std::string build_refusal() {
#if !defined(__OPTIMIZE__)
  return "the benchmark was built without optimisation";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark was built with a sanitizer";
#else
  if (std::strlen(SIMBENCH_SANITIZE) != 0 ||
      std::strstr(SIMBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    return "the library was built with a sanitizer";
  }
  return "";
#endif
}

std::string build_json() {
  JsonObject b;
  b.str("compiler", SIMBENCH_COMPILER);
  b.str("build_type", SIMBENCH_BUILD_TYPE);
  b.str("cxx_flags", SIMBENCH_CXX_FLAGS);
  return b.text();
}

// ---- command line ---------------------------------------------------

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "simbench: %s\n"
               "usage: simbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--short]\n",
               msg.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        const std::string name = value();
        for (const Workload& w : kWorkloads) {
          if (name == w.name) o.workload = &w;
        }
        if (o.workload == nullptr) usage("unknown workload " + name);
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--short") {
        o.short_horizon = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::exception&) {
      usage("bad value for " + a);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "simbench: refusing to report timings: %s\n",
                 refusal.c_str());
    return 3;
  }
  // A violated invariant is counted and reported as a failed run
  // instead of aborting the process.
  core::set_check_policy(core::CheckPolicy::kLogAndCount);

  Ledger ledger;
  JsonObject metrics;
  JsonObject host;
  if (opt.trace) {
    measure_layers(opt, ledger, metrics);
  } else {
    measure_end_to_end(opt, ledger, metrics, host);
  }

  JsonObject fingerprints;
  for (const auto& [seed, fp] : ledger.fingerprints) {
    fingerprints.str(std::to_string(seed), hex64(fp));
  }
  std::string failures = "[";
  for (std::size_t i = 0; i < ledger.failures.size() && i < 20; ++i) {
    failures += (i > 0 ? ", " : "") + json_string(ledger.failures[i]);
  }
  failures += "]";

  JsonObject out;
  out.str("workload", opt.workload->name);
  out.count("seed", opt.seed);
  out.raw("fingerprints", fingerprints.text());
  out.count("attempted", ledger.attempted);
  out.count("failed", ledger.failed);
  out.raw("failures", failures);
  out.raw("build", build_json());
  out.raw("host", host.text());
  out.raw("metrics", metrics.text());
  std::printf("%s\n", out.text().c_str());
  return 0;
}
