// Statistical equivalence harness: does this build produce the same
// physics as a recorded reference path, across seeds?
//
// Golden digests (test_golden_digest.cpp) demand bit identity. A change
// that legitimately reorders same-timestamp ties moves every digest
// while leaving the physics alone, and a digest cannot tell that change
// from a broken one. This harness asks the question such a change must
// answer before its digests are re-pinned: over N seeds, does each key
// metric keep its mean?
//
// tests/data/equivalence_reference.csv holds the reference build's
// per-seed values for seeds 1..2N of each configuration. The check runs
// this build on seeds 1..N and, per metric, forms a 95% confidence
// interval of the difference in means (this build minus the
// reference), scaled by the reference mean. The metric passes when the
// whole interval lies within its band. It does so twice:
//
//   * Welch, against the reference's seeds: loose, since the seed sets
//     differ in placement and flows. Positive control: the reference's
//     seeds 1..N against its own seeds N+1..2N must pass every metric.
//   * Seed for seed, against the reference on the same seeds: the
//     per-seed differences cancel placement and flows, so the bands are
//     those of trajectory noise alone. Positive control: this build
//     against itself with the CCA threshold moved by 0.01 dB must pass.
//
// Negative control for both: this build with the CCA threshold raised
// by 2 dB must fail at least one metric per configuration.
//
// Record a new reference (from the build that is to be the reference):
//
//   ./build/tests/test_equivalence --record "$(git rev-parse --short HEAD)"
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/scenario.hpp"
#include "stats/confidence.hpp"

#ifndef WMN_EQUIVALENCE_CSV
#error "WMN_EQUIVALENCE_CSV must name the reference file"
#endif

namespace wmn {
namespace {

// Seeds per side: the check uses seeds 1..kSeeds, the reference file
// holds 1..2*kSeeds.
constexpr std::uint64_t kSeeds = 20;

// --- configurations -------------------------------------------------------
// The simbench reference mesh and its mobile variant, plus the mesh
// under node churn (the fault scan), cut to a short horizon.
exp::ScenarioConfig mesh100(std::uint64_t seed) {
  exp::ScenarioConfig cfg;
  cfg.n_nodes = 100;
  cfg.area_width_m = 1000.0;
  cfg.area_height_m = 1000.0;
  cfg.placement = exp::Placement::kPerturbedGrid;
  cfg.placement_jitter_m = 60.0;
  cfg.traffic.n_flows = 10;
  cfg.traffic.rate_pps = 6.0;
  cfg.traffic.packet_bytes = 512;
  cfg.warmup = sim::Time::seconds(2.0);
  cfg.traffic_time = sim::Time::seconds(5.0);
  cfg.drain = sim::Time::seconds(1.0);
  cfg.seed = seed;
  cfg.protocol = core::Protocol::kClnlr;
  return cfg;
}

exp::ScenarioConfig mobile100(std::uint64_t seed) {
  exp::ScenarioConfig cfg = mesh100(seed);
  cfg.mobility.max_speed_mps = 10.0;
  cfg.mobility.pause = sim::Time::seconds(2.0);
  return cfg;
}

exp::ScenarioConfig mesh100_churn(std::uint64_t seed) {
  exp::ScenarioConfig cfg = mesh100(seed);
  cfg.fault.churn.rate_per_s = 1.0;
  cfg.fault.churn.mean_downtime = sim::Time::seconds(1.0);
  cfg.fault.churn.start = cfg.warmup;
  cfg.fault.churn.stop = cfg.warmup + cfg.traffic_time;
  return cfg;
}

struct Config {
  const char* name;
  exp::ScenarioConfig (*make)(std::uint64_t seed);
};

constexpr std::array<Config, 3> kConfigs{{
    {"mesh100", mesh100},
    {"mobile100", mobile100},
    {"mesh100_churn", mesh100_churn},
}};

// --- metrics ----------------------------------------------------------------
// Each band bounds a 95% CI of a difference in means, scaled by the
// reference mean. Two comparisons, two bands per metric:
//
//   * delta (Welch, independent seeds): calibrated on the reference
//     recorded at 7222f80 (N = 20 seeds a side, short horizon) as the
//     largest positive-control bound over the three configurations,
//     first bracket, plus about 30% headroom. Placement and flow pairs
//     differ between the seed sets, so these bands are wide: a +2 dB
//     CCA shift fails only phy_collisions_per_tx everywhere and pdr in
//     two configurations.
//   * paired_delta (seed for seed): this build and the reference on the
//     same seeds, so placement and flows cancel. Calibrated as the
//     largest bound of the paired positive control (CCA +0.01 dB
//     against this build) over the three configurations, second
//     bracket, plus about 30% headroom. A +2 dB shift fails pdr, nrl,
//     phy_collisions_per_tx and busy_time_fraction in every
//     configuration, and a +0.5 dB shift already fails
//     phy_collisions_per_tx.
//
// mean_delay_ms and mean_busy_ratio stay wide even seed for seed (a
// run's trajectory decides them): they catch only gross changes.
struct Metric {
  const char* name;
  double delta;
  double paired_delta;
};

constexpr std::size_t kMetricCount = 8;
constexpr std::array<Metric, kMetricCount> kMetrics{{
    // Delivery ratio [0.167, 0.084]; flow pairs dominate its spread.
    {"pdr", 0.22, 0.11},
    // Mean end-to-end delay [1.565, 0.382]: heavy-tailed per run (a few
    // runs queue at the congestion point).
    {"mean_delay_ms", 2.0, 0.50},
    // Control transmissions per delivered packet [0.551, 0.182].
    {"nrl", 0.70, 0.24},
    // SINR decode failures per transmission [0.205, 0.048]: the capture
    // physics, and the sharpest detector of an energy change.
    {"phy_collisions_per_tx", 0.25, 0.065},
    // MAC retries per transmission [0.302, 0.130]: contention, hidden
    // terminals.
    {"mac_retries_per_tx", 0.40, 0.17},
    // Mean of the final per-node busy EWMAs [1.693, 0.564]: sampled at
    // the end of the drain, when few nodes still send.
    {"mean_busy_ratio", 2.2, 0.75},
    // Fraction of the run the radios sensed the medium busy, over all
    // nodes [0.288, 0.074]: the integral CLNLR's load index samples, and
    // the quantity the weak copies' energy feeds.
    {"busy_time_fraction", 0.36, 0.10},
    // Network radio energy [0.0069, 0.0022]: the fixed idle draw
    // dominates it.
    {"total_energy_j", 0.009, 0.003},
}};

using Sample = std::array<double, kMetricCount>;

Sample measure(const exp::ScenarioConfig& cfg) {
  exp::Scenario s(cfg);
  s.run();
  const exp::RunMetrics m = s.metrics();
  const auto tx = static_cast<double>(s.channel().counters().transmissions);
  double busy_s = 0.0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    busy_s += s.node_phy(i).cumulative_busy_time().to_seconds();
  }
  const double horizon_s = (cfg.warmup + cfg.traffic_time + cfg.drain).to_seconds();
  return {m.pdr,
          m.mean_delay_ms,
          m.nrl,
          static_cast<double>(m.phy_collisions) / tx,
          static_cast<double>(m.mac_retries) / tx,
          m.mean_busy_ratio,
          busy_s / horizon_s / static_cast<double>(s.node_count()),
          m.total_energy_j};
}

// --- reference file ---------------------------------------------------------
using Reference = std::map<std::string, std::map<std::uint64_t, Sample>>;

Reference load_reference() {
  std::ifstream in(WMN_EQUIVALENCE_CSV);
  Reference ref;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header) {  // column names
      header = false;
      continue;
    }
    std::stringstream row(line);
    std::string config;
    std::string cell;
    std::getline(row, config, ',');
    std::getline(row, cell, ',');
    const std::uint64_t seed = std::stoull(cell);
    Sample v{};
    for (double& x : v) {
      std::getline(row, cell, ',');
      x = std::stod(cell);
    }
    ref[config][seed] = v;
  }
  return ref;
}

int record(const std::string& commit) {
  std::FILE* out = std::fopen(WMN_EQUIVALENCE_CSV, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", WMN_EQUIVALENCE_CSV);
    return 1;
  }
  std::fprintf(out,
               "# Equivalence reference recorded at commit %s with\n"
               "# `test_equivalence --record %s`: seeds 1..%llu per config.\n",
               commit.c_str(), commit.c_str(),
               static_cast<unsigned long long>(2 * kSeeds));
  std::fprintf(out, "config,seed");
  for (const Metric& m : kMetrics) std::fprintf(out, ",%s", m.name);
  std::fprintf(out, "\n");
  for (const Config& c : kConfigs) {
    for (std::uint64_t seed = 1; seed <= 2 * kSeeds; ++seed) {
      const Sample v = measure(c.make(seed));
      std::fprintf(out, "%s,%llu", c.name, static_cast<unsigned long long>(seed));
      for (const double x : v) std::fprintf(out, ",%.17g", x);
      std::fprintf(out, "\n");
    }
    std::fprintf(stderr, "recorded %s\n", c.name);
  }
  return std::fclose(out) == 0 ? 0 : 1;
}

// --- the comparison -----------------------------------------------------------
// Welch 95% CI of mean(a) - mean(b), from each side's Student-t CI:
// the standard error of a mean is its CI half-width over t(n - 1).
stats::ConfidenceInterval welch_difference(const std::vector<double>& a,
                                           const std::vector<double>& b) {
  const stats::ConfidenceInterval ca = stats::mean_ci_95(a);
  const stats::ConfidenceInterval cb = stats::mean_ci_95(b);
  const double va = std::pow(ca.half_width / stats::t_critical_95(a.size() - 1), 2);
  const double vb = std::pow(cb.half_width / stats::t_critical_95(b.size() - 1), 2);
  stats::ConfidenceInterval d;
  d.mean = ca.mean - cb.mean;
  if (va + vb == 0.0) return d;
  // Welch-Satterthwaite degrees of freedom, rounded down.
  const double df = (va + vb) * (va + vb) /
                    (va * va / static_cast<double>(a.size() - 1) +
                     vb * vb / static_cast<double>(b.size() - 1));
  d.half_width = stats::t_critical_95(static_cast<std::size_t>(df)) * std::sqrt(va + vb);
  return d;
}

// 95% CI of the mean per-seed difference a[i] - b[i] (both lists in
// seed order): the seed's placement and flows cancel, leaving only the
// runs' own divergence.
stats::ConfidenceInterval paired_difference(const std::vector<double>& a,
                                            const std::vector<double>& b) {
  std::vector<double> d;
  for (std::size_t i = 0; i < a.size(); ++i) d.push_back(a[i] - b[i]);
  return stats::mean_ci_95(d);
}

struct Verdict {
  std::array<bool, kMetricCount> pass{};
  std::string table;
  [[nodiscard]] bool all() const {
    for (const bool p : pass) {
      if (!p) return false;
    }
    return true;
  }
};

// Welch compares independent seed sets against Metric::delta; paired
// compares the same seeds against Metric::paired_delta.
enum class Pairing { kWelch, kSeedPaired };

Verdict compare(const std::vector<Sample>& got, const std::vector<Sample>& ref,
                Pairing pairing = Pairing::kWelch) {
  Verdict v;
  if (got.size() < 2 || ref.size() < 2 ||
      (pairing == Pairing::kSeedPaired && got.size() != ref.size())) {
    v.table = "  no comparable seeds\n";
    return v;  // every metric fails
  }
  for (std::size_t k = 0; k < kMetricCount; ++k) {
    std::vector<double> a;
    std::vector<double> b;
    for (const Sample& s : got) a.push_back(s[k]);
    for (const Sample& s : ref) b.push_back(s[k]);
    const bool paired = pairing == Pairing::kSeedPaired;
    const stats::ConfidenceInterval d =
        paired ? paired_difference(a, b) : welch_difference(a, b);
    const double delta = paired ? kMetrics[k].paired_delta : kMetrics[k].delta;
    const double scale = std::abs(stats::mean_ci_95(b).mean);
    const double lo = scale > 0.0 ? d.lo() / scale : d.lo();
    const double hi = scale > 0.0 ? d.hi() / scale : d.hi();
    v.pass[k] = lo >= -delta && hi <= delta;
    char line[160];
    std::snprintf(line, sizeof line, "  %-22s [%+.4f, %+.4f] of mean, delta %.3f  %s\n",
                  kMetrics[k].name, lo, hi, delta, v.pass[k] ? "ok" : "OUT");
    v.table += line;
  }
  return v;
}

std::vector<Sample> reference_seeds(const Reference& ref, const Config& c,
                                    std::uint64_t first, std::uint64_t last) {
  std::vector<Sample> out;
  const auto it = ref.find(c.name);
  if (it == ref.end()) return out;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const auto s = it->second.find(seed);
    if (s != it->second.end()) out.push_back(s->second);
  }
  return out;
}

std::vector<Sample> run_seeds(const Config& c, double cca_shift_db) {
  std::vector<Sample> out;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    exp::ScenarioConfig cfg = c.make(seed);
    cfg.phy.cca_threshold_dbm += cca_shift_db;
    out.push_back(measure(cfg));
  }
  return out;
}

using Runs = std::map<std::pair<std::string, double>, std::vector<Sample>>;

class Equivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reference_ = new Reference(load_reference());
    runs_ = new Runs;
  }
  static void TearDownTestSuite() {
    delete reference_;
    reference_ = nullptr;
    delete runs_;
    runs_ = nullptr;
  }
  static const Reference& reference() { return *reference_; }
  // This build on seeds 1..N with the CCA threshold shifted; each
  // (config, shift) runs once and serves both comparisons.
  static const std::vector<Sample>& this_build(const Config& c, double cca_shift_db) {
    std::vector<Sample>& runs = (*runs_)[{c.name, cca_shift_db}];
    if (runs.empty()) runs = run_seeds(c, cca_shift_db);
    return runs;
  }

 private:
  static Reference* reference_;
  static Runs* runs_;
};

Reference* Equivalence::reference_ = nullptr;
Runs* Equivalence::runs_ = nullptr;

TEST_F(Equivalence, ReferenceCoversEveryConfig) {
  for (const Config& c : kConfigs) {
    EXPECT_EQ(reference_seeds(reference(), c, 1, 2 * kSeeds).size(), 2 * kSeeds)
        << c.name << " is missing from " << WMN_EQUIVALENCE_CSV;
  }
}

// Positive control: seed noise alone stays inside every band.
TEST_F(Equivalence, ReferenceHalvesAgree) {
  for (const Config& c : kConfigs) {
    const Verdict v = compare(reference_seeds(reference(), c, 1, kSeeds),
                              reference_seeds(reference(), c, kSeeds + 1, 2 * kSeeds));
    EXPECT_TRUE(v.all()) << c.name << " seeds 1.." << kSeeds << " vs "
                         << kSeeds + 1 << ".." << 2 * kSeeds << ":\n" << v.table;
    std::printf("%s reference halves:\n%s", c.name, v.table.c_str());
  }
}

// The check itself: this build against the reference, seeds 1..N.
TEST_F(Equivalence, ThisBuildMatchesTheReference) {
  for (const Config& c : kConfigs) {
    const Verdict v = compare(this_build(c, 0.0), reference_seeds(reference(), c, 1, kSeeds));
    EXPECT_TRUE(v.all()) << c.name << ":\n" << v.table;
    std::printf("%s vs reference:\n%s", c.name, v.table.c_str());
  }
}

// Negative control: a 2 dB CCA threshold shift is a real physics change
// and must leave at least one metric outside its band.
TEST_F(Equivalence, CcaThresholdShiftIsDetected) {
  for (const Config& c : kConfigs) {
    const Verdict v = compare(this_build(c, 2.0), reference_seeds(reference(), c, 1, kSeeds));
    EXPECT_FALSE(v.all()) << c.name << " with CCA +2 dB passed:\n" << v.table;
    std::printf("%s with CCA +2 dB vs reference:\n%s", c.name, v.table.c_str());
  }
}

// Seed for seed, the bands are those of the runs' own divergence: the
// positive control is this build against itself with the CCA
// threshold moved by 0.01 dB, a shift too small to change the physics
// that still sends every run down another trajectory.
TEST_F(Equivalence, TinyCcaShiftAgreesSeedForSeed) {
  for (const Config& c : kConfigs) {
    const Verdict v = compare(this_build(c, 0.01), this_build(c, 0.0), Pairing::kSeedPaired);
    EXPECT_TRUE(v.all()) << c.name << " with CCA +0.01 dB, seed for seed:\n" << v.table;
    std::printf("%s with CCA +0.01 dB vs this build, seed for seed:\n%s", c.name,
                v.table.c_str());
  }
}

TEST_F(Equivalence, ThisBuildMatchesTheReferenceSeedForSeed) {
  for (const Config& c : kConfigs) {
    const Verdict v = compare(this_build(c, 0.0), reference_seeds(reference(), c, 1, kSeeds),
                              Pairing::kSeedPaired);
    EXPECT_TRUE(v.all()) << c.name << " seed for seed:\n" << v.table;
    std::printf("%s vs reference, seed for seed:\n%s", c.name, v.table.c_str());
  }
}

TEST_F(Equivalence, CcaThresholdShiftIsDetectedSeedForSeed) {
  for (const Config& c : kConfigs) {
    const Verdict v = compare(this_build(c, 2.0), reference_seeds(reference(), c, 1, kSeeds),
                              Pairing::kSeedPaired);
    EXPECT_FALSE(v.all()) << c.name << " with CCA +2 dB passed seed for seed:\n"
                          << v.table;
    std::printf("%s with CCA +2 dB vs reference, seed for seed:\n%s", c.name,
                v.table.c_str());
  }
}

}  // namespace
}  // namespace wmn

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--record") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: %s --record COMMIT\n", argv[0]);
        return 2;
      }
      return wmn::record(argv[i + 1]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
