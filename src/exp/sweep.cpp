#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "exp/journal.hpp"

namespace wmn::exp {

// --------------------------------------------------------------------------
// SweepEngine
// --------------------------------------------------------------------------

SweepEngine::SweepEngine(unsigned threads)
    : threads_(threads == 0 ? 1u : threads) {}

std::size_t SweepEngine::add_cell(const ScenarioConfig& cfg,
                                  std::size_t n_reps, std::string label) {
  WMN_CHECK(!ran_, "add_cell after run(): a SweepEngine drains once");
  WMN_CHECK_GT(n_reps, std::size_t{0}, "a sweep cell needs >= 1 replication");
  Cell cell;
  cell.label = std::move(label);
  cell.cfg = cfg;
  cell.digest = config_digest(cfg);
  cell.first = outcomes_.size();
  cell.n_reps = n_reps;
  outcomes_.resize(outcomes_.size() + n_reps);
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

void SweepEngine::enable_journal(std::string path) {
  WMN_CHECK(!ran_, "enable_journal after run()");
  WMN_CHECK(!path.empty(), "journal path must be non-empty");
  journal_path_ = std::move(path);
}

RunMetrics SweepEngine::execute(const ScenarioConfig& cfg) {
  Scenario scenario(cfg);
  scenario.run();
  return scenario.metrics();
}

void SweepEngine::run_slot(std::size_t cell_id, std::size_t rep) {
  const Cell& cell = cells_[cell_id];
  RepOutcome& out = outcomes_[cell.first + rep];
  ScenarioConfig cfg = cell.cfg;  // private copy per task
  cfg.seed = replication_seed(cell.cfg.seed, cell_id, rep);
  out.seed = cfg.seed;

  try {
    out.metrics = execute(cfg);
  } catch (const RunAborted& e) {
    out.kind = e.kind();
    out.error = e.what();
    return;
  } catch (const std::exception& e) {
    out.kind = FailureKind::kException;
    out.error = e.what();
    return;
  } catch (...) {
    out.kind = FailureKind::kException;
    out.error = "unknown exception";
    return;
  }

  if (out.metrics->check_violations > 0) {
    // The run finished but tripped invariants under kLogAndCount:
    // keep the numbers for inspection, exclude them from statistics.
    std::ostringstream oss;
    oss << out.metrics->check_violations
        << " invariant violation(s) (WMN_CHECK, log-and-count)";
    out.kind = FailureKind::kCheckTaint;
    out.error = oss.str();
  }
}

void SweepEngine::run() {
  WMN_CHECK(!ran_, "SweepEngine::run() called twice");
  ran_ = true;

  // Open the record before any slot runs: an unwritable path fails the
  // sweep before it spends anything, and "w" drops an earlier
  // campaign's lines.
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, FileCloser> journal;
  if (!journal_path_.empty()) {
    journal.reset(std::fopen(journal_path_.c_str(), "w"));
    if (journal == nullptr) {
      throw std::runtime_error("cannot open sweep journal for writing: " +
                               journal_path_);
    }
  }

  // Flatten the (cell, rep) pairs into one list. Each slot writes its
  // own outcomes_ entry exclusively, so a worker is a loop over the
  // shared index. Joining the workers publishes every slot write.
  struct Task {
    std::size_t cell;
    std::size_t rep;
  };
  std::vector<Task> tasks;
  tasks.reserve(outcomes_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    for (std::size_t r = 0; r < cells_[c].n_reps; ++r) tasks.push_back({c, r});
  }
  std::atomic<std::size_t> next{0};
  const auto drain = [this, &tasks, &next] {
    for (;;) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) return;
      try {
        run_slot(tasks[t].cell, tasks[t].rep);
      } catch (const std::exception& e) {
        // run_slot contains what a replication throws; this is the
        // harness's own failure (an allocation while copying the config
        // or writing the report). It fails the slot rather than end the
        // process from a worker.
        RepOutcome& out = outcomes_[cells_[tasks[t].cell].first + tasks[t].rep];
        out.metrics.reset();
        out.kind = FailureKind::kException;
        out.error = e.what();
      }
    }
  };
  const std::size_t workers = std::min<std::size_t>(threads_, tasks.size());
  if (workers <= 1) {
    drain();
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(drain);
  }

  if (journal == nullptr) return;
  for (const Task& t : tasks) {  // (cell, rep) order
    const RepOutcome& out = outcomes_[cells_[t.cell].first + t.rep];
    if (!out.ok()) continue;
    JournalRecord rec;
    rec.cell = t.cell;
    rec.rep = t.rep;
    rec.cfg_digest = cells_[t.cell].digest;
    rec.fingerprint = fingerprint(*out.metrics);
    rec.metrics = *out.metrics;
    std::fputs(journal_line(rec).c_str(), journal.get());
    std::fputc('\n', journal.get());
  }
  const bool write_failed = std::ferror(journal.get()) != 0;
  if (std::fclose(journal.release()) != 0 || write_failed) {
    throw std::runtime_error("cannot write sweep journal: " + journal_path_);
  }
}

std::span<const RepOutcome> SweepEngine::cell(std::size_t id) const {
  WMN_CHECK(ran_, "cell() before run(): results not computed yet");
  WMN_CHECK_LT(id, cells_.size(), "cell id out of range");
  return {outcomes_.data() + cells_[id].first, cells_[id].n_reps};
}

std::vector<RunMetrics> SweepEngine::cell_metrics(std::size_t id) const {
  std::vector<RunMetrics> out;
  for (const RepOutcome& rep : cell(id)) {
    if (rep.ok()) out.push_back(*rep.metrics);
  }
  return out;
}

std::size_t SweepEngine::task_count() const { return outcomes_.size(); }

std::size_t SweepEngine::failed_count() const {
  WMN_CHECK(ran_, "failed_count() before run()");
  std::size_t n = 0;
  for (const RepOutcome& rep : outcomes_) {
    if (!rep.ok()) ++n;
  }
  return n;
}

FailureCounts SweepEngine::failure_counts() const {
  WMN_CHECK(ran_, "failure_counts() before run()");
  FailureCounts counts{};
  for (const RepOutcome& rep : outcomes_) {
    counts[static_cast<std::size_t>(rep.kind)]++;
  }
  return counts;
}

std::string SweepEngine::failure_report() const {
  WMN_CHECK(ran_, "failure_report() before run()");
  std::ostringstream oss;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    for (std::size_t r = 0; r < cell.n_reps; ++r) {
      const RepOutcome& rep = outcomes_[cell.first + r];
      if (rep.ok()) continue;
      oss << "  cell " << c;
      if (!cell.label.empty()) oss << " (" << cell.label << ")";
      oss << " rep " << r << " seed " << rep.seed << " ["
          << failure_kind_name(rep.kind) << "]";
      oss << ": " << rep.error << "\n";
    }
  }
  return oss.str();
}

// --------------------------------------------------------------------------
// Replication + aggregation helpers
// --------------------------------------------------------------------------

std::vector<RunMetrics> run_replications(const ScenarioConfig& base,
                                         std::size_t n_reps, unsigned threads) {
  SweepEngine engine(threads);
  const std::size_t id = engine.add_cell(base, n_reps);
  engine.run();
  if (engine.failed_count() > 0) {
    throw std::runtime_error("run_replications: " +
                             std::to_string(engine.failed_count()) +
                             " replication(s) failed:\n" +
                             engine.failure_report());
  }
  return engine.cell_metrics(id);
}

std::vector<double> extract(std::span<const RunMetrics> reps,
                            const MetricFn& fn) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const RunMetrics& r : reps) out.push_back(fn(r));
  return out;
}

stats::ConfidenceInterval ci(std::span<const RunMetrics> reps,
                             const MetricFn& fn) {
  const std::vector<double> xs = extract(reps, fn);
  return stats::mean_ci_95(xs);
}

std::string ci_str(std::span<const RunMetrics> reps, const MetricFn& fn,
                   int precision) {
  // Every replication of the cell failed: say so instead of printing a
  // fabricated zero.
  if (reps.empty()) return "n/a";
  const auto c = ci(reps, fn);
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(precision);
  oss << c.mean;
  // With two samples the t(1)=12.7 multiplier makes the half-width
  // uninformative noise; report it from three replications up.
  if (reps.size() >= 3) oss << " +-" << c.half_width;
  return oss.str();
}

// --------------------------------------------------------------------------
// Environment knobs
// --------------------------------------------------------------------------

namespace {

// Parse a positive integer environment value. Rejects (with a stderr
// warning) anything but a fully-consumed, in-range, positive number:
// "abc", "0", "-3", "3x", "" all fall back to the caller's default.
std::optional<unsigned long long> env_positive(const char* name,
                                               const char* value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  const bool consumed = end != value && *end == '\0';
  // strtoull silently negates "-3" into a huge value; reject any sign.
  if (!consumed || errno == ERANGE || v == 0 ||
      std::strchr(value, '-') != nullptr) {
    std::fprintf(stderr,
                 "[wmn] %s='%s' is not a positive integer; using default\n",
                 name, value);
    return std::nullopt;
  }
  return v;
}

}  // namespace

std::size_t env_reps(std::size_t default_reps) {
  // Operator knob read once at sweep setup, before any worker spawns.
  // It changes how many replications run, never the per-replication
  // seed derivation, so results stay a pure function of (config, seed).
  // NOLINTNEXTLINE(wmn-nondeterminism,concurrency-mt-unsafe)
  if (const char* s = std::getenv("WMN_REPS"); s != nullptr) {
    if (const auto v = env_positive("WMN_REPS", s); v.has_value()) {
      return static_cast<std::size_t>(*v);
    }
  }
  return default_reps;
}

unsigned env_threads() {
  // Same contract as WMN_REPS: thread count is bit-invisible in the
  // results (pool-vs-serial fingerprint test pins this).
  // NOLINTNEXTLINE(wmn-nondeterminism,concurrency-mt-unsafe)
  if (const char* s = std::getenv("WMN_THREADS"); s != nullptr) {
    if (const auto v = env_positive("WMN_THREADS", s); v.has_value()) {
      if (*v > std::numeric_limits<unsigned>::max()) {
        std::fprintf(stderr,
                     "[wmn] WMN_THREADS=%s exceeds the representable range; "
                     "using default\n",
                     s);
        return default_thread_count();
      }
      return static_cast<unsigned>(*v);
    }
  }
  return default_thread_count();
}

void apply_quick_mode(ScenarioConfig& cfg) {
  // Explicit operator opt-in that edits the config itself; anything it
  // changes is visible in the config the fingerprint derives from.
  // NOLINTNEXTLINE(wmn-nondeterminism,concurrency-mt-unsafe)
  if (std::getenv("WMN_QUICK") != nullptr) {
    cfg.traffic_time = sim::Time::seconds(15.0);
  }
}

}  // namespace wmn::exp
