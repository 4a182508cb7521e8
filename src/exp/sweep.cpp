#include "exp/sweep.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
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

SweepEngine::~SweepEngine() {
  if (journal_file_ != nullptr) std::fclose(journal_file_);
}

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

void SweepEngine::set_rep_deadline(double seconds) {
  WMN_CHECK_GE(seconds, 0.0, "replication deadline cannot be negative");
  rep_deadline_s_ = seconds < 0.0 ? 0.0 : seconds;
}

void SweepEngine::enable_journal(std::string path, bool resume) {
  WMN_CHECK(!ran_, "enable_journal after run()");
  WMN_CHECK(!path.empty(), "journal path must be non-empty");
  journal_path_ = std::move(path);
  journal_enabled_ = true;
  resume_ = resume;
}

RunMetrics SweepEngine::execute(const ScenarioConfig& cfg,
                                sim::CancelToken* cancel) {
  Scenario scenario(cfg);
  if (cancel != nullptr) scenario.set_cancel_token(cancel);
  scenario.run();
  return scenario.metrics();
}

void SweepEngine::load_journal() {
  std::ifstream in(journal_path_);
  if (!in.is_open()) return;  // no journal yet: nothing to resume

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto rec = parse_journal_line(line);
    if (!rec.has_value() || !journal_record_consistent(*rec)) {
      // Damaged (truncated write, bit rot): the slot it would have
      // covered simply re-runs. Warn so an operator sees the data loss.
      std::fprintf(stderr,
                   "[wmn] journal %s line %zu: damaged record skipped "
                   "(its slot will re-run)\n",
                   journal_path_.c_str(), lineno);
      continue;
    }
    // A record that parses cleanly but does not belong to *this* sweep
    // is a category error, not damage: refuse to resume rather than
    // silently blend two experiments' results.
    if (rec->cell >= cells_.size() ||
        rec->rep >= cells_[rec->cell].n_reps) {
      throw std::runtime_error(
          "resume refused: journal '" + journal_path_ + "' line " +
          std::to_string(lineno) +
          " addresses a slot outside this sweep (different experiment?)");
    }
    const Cell& cell = cells_[rec->cell];
    if (rec->cfg_digest != cell.digest) {
      throw std::runtime_error(
          "resume refused: journal '" + journal_path_ + "' line " +
          std::to_string(lineno) +
          " has a different scenario config digest — it belongs to a "
          "different experiment; delete the journal (or point "
          "WMN_RESULTS_DIR elsewhere) to start fresh");
    }
    const std::uint64_t want_seed =
        replication_seed(cell.cfg.seed, rec->cell, rec->rep);
    if (rec->metrics.seed != want_seed) {
      throw std::runtime_error(
          "resume refused: journal '" + journal_path_ + "' line " +
          std::to_string(lineno) + " seed does not match replication_seed(" +
          std::to_string(cell.cfg.seed) + ", " + std::to_string(rec->cell) +
          ", " + std::to_string(rec->rep) + ")");
    }
    RepOutcome& out = outcomes_[cell.first + rec->rep];
    if (out.metrics.has_value()) continue;  // duplicate line: first wins
    out.seed = want_seed;
    out.metrics = std::move(rec->metrics);
    out.kind = FailureKind::kNone;
    out.restored = true;
    out.attempts = 0;
    sweep_events_.fetch_add(
        static_cast<std::uint64_t>(out.metrics->sim_event_count),
        std::memory_order_relaxed);
    ++resumed_;
  }
}

void SweepEngine::journal_append(std::size_t cell_id, std::size_t rep,
                                 const RunMetrics& metrics) {
  JournalRecord rec;
  rec.cell = cell_id;
  rec.rep = rep;
  rec.cfg_digest = cells_[cell_id].digest;
  rec.fingerprint = fingerprint(metrics);
  rec.metrics = metrics;
  const std::string line = journal_line(rec);

  const std::lock_guard<std::mutex> lk(journal_mu_);
  if (journal_file_ == nullptr) return;
  std::fputs(line.c_str(), journal_file_);
  std::fputc('\n', journal_file_);
  // Flush per record: a killed process keeps every completed line.
  std::fflush(journal_file_);
}

void SweepEngine::run_slot(std::size_t cell_id, std::size_t rep) {
  const Cell& cell = cells_[cell_id];
  RepOutcome& out = outcomes_[cell.first + rep];
  ScenarioConfig cfg = cell.cfg;  // private copy per task
  cfg.seed = replication_seed(cell.cfg.seed, cell_id, rep);
  out.seed = cfg.seed;

  const unsigned max_attempts = 1 + retry_limit_;
  for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
    // Cumulative sweep budget: once spent, remaining slots are skipped
    // deterministically (checked between attempts, never mid-run).
    if (sweep_event_budget_ != 0 &&
        sweep_events_.load(std::memory_order_relaxed) >= sweep_event_budget_) {
      out.kind = FailureKind::kEventBudgetExhausted;
      out.error = "sweep event budget exhausted before this slot ran";
      out.attempts = attempt - 1;
      return;
    }
    out.attempts = attempt;

    FailureKind kind = FailureKind::kNone;
    std::string error;
    std::optional<RunMetrics> metrics;
    sim::CancelToken token;
    Watchdog::Lease lease;
    if (rep_deadline_s_ > 0.0) {
      lease = watchdog_.watch(token, rep_deadline_s_);
    }
    try {
      metrics =
          execute(cfg, rep_deadline_s_ > 0.0 ? &token : nullptr);
    } catch (const RunAborted& e) {
      kind = e.kind();
      error = e.what();
    } catch (const std::bad_alloc& e) {
      kind = FailureKind::kBadAlloc;
      error = e.what();
    } catch (const std::exception& e) {
      kind = FailureKind::kException;
      error = e.what();
    } catch (...) {
      kind = FailureKind::kException;
      error = "unknown exception";
    }
    lease.release();

    if (kind == FailureKind::kNone && metrics.has_value() &&
        metrics->check_violations > 0) {
      // The run finished but tripped invariants under kLogAndCount:
      // keep the numbers for inspection, exclude them from statistics.
      std::ostringstream oss;
      oss << metrics->check_violations
          << " invariant violation(s) (WMN_CHECK, log-and-count)";
      kind = FailureKind::kCheckTaint;
      error = oss.str();
    }

    if (kind == FailureKind::kNone) {
      out.metrics = std::move(metrics);
      out.kind = FailureKind::kNone;
      out.error.clear();
      sweep_events_.fetch_add(
          static_cast<std::uint64_t>(out.metrics->sim_event_count),
          std::memory_order_relaxed);
      if (journal_enabled_) journal_append(cell_id, rep, *out.metrics);
      return;
    }

    out.kind = kind;
    out.error = error;
    if (kind == FailureKind::kCheckTaint) out.metrics = std::move(metrics);
    if (!failure_is_transient(kind) || attempt == max_attempts) return;
    // Transient failure with attempts left: same seed, fresh token.
  }
}

void SweepEngine::run() {
  WMN_CHECK(!ran_, "SweepEngine::run() called twice");
  ran_ = true;

  if (journal_enabled_) {
    if (resume_) load_journal();
    journal_file_ = std::fopen(journal_path_.c_str(), "a+");
    if (journal_file_ == nullptr) {
      throw std::runtime_error("cannot open sweep journal for append: " +
                               journal_path_);
    }
    // A crash can leave a torn final line with no newline; terminate it
    // now or the first record appended below would concatenate onto the
    // damage and be lost too.
    if (std::fseek(journal_file_, -1, SEEK_END) == 0) {
      if (std::fgetc(journal_file_) != '\n') std::fputc('\n', journal_file_);
    }
  }

  // Flatten the (cell, rep) pairs still owed an execution into one
  // list. Journal-restored slots are already final and never re-run —
  // that is the whole point of resume.
  struct Task {
    std::size_t cell;
    std::size_t rep;
  };
  std::vector<Task> tasks;
  tasks.reserve(outcomes_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    for (std::size_t r = 0; r < cells_[c].n_reps; ++r) {
      if (!outcomes_[cells_[c].first + r].restored) tasks.push_back({c, r});
    }
  }

  // Each slot writes its own outcomes_ entry exclusively, so a worker
  // is a loop over the shared index. Joining the workers publishes
  // every slot write.
  std::atomic<std::size_t> next{0};
  const auto drain = [this, &tasks, &next] {
    for (;;) {
      const std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) return;
      try {
        run_slot(tasks[t].cell, tasks[t].rep);
      } catch (const std::exception& e) {
        // run_slot contains what a replication throws; this is the
        // harness's own failure (an allocation, the watchdog's start).
        // It fails the slot rather than end the process from a worker.
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

  if (journal_file_ != nullptr) {
    std::fclose(journal_file_);
    journal_file_ = nullptr;
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
      if (rep.attempts > 1) oss << " after " << rep.attempts << " attempts";
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

// Like env_positive but zero is a legal value (e.g. WMN_RETRIES=0
// means "never retry").
std::optional<unsigned long long> env_nonnegative(const char* name,
                                                  const char* value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  const bool consumed = end != value && *end == '\0';
  if (!consumed || errno == ERANGE || std::strchr(value, '-') != nullptr) {
    std::fprintf(stderr,
                 "[wmn] %s='%s' is not a non-negative integer; using default\n",
                 name, value);
    return std::nullopt;
  }
  return v;
}

std::optional<double> env_positive_double(const char* name,
                                          const char* value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  const bool consumed = end != value && *end == '\0';
  if (!consumed || errno == ERANGE || !(v > 0.0)) {
    std::fprintf(stderr,
                 "[wmn] %s='%s' is not a positive number; using default\n",
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

void apply_supervision_env(SweepEngine& sweep, const std::string& journal_path,
                           bool force_resume) {
  // All four knobs follow the WMN_REPS contract: read once at setup,
  // steering only *which* slots execute (or whether a hung one is
  // abandoned) — never what an executed slot computes.
  // NOLINTNEXTLINE(wmn-nondeterminism,concurrency-mt-unsafe)
  if (const char* s = std::getenv("WMN_DEADLINE_S"); s != nullptr) {
    if (const auto v = env_positive_double("WMN_DEADLINE_S", s);
        v.has_value()) {
      sweep.set_rep_deadline(*v);
    }
  }
  // NOLINTNEXTLINE(wmn-nondeterminism,concurrency-mt-unsafe)
  if (const char* s = std::getenv("WMN_RETRIES"); s != nullptr) {
    if (const auto v = env_nonnegative("WMN_RETRIES", s); v.has_value()) {
      sweep.set_retry_limit(static_cast<unsigned>(
          std::min<unsigned long long>(*v, 16)));  // sanity ceiling
    }
  }
  // NOLINTNEXTLINE(wmn-nondeterminism,concurrency-mt-unsafe)
  if (const char* s = std::getenv("WMN_SWEEP_EVENT_BUDGET"); s != nullptr) {
    if (const auto v = env_positive("WMN_SWEEP_EVENT_BUDGET", s);
        v.has_value()) {
      sweep.set_sweep_event_budget(*v);
    }
  }
  if (!journal_path.empty()) {
    // NOLINTNEXTLINE(wmn-nondeterminism,concurrency-mt-unsafe)
    const bool resume = force_resume || std::getenv("WMN_RESUME") != nullptr;
    sweep.enable_journal(journal_path, resume);
  }
}

}  // namespace wmn::exp
