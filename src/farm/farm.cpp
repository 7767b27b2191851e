#include "farm/farm.hpp"

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace recosim::farm {

const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kFailed: return "failed";
    case RunStatus::kQuarantined: return "quarantined";
    case RunStatus::kUnfinished: return "unfinished";
  }
  return "?";
}

const char* to_string(Incident::Kind k) {
  switch (k) {
    case Incident::Kind::kException: return "exception";
    case Incident::Kind::kDeadline: return "deadline";
    case Incident::Kind::kNondeterministic: return "nondeterministic";
    case Incident::Kind::kRepeatedFailure: return "repeated-failure";
  }
  return "?";
}

int CampaignReport::exit_status() const {
  if (interrupted) return 4;
  if (failed > 0) return 1;
  if (quarantined > 0) return 3;
  return 0;
}

namespace {

RunStatus parse_status(const std::string& s) {
  if (s == "ok") return RunStatus::kOk;
  if (s == "failed") return RunStatus::kFailed;
  if (s == "quarantined") return RunStatus::kQuarantined;
  return RunStatus::kUnfinished;
}

/// Worker-thread bookkeeping; all mutable fields are guarded by the
/// farm-wide mutex so the watchdog can inspect and abandon workers.
struct Worker {
  std::thread th;
  bool active = false;     ///< a run is in flight
  bool abandoned = false;  ///< watchdog gave up on this worker
  std::size_t job = 0;
  int attempt = 0;
  // A hung worker's sim clock has stopped; only wall-clock can notice.
  // recosim-tidy: allow(RCD002): watchdog deadline is real time by design
  std::chrono::steady_clock::time_point started;
  std::shared_ptr<std::atomic<bool>> cancel;
};

/// Everything one campaign shares across workers, the watchdog and the
/// ordered flusher.
struct Campaign {
  const FarmConfig& cfg;
  const std::vector<Job>& jobs;
  CampaignReport& report;

  std::mutex mu;
  std::condition_variable watchdog_cv;
  std::vector<char> done;          ///< guarded by mu
  std::size_t next_flush = 0;      ///< guarded by mu
  std::atomic<std::size_t> next_job{0};
  std::atomic<bool> draining{false};
  std::atomic<bool> finished{false};
  std::vector<std::shared_ptr<Worker>> pool;  ///< guarded by mu
  JournalWriter journal;

  Campaign(const FarmConfig& c, const std::vector<Job>& j, CampaignReport& r)
      : cfg(c), jobs(j), report(r) {}

  bool stop_requested() const {
    return cfg.stop_requested && cfg.stop_requested();
  }

  /// Print and journal every completed record in job order. Caller holds mu.
  void flush_locked() {
    while (next_flush < jobs.size() && done[next_flush]) {
      const std::size_t i = next_flush++;
      const RunRecord& rec = report.records[i];
      if (rec.resumed) continue;  // already journaled by the prior invocation
      if (cfg.out) {
        std::ostream& out = *cfg.out;
        out << rec.output;
        for (const auto& inc : rec.incidents) {
          out << "INCIDENT " << to_string(inc.kind) << " arch="
              << rec.key.arch << " seed=" << rec.key.seed << " attempt="
              << inc.attempt;
          if (!inc.detail.empty()) out << ": " << inc.detail;
          out << "\n";
        }
        if (rec.status == RunStatus::kQuarantined) {
          out << "QUARANTINE arch=" << rec.key.arch << " seed="
              << rec.key.seed << " reason=" << rec.reason << "\n";
          if (!jobs[i].artifact.empty())
            out << "--- quarantined schedule (replay with: recosim-chaos "
                   "--replay <file>) ---\n"
                << jobs[i].artifact << "--- end schedule ---\n";
        }
        out.flush();
      }
      if (journal.enabled()) {
        JournalRun jr;
        jr.key = rec.key.hash();
        jr.arch = rec.key.arch;
        jr.seed = rec.key.seed;
        jr.scenario = rec.key.scenario;
        jr.status = to_string(rec.status);
        jr.reason = rec.reason;
        jr.digest = rec.digest;
        jr.attempts = rec.attempts;
        for (const auto& inc : rec.incidents)
          journal.incident(jr, to_string(inc.kind), inc.attempt, inc.detail,
                           jobs[i].artifact);
        journal.run(jr);
      }
    }
  }

  /// Execute one job with bounded retry. Returns false when the worker was
  /// abandoned mid-run (result discarded, thread must exit).
  bool execute(std::size_t idx, const std::shared_ptr<Worker>& self,
               RunRecord& rec) {
    const Job& job = jobs[idx];
    rec.key = job.key;
    std::string first_digest;
    bool have_completed = false;  // a prior attempt completed (ok=false)
    std::string first_exception;

    for (int attempt = 1; attempt <= std::max(1, cfg.max_attempts);
         ++attempt) {
      if (attempt > 1) {
        // Bounded backoff before the retry; wall-clock only, never part of
        // the simulated results.
        std::this_thread::sleep_for(cfg.retry_backoff * (1 << (attempt - 2)));
      }
      auto cancel = std::make_shared<std::atomic<bool>>(false);
      {
        std::lock_guard<std::mutex> lk(mu);
        self->active = true;
        self->job = idx;
        self->attempt = attempt;
        // recosim-tidy: allow(RCD002): watchdog timestamp outside any run
        self->started = std::chrono::steady_clock::now();
        self->cancel = cancel;
      }
      RunContext ctx;
      ctx.key = &job.key;
      ctx.attempt = attempt;
      ctx.final_attempt = attempt >= cfg.max_attempts;
      ctx.cancel = cancel.get();

      RunResult res;
      bool threw = false;
      std::string what;
      try {
        res = job.fn(ctx);
      } catch (const std::exception& e) {
        threw = true;
        what = e.what();
      } catch (...) {
        threw = true;
        what = "non-standard exception";
      }
      bool was_cancelled = false;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (self->abandoned) return false;
        self->active = false;
        self->cancel.reset();
        was_cancelled = cancel->load();
      }
      rec.attempts = attempt;

      if (was_cancelled) {
        // Deadline kill. Retrying a hung run would just burn another
        // deadline, so it goes straight to quarantine with its schedule.
        rec.status = RunStatus::kQuarantined;
        rec.reason = "deadline";
        rec.incidents.push_back(
            {Incident::Kind::kDeadline, attempt,
             "run exceeded its wall-clock deadline and was cancelled"});
        return true;
      }
      if (threw) {
        rec.incidents.push_back({Incident::Kind::kException, attempt, what});
        if (attempt == 1) first_exception = what;
        if (attempt >= cfg.max_attempts) {
          rec.status = RunStatus::kQuarantined;
          rec.reason = "exception";
          return true;
        }
        continue;  // retry
      }

      rec.digest = res.digest;
      rec.output = res.output;

      if (res.ok && attempt == 1) {
        rec.status = RunStatus::kOk;
        return true;
      }
      if (!have_completed) {
        if (!first_exception.empty()) {
          // Threw on an earlier attempt, completed now: flaky either way.
          rec.status = RunStatus::kQuarantined;
          rec.reason = "nondeterministic";
          rec.incidents.push_back(
              {Incident::Kind::kNondeterministic, attempt,
               "attempt 1 threw but the retry completed (digest " +
                   res.digest + ")"});
          return true;
        }
        if (attempt >= cfg.max_attempts) {
          // Out of attempts with a single completed failure: report it,
          // unconfirmed by a replay.
          rec.status = RunStatus::kFailed;
          rec.reason = "failure";
          return true;
        }
        first_digest = res.digest;
        have_completed = true;
        continue;  // retry to confirm determinism
      }
      // A retry of a completed failure: it must replay bit-identically.
      if (res.digest == first_digest) {
        rec.status = RunStatus::kFailed;
        rec.reason = "deterministic-failure";
        rec.incidents.push_back(
            {Incident::Kind::kRepeatedFailure, attempt,
             "failure reproduced bit-identically on retry (digest " +
                 res.digest + ")"});
      } else {
        rec.status = RunStatus::kQuarantined;
        rec.reason = "nondeterministic";
        rec.incidents.push_back(
            {Incident::Kind::kNondeterministic, attempt,
             "retry digest " + res.digest + " differs from attempt digest " +
                 first_digest});
      }
      return true;
    }
    return true;
  }

  void worker_loop(std::shared_ptr<Worker> self) {
    while (true) {
      if (stop_requested()) {
        draining.store(true);
        return;
      }
      if (draining.load()) return;
      const std::size_t i = next_job.fetch_add(1);
      if (i >= jobs.size()) return;
      {
        std::lock_guard<std::mutex> lk(mu);
        if (done[i]) {  // satisfied from the journal
          flush_locked();
          continue;
        }
      }
      RunRecord rec;
      const bool keep = execute(i, self, rec);
      std::lock_guard<std::mutex> lk(mu);
      if (!keep || self->abandoned) return;  // result discarded
      report.records[i] = std::move(rec);
      done[i] = true;
      flush_locked();
    }
  }

  void spawn_worker_locked() {
    auto w = std::make_shared<Worker>();
    pool.push_back(w);
    w->th = std::thread([this, w] { worker_loop(w); });
  }

  /// Deadline scan: cancel overdue runs; abandon workers whose run ignores
  /// the token past the grace period, record the quarantine, and spawn a
  /// replacement so the campaign still completes.
  void watchdog_loop() {
    const auto tick = std::min<std::chrono::milliseconds>(
        std::chrono::milliseconds(50),
        std::max<std::chrono::milliseconds>(std::chrono::milliseconds(1),
                                            cfg.run_deadline / 4));
    std::unique_lock<std::mutex> lk(mu);
    while (!finished.load()) {
      watchdog_cv.wait_for(lk, tick);
      if (finished.load()) return;
      // A hung worker advances no sim cycles; only wall-clock sees it.
      // recosim-tidy: allow(RCD002): watchdog deadline check
      const auto now = std::chrono::steady_clock::now();
      for (std::size_t wi = 0; wi < pool.size(); ++wi) {
        auto& w = pool[wi];
        if (!w->active || w->abandoned) continue;
        const auto elapsed = now - w->started;
        if (elapsed < cfg.run_deadline) continue;
        if (w->cancel && !w->cancel->load()) w->cancel->store(true);
        if (elapsed < cfg.run_deadline + cfg.hang_grace) continue;
        // The run ignored its cancel token: abandon the worker.
        w->abandoned = true;
        w->active = false;
        w->th.detach();
        ++report.abandoned_workers;
        const std::size_t i = w->job;
        RunRecord rec;
        rec.key = jobs[i].key;
        rec.status = RunStatus::kQuarantined;
        rec.reason = "deadline";
        rec.attempts = w->attempt;
        rec.incidents.push_back(
            {Incident::Kind::kDeadline, w->attempt,
             "run ignored its cancel token past the grace period; worker "
             "abandoned"});
        report.records[i] = std::move(rec);
        done[i] = true;
        flush_locked();
        spawn_worker_locked();
      }
    }
  }
};

}  // namespace

SimFarm::SimFarm(FarmConfig config) : cfg_(std::move(config)) {}

CampaignReport SimFarm::run(const std::vector<Job>& jobs) {
  CampaignReport report;
  report.total = jobs.size();
  report.records.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    report.records[i].key = jobs[i].key;

  Campaign c(cfg_, jobs, report);
  c.done.assign(jobs.size(), 0);

  // Resume: satisfy jobs that already have a terminal journal record.
  if (!cfg_.journal_path.empty() && cfg_.resume) {
    const JournalContents jc = read_journal(cfg_.journal_path);
    if (!jc.error.empty())
      throw std::runtime_error("journal " + cfg_.journal_path + ": " +
                               jc.error);
    if (jc.valid) {
      if (jc.config_hash != content_hash(cfg_.campaign_config))
        throw std::runtime_error(
            "journal " + cfg_.journal_path +
            " was written by a campaign with a different configuration "
            "(config hash " + jc.config_hash + " vs " +
            content_hash(cfg_.campaign_config) + ")");
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto it = jc.runs.find(jobs[i].key.hash());
        if (it == jc.runs.end()) continue;
        RunRecord& rec = report.records[i];
        rec.status = parse_status(it->second.status);
        if (rec.status == RunStatus::kUnfinished) continue;
        rec.reason = it->second.reason;
        rec.digest = it->second.digest;
        rec.attempts = it->second.attempts;
        rec.resumed = true;
        c.done[i] = 1;
      }
    }
  }

  if (!cfg_.journal_path.empty()) {
    c.journal.open(cfg_.journal_path);
    if (!c.journal.ok())
      throw std::runtime_error("cannot open journal " + cfg_.journal_path);
    c.journal.campaign(cfg_.campaign_config, jobs.size(), cfg_.resume);
  }

  {
    std::lock_guard<std::mutex> lk(c.mu);
    c.flush_locked();  // leading resumed records
  }

  const int workers = std::max(
      1, std::min<int>(cfg_.jobs, static_cast<int>(std::max<std::size_t>(
                                      1, jobs.size()))));
  std::thread watchdog;
  if (cfg_.run_deadline.count() > 0)
    watchdog = std::thread([&c] { c.watchdog_loop(); });
  {
    std::lock_guard<std::mutex> lk(c.mu);
    for (int w = 0; w < workers; ++w) c.spawn_worker_locked();
  }

  // Join every non-abandoned worker; the pool can grow while we join
  // (watchdog replacements), so snapshot repeatedly until stable.
  for (std::size_t i = 0;;) {
    std::thread th;
    {
      std::lock_guard<std::mutex> lk(c.mu);
      while (i < c.pool.size() && !c.pool[i]->th.joinable()) ++i;
      if (i >= c.pool.size()) break;
      th = std::move(c.pool[i]->th);
      ++i;
    }
    th.join();
  }
  c.finished.store(true);
  if (watchdog.joinable()) {
    c.watchdog_cv.notify_all();
    watchdog.join();
  }

  std::lock_guard<std::mutex> lk(c.mu);
  c.flush_locked();
  report.interrupted =
      c.draining.load() || c.next_job.load() < jobs.size() ||
      std::count(c.done.begin(), c.done.end(), 1) !=
          static_cast<std::ptrdiff_t>(jobs.size());
  for (const RunRecord& rec : report.records) {
    report.incidents += rec.incidents.size();
    if (rec.resumed) ++report.resumed;
    switch (rec.status) {
      case RunStatus::kOk: ++report.ok; break;
      case RunStatus::kFailed:
        ++report.failed;
        report.quarantine.push_back(rec.key);
        break;
      case RunStatus::kQuarantined:
        ++report.quarantined;
        report.quarantine.push_back(rec.key);
        break;
      case RunStatus::kUnfinished: break;
    }
  }
  if (c.journal.enabled()) {
    if (report.interrupted)
      c.journal.interrupted(c.next_flush);
    else
      c.journal.done(report.ok, report.failed, report.quarantined);
  }
  return report;
}

int default_jobs(std::size_t work_items) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw == 0 ? 1 : hw;
  const std::size_t n = work_items < cap ? work_items : cap;
  return n == 0 ? 1 : static_cast<int>(n);
}

bool parse_decimal(std::string_view text, std::uint64_t min,
                   std::uint64_t max, std::uint64_t* out, std::string* error) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const bool digits =
      !text.empty() && text.find_first_not_of("0123456789") == text.npos;
  if (!digits || std::from_chars(text.data(), end, value).ec != std::errc() ||
      value < min || value > max) {
    if (error)
      *error = std::string(1, '\'').append(text) + "' is not an integer in [" +
               std::to_string(min) + ", " + std::to_string(max) + "]";
    return false;
  }
  *out = value;
  return true;
}

bool parse_seed_range(const std::string& text,
                      std::vector<std::uint64_t>* seeds, std::string* error) {
  constexpr std::uint64_t kAny = ~std::uint64_t{0};
  const std::string_view range = text;
  const auto colon = range.find(':');
  if (colon == range.npos) {
    if (error) *error = "expected A:B";
    return false;
  }
  std::uint64_t a = 0, b = 0;
  if (!parse_decimal(range.substr(0, colon), 0, kAny, &a, error) ||
      !parse_decimal(range.substr(colon + 1), 0, kAny, &b, error))
    return false;
  if (b <= a) {
    if (error) *error = "empty range (need B > A)";
    return false;
  }
  if (b - a > kMaxSeeds) {
    if (error) *error = "range wider than 10M seeds";
    return false;
  }
  for (std::uint64_t s = a; s < b; ++s) seeds->push_back(s);
  return true;
}

bool load_seed_file(const std::string& path,
                    std::vector<std::uint64_t>* seeds, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    const std::string tok = line.substr(first, last - first + 1);
    std::uint64_t s = 0;
    if (!parse_decimal(tok, 0, ~std::uint64_t{0}, &s, nullptr)) {
      if (error)
        *error = path + ":" + std::to_string(lineno) + ": not a seed: '" +
                 tok + "'";
      return false;
    }
    seeds->push_back(s);
  }
  return true;
}

}  // namespace recosim::farm
