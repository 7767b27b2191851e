#pragma once

// SimFarm: a fault-tolerant worker pool for independent simulation runs.
//
// The farm executes a vector of self-contained jobs — typically one
// (seed, arch, scenario) simulation each — on N worker threads, collecting
// results *in job order* so a parallel campaign's output is byte-identical
// to a serial one. Around every run it wraps the robustness machinery the
// plain PR-6 worker pool lacked:
//
//  * Watchdog: a per-run wall-clock deadline. A run past its deadline is
//    cancelled (cooperatively, via a token the run function polls); a run
//    that ignores the token past a grace period is abandoned — its worker
//    thread is detached, a replacement worker is spawned, and the campaign
//    completes without it. Either way the run is quarantined with a
//    structured incident record carrying the replayable schedule.
//  * Exception isolation: a throwing run becomes an incident record
//    (routed through the same ordered output buffer as everything else),
//    never a dead worker or interleaved stderr.
//  * Bounded retry with backoff: a failing run is retried; the retry must
//    replay bit-identically (same result digest) — then it is a confirmed
//    deterministic failure — or the run is quarantined as
//    *nondeterministic*, which is itself a finding.
//  * Quarantine: runs that cannot produce a trustworthy result (hung,
//    repeatedly throwing, nondeterministic) are set aside on a quarantine
//    list and the campaign keeps going; the exit status reflects them.
//  * Campaign journal: an append-only JSONL journal (farm/journal.hpp)
//    written in job order enables `--resume` of interrupted campaigns and
//    sharding across machines.
//  * Graceful drain: when `stop_requested` reports true (the tool's
//    SIGINT/SIGTERM flag), the farm stops dispatching, lets in-flight runs
//    finish, journals them, appends an `interrupted` checkpoint record and
//    returns with `interrupted` set.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "farm/journal.hpp"

namespace recosim::farm {

/// Identity of one run; its content hash keys the campaign journal.
struct RunKey {
  std::string arch;      ///< e.g. "rmboc"
  std::uint64_t seed = 0;
  std::string scenario;  ///< canonical run parameters, e.g. "chaos ops=8 ..."

  std::string canonical() const {
    return arch + "|" + std::to_string(seed) + "|" + scenario;
  }
  std::string hash() const { return content_hash(canonical()); }
};

/// What a run function hands back to the farm.
struct RunResult {
  bool ok = true;       ///< invariants held
  std::string output;   ///< printed (in job order) for the final attempt
  std::string digest;   ///< determinism fingerprint of the full result
};

/// Per-attempt context passed to the run function.
struct RunContext {
  const RunKey* key = nullptr;
  int attempt = 1;            ///< 1-based
  bool final_attempt = true;  ///< expensive failure reporting can wait for this
  const std::atomic<bool>* cancel = nullptr;  ///< set by the watchdog

  bool cancelled() const {
    return cancel && cancel->load(std::memory_order_relaxed);
  }
};

using RunFn = std::function<RunResult(const RunContext&)>;

/// One unit of work. `artifact` is the replayable schedule text, known
/// up front so incident records can carry it even when the run never
/// returns (deadline kill).
struct Job {
  RunKey key;
  std::string artifact;
  RunFn fn;
};

enum class RunStatus {
  kOk,           ///< an attempt completed with ok=true
  kFailed,       ///< deterministic failure (confirmed by bit-identical retry)
  kQuarantined,  ///< no trustworthy result: hung, threw, or nondeterministic
  kUnfinished,   ///< never dispatched (campaign interrupted before it)
};
const char* to_string(RunStatus s);

/// A structured incident: why an attempt did not produce a clean result.
struct Incident {
  enum class Kind { kException, kDeadline, kNondeterministic, kRepeatedFailure };
  Kind kind = Kind::kException;
  int attempt = 1;
  std::string detail;
};
const char* to_string(Incident::Kind k);

/// Terminal state of one job.
struct RunRecord {
  RunKey key;
  RunStatus status = RunStatus::kUnfinished;
  std::string reason;   ///< "", "deterministic-failure", "nondeterministic",
                        ///< "deadline", "exception"
  std::string digest;   ///< digest of the last completed attempt
  std::string output;   ///< ordered output of the final attempt
  int attempts = 0;
  bool resumed = false; ///< satisfied from the journal, not re-run
  std::vector<Incident> incidents;
};

struct FarmConfig {
  int jobs = 1;                 ///< worker threads
  int max_attempts = 2;         ///< total attempts before giving up
  std::chrono::milliseconds retry_backoff{25};  ///< doubles per extra attempt
  std::chrono::milliseconds run_deadline{0};    ///< 0 = watchdog disabled
  /// After a cancelled run ignores its token this long, abandon its worker.
  std::chrono::milliseconds hang_grace{2'000};
  std::string journal_path;     ///< "" = no journal
  bool resume = false;          ///< skip runs already terminal in the journal
  /// Canonical campaign configuration; its hash must match the journal's
  /// on resume (guards against resuming a journal from different params).
  std::string campaign_config;
  std::ostream* out = nullptr;  ///< ordered output sink (usually &std::cout)
  /// Polled between dispatches; true triggers the graceful drain.
  std::function<bool()> stop_requested;
};

struct CampaignReport {
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t quarantined = 0;
  std::size_t resumed = 0;       ///< subset of ok/failed/quarantined
  std::size_t incidents = 0;
  std::size_t abandoned_workers = 0;
  bool interrupted = false;
  std::vector<RunRecord> records;  ///< in job order
  /// Keys of every kFailed or kQuarantined run — the quarantine list.
  std::vector<RunKey> quarantine;

  /// 0 clean; 1 deterministic failures; 3 quarantines only; 4 interrupted.
  int exit_status() const;
};

class SimFarm {
 public:
  explicit SimFarm(FarmConfig config);

  /// Run every job; blocks until the campaign completes, is drained, or
  /// every remaining job is abandoned. Throws std::runtime_error when the
  /// journal cannot be opened or a resume journal does not match
  /// `campaign_config`.
  CampaignReport run(const std::vector<Job>& jobs);

 private:
  FarmConfig cfg_;
};

/// min(work_items, hardware_concurrency), at least 1 — the default worker
/// count for benches farming a fixed sweep.
int default_jobs(std::size_t work_items);

/// The checked conversion behind every numeric command-line value and
/// seed: the whole of `text` must be decimal digits and the value must lie
/// in [min, max] (count flags pass min = 1). Returns false, with `error`
/// saying why, otherwise.
bool parse_decimal(std::string_view text, std::uint64_t min,
                   std::uint64_t max, std::uint64_t* out, std::string* error);

/// The most seeds a --seeds count or --seed-range may expand to.
inline constexpr std::uint64_t kMaxSeeds = 10'000'000;

/// Parse "A:B" (half-open, B > A) into the seed list A..B-1.
/// Returns false on malformed input.
bool parse_seed_range(const std::string& text,
                      std::vector<std::uint64_t>* seeds, std::string* error);

/// Load one seed per line (decimal; '#' comments and blank lines ignored)
/// — the format quarantine lists are exported in. Returns false when the
/// file cannot be read or a line is not a seed.
bool load_seed_file(const std::string& path,
                    std::vector<std::uint64_t>* seeds, std::string* error);

}  // namespace recosim::farm
