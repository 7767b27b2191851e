#pragma once

// Chaos campaigns on the simulation farm: turns (arch, seed) chaos
// schedules into farm jobs with result digests, replayable artifacts and
// the --lint-first / --recovery per-run logic that used to live inside
// tools/recosim_chaos.cpp. Shared by the tool, the farm tests and
// bench_farm so they all run the exact same per-seed evaluation.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "farm/farm.hpp"
#include "fault/chaos.hpp"

namespace recosim::farm {

struct ChaosCampaignOptions {
  std::vector<fault::ChaosArch> archs{std::begin(fault::kAllChaosArchs),
                                      std::end(fault::kAllChaosArchs)};
  std::vector<std::uint64_t> seeds;
  int ops = 8;
  sim::Cycle horizon = 30'000;
  bool activity_driven = true;
  /// Busy path (router gating and burst transfers; arena pooling is always
  /// on — docs/performance.md). Deliberately excluded from
  /// chaos_scenario(): results are bit-identical either way, so journal
  /// records stay byte-compatible between campaigns with it on and off.
  bool busy_path = true;
  bool lint_first = false;
  bool recovery = false;
  sim::Cycle recovery_bound = 50'000;
  bool verbose = false;
  bool shrink = true;
  /// Test hook: a run of this seed (any architecture) spins, polling its
  /// cancel token, instead of simulating — an injected hang the watchdog
  /// must deadline-kill. Requires a run deadline to terminate.
  std::optional<std::uint64_t> stall_seed;
};

/// Canonical fingerprint of a full chaos run result: every counter, the
/// violation list, the recovery incident log. Two runs of the same
/// schedule must produce equal digests — the farm's retry-determinism and
/// serial-vs-parallel checks compare exactly this.
std::string chaos_result_digest(const fault::ChaosResult& r);

/// Canonical run-parameter string (RunKey::scenario); excludes output-only
/// options (verbose, shrink) so they never invalidate a resume.
std::string chaos_scenario(const ChaosCampaignOptions& opt);

/// Campaign configuration for the journal header: scenario + architecture
/// set. Seed membership is intentionally excluded so a resumed or sharded
/// invocation may cover a different seed range against the same journal.
std::string chaos_campaign_config(const ChaosCampaignOptions& opt);

/// Side-band per-job results, indexed like the job vector (arch-major:
/// all seeds of archs[0], then archs[1], ...). Runs fill their slot; a
/// resumed job leaves fresh=false.
struct ChaosJobOutcome {
  bool fresh = false;
  bool lint_skipped = false;
  fault::ChaosResult result;
};

/// One schedule's evaluation, shared by the campaign's jobs and
/// recosim-chaos --replay: the --lint-first skip, the run, the envelope
/// checks, and on failure the report with its lint-hinted shrink. Fills
/// `slot` with the raw ChaosResult; failure reporting waits for the final
/// attempt, since earlier attempts' output is discarded.
RunResult chaos_run(const ChaosCampaignOptions& opt,
                    const fault::ChaosSchedule& schedule,
                    ChaosJobOutcome* slot, const RunContext& ctx);

/// Build one farm job per (arch, seed), artifact = the serialized
/// schedule. `outcomes` must outlive the jobs and not be resized after
/// this call (the run functions hold pointers into it).
std::vector<Job> make_chaos_jobs(const ChaosCampaignOptions& opt,
                                 std::vector<ChaosJobOutcome>* outcomes);

/// Historical per-arch summary lines ("rmboc: 20/20 schedules ok, ...")
/// from the campaign report plus the side-band outcomes.
void print_chaos_summary(std::ostream& out, const ChaosCampaignOptions& opt,
                         const CampaignReport& report,
                         const std::vector<ChaosJobOutcome>& outcomes);

/// Write the report's quarantine list as a seed file (one seed per line,
/// arch/reason in a trailing comment) replayable via --seed-file.
bool write_quarantine_file(const std::string& path,
                           const CampaignReport& report, std::string* error);

/// Per-architecture rollup of a campaign journal. Unlike the in-memory
/// CampaignReport this covers *every* terminal record in the journal —
/// including runs completed by earlier interrupted invocations — so a
/// resumed campaign reports the whole history, not just its own slice.
struct ArchJournalSummary {
  std::string arch;
  std::size_t ok = 0;
  /// status "failed": a failure confirmed bit-identical on retry.
  std::size_t deterministic_failures = 0;
  /// status "quarantined": hung, threw, or nondeterministic — no
  /// trustworthy result.
  std::size_t quarantined = 0;
};

/// Aggregate the journal's run records by architecture, rows sorted by
/// architecture name.
std::vector<ArchJournalSummary> journal_arch_summary(
    const JournalContents& journal);

/// One "arch: N ok, N deterministic failures, N quarantined" line per row.
void print_journal_arch_summary(std::ostream& out,
                                const std::vector<ArchJournalSummary>& rows);

}  // namespace recosim::farm
