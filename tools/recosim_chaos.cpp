// recosim-chaos: seed-driven chaos testing of the transactional
// reconfiguration path, executed on the fault-tolerant simulation farm
// (src/farm/).
//
// For every (architecture, seed) pair a random fault plan plus a random
// reconfiguration schedule is generated, run against the architecture
// with reliable end-to-end traffic, and checked for end-to-end
// invariants: no accepted payload silently lost, no duplicate delivery,
// no half-attached module, no transaction stuck past its timeout, no
// error-severity verifier diagnostics. On failure the schedule is shrunk
// to a minimal reproducing plan and printed together with the seed, so
// the exact run can be replayed bit-for-bit with --replay.
//
// Usage:
//   recosim-chaos [--arch NAME] [--seeds N] [--seed-base S]
//                 [--seed-range A:B] [--seed-file PATH] [--ops N]
//                 [--horizon CYCLES] [--lint-first] [--recovery]
//                 [--recovery-bound CYCLES] [--jobs N] [--retries N]
//                 [--run-deadline-ms MS] [--campaign JOURNAL] [--resume]
//                 [--quarantine-out PATH] [--no-fast-forward]
//                 [--no-busy-path] [--verbose]
//   recosim-chaos --replay FILE [--no-shrink] [--lint-first] [--recovery]
//                 [--recovery-bound CYCLES] [--no-fast-forward]
//                 [--no-busy-path] [--verbose]
//
// Every numeric value must be decimal digits that fit its flag; counts
// (--seeds, --ops, --jobs, --retries) and cycle budgets are positive.
//
// Farm semantics (see docs/farm.md):
//  * --jobs N evaluates seeds on N workers; output is collected in job
//    order, byte-identical to --jobs 1.
//  * A failing run is retried (--retries, default 2 total attempts) with
//    backoff; the retry must reproduce the failure bit-identically or the
//    seed is quarantined as nondeterministic. Hung runs past
//    --run-deadline-ms are cancelled and quarantined with a replayable
//    incident record. The campaign always completes.
//  * --campaign J appends an append-only JSONL journal to J; --resume
//    skips every run that already has a terminal record in J. SIGINT and
//    SIGTERM drain in-flight runs, checkpoint them to the journal, and
//    exit with status 4.
//  * --seed-range A:B (half-open) and --seed-file let campaigns be
//    sharded across machines and quarantine lists be replayed.
//
// Exit status: 0 all clean; 1 deterministic invariant failures;
// 2 usage/config error; 3 quarantined runs only; 4 interrupted.

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "farm/chaos_campaign.hpp"
#include "farm/farm.hpp"

using namespace recosim;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

void usage() {
  std::cerr
      << "usage: recosim-chaos [--arch rmboc|buscom|dynoc|conochi]\n"
      << "                     [--seeds N] [--seed-base S] [--seed-range A:B]\n"
      << "                     [--seed-file PATH] [--ops N]\n"
      << "                     [--horizon CYCLES] [--lint-first]\n"
      << "                     [--recovery] [--recovery-bound CYCLES]\n"
      << "                     [--jobs N] [--retries N] [--run-deadline-ms MS]\n"
      << "                     [--campaign JOURNAL] [--resume]\n"
      << "                     [--quarantine-out PATH]\n"
      << "                     [--no-fast-forward] [--no-busy-path]\n"
      << "                     [--verbose]\n"
      << "       recosim-chaos --replay FILE [--no-shrink] [--lint-first]\n"
      << "                     [--recovery] [--recovery-bound CYCLES]\n"
      << "                     [--no-fast-forward] [--no-busy-path]\n"
      << "                     [--verbose]\n";
}

}  // namespace

int main(int argc, char** argv) {
  farm::ChaosCampaignOptions opt;
  int seeds = 20;
  std::uint64_t seed_base = 1;
  std::string seed_range, seed_file, replay_file;
  farm::FarmConfig fc;
  fc.max_attempts = 2;
  std::string quarantine_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "recosim-chaos: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    // The whole value must be decimal digits in [min, max].
    auto number = [&](std::uint64_t min, std::uint64_t max) {
      std::uint64_t n = 0;
      std::string error;
      if (!farm::parse_decimal(value(), min, max, &n, &error)) {
        std::cerr << "recosim-chaos: " << arg << ": " << error << "\n";
        std::exit(2);
      }
      return n;
    };
    constexpr std::uint64_t kInt = std::numeric_limits<int>::max();
    constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
    // Cycles stay inside the lint's long long clock.
    constexpr std::uint64_t kCycles = std::numeric_limits<long long>::max();
    if (arg == "--arch") {
      auto a = fault::parse_chaos_arch(value());
      if (!a) {
        std::cerr << "recosim-chaos: unknown architecture\n";
        return 2;
      }
      opt.archs = {*a};
    } else if (arg == "--seeds") {
      seeds = static_cast<int>(number(1, farm::kMaxSeeds));
    } else if (arg == "--seed-base") {
      seed_base = number(0, kAny);
    } else if (arg == "--seed-range") {
      seed_range = value();
    } else if (arg == "--seed-file") {
      seed_file = value();
    } else if (arg == "--ops") {
      opt.ops = static_cast<int>(number(1, kInt));
    } else if (arg == "--horizon") {
      opt.horizon = number(1, kCycles);
    } else if (arg == "--replay") {
      replay_file = value();
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg == "--lint-first") {
      opt.lint_first = true;
    } else if (arg == "--recovery") {
      opt.recovery = true;
    } else if (arg == "--recovery-bound") {
      opt.recovery_bound = number(1, kCycles);
    } else if (arg == "--jobs") {
      fc.jobs = static_cast<int>(number(1, kInt));
    } else if (arg == "--retries") {
      fc.max_attempts = static_cast<int>(number(1, kInt));
    } else if (arg == "--run-deadline-ms") {
      fc.run_deadline = std::chrono::milliseconds(number(0, kInt));
    } else if (arg == "--campaign") {
      fc.journal_path = value();
    } else if (arg == "--resume") {
      fc.resume = true;
    } else if (arg == "--quarantine-out") {
      quarantine_out = value();
    } else if (arg == "--stall-seed") {
      // Undocumented test hook: inject a hung run the watchdog must kill.
      opt.stall_seed = number(0, kAny);
    } else if (arg == "--no-fast-forward") {
      opt.activity_driven = false;
    } else if (arg == "--no-busy-path") {
      opt.busy_path = false;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "recosim-chaos: unknown option " << arg << "\n";
      usage();
      return 2;
    }
  }
  if (opt.stall_seed && (!replay_file.empty() || fc.run_deadline.count() == 0)) {
    std::cerr << "recosim-chaos: --stall-seed needs a campaign with "
                 "--run-deadline-ms\n";
    return 2;
  }

  if (!replay_file.empty()) {
    // The schedule runs exactly as a campaign job of its seed would.
    std::ifstream in(replay_file);
    if (!in) {
      std::cerr << "recosim-chaos: cannot open " << replay_file << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    verify::DiagnosticSink diags;
    const auto schedule = fault::parse_schedule(text.str(), replay_file, diags);
    if (!schedule) {
      std::cerr << "recosim-chaos: cannot replay " << replay_file << ":\n"
                << diags.to_text();
      return 2;
    }
    farm::ChaosJobOutcome outcome;
    const farm::RunResult run =
        farm::chaos_run(opt, *schedule, &outcome, farm::RunContext{});
    std::cout << run.output;
    if (!run.ok) return 1;
    if (outcome.lint_skipped) {
      std::cout << "SKIP replay of " << replay_file
                << ": the timeline lint reports errors, so it did not run\n";
      return 0;
    }
    const fault::ChaosResult& r = outcome.result;
    std::cout << "OK replay of " << replay_file << ": " << r.delivered << "/"
              << r.accepted << " payloads delivered, " << r.txns_committed
              << " committed / " << r.txns_rolled_back << " rolled back\n";
    return 0;
  }

  // Seed list: explicit file beats range beats base+count.
  std::string error;
  if (!seed_file.empty()) {
    if (!farm::load_seed_file(seed_file, &opt.seeds, &error)) {
      std::cerr << "recosim-chaos: --seed-file: " << error << "\n";
      return 2;
    }
  } else if (!seed_range.empty()) {
    if (!farm::parse_seed_range(seed_range, &opt.seeds, &error)) {
      std::cerr << "recosim-chaos: --seed-range: " << error << "\n";
      return 2;
    }
  } else {
    for (int i = 0; i < seeds; ++i)
      opt.seeds.push_back(seed_base + static_cast<std::uint64_t>(i));
  }
  if (opt.seeds.empty()) {
    std::cerr << "recosim-chaos: empty seed set\n";
    return 2;
  }
  if (fc.resume && fc.journal_path.empty()) {
    std::cerr << "recosim-chaos: --resume needs --campaign <journal>\n";
    return 2;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::vector<farm::ChaosJobOutcome> outcomes;
  const auto jobs = farm::make_chaos_jobs(opt, &outcomes);
  fc.campaign_config = farm::chaos_campaign_config(opt);
  fc.out = &std::cout;
  fc.stop_requested = [] { return g_stop != 0; };

  farm::CampaignReport report;
  try {
    farm::SimFarm f(fc);
    report = f.run(jobs);
  } catch (const std::exception& e) {
    std::cerr << "recosim-chaos: " << e.what() << "\n";
    return 2;
  }

  print_chaos_summary(std::cout, opt, report, outcomes);
  if (!fc.journal_path.empty()) {
    std::cout << "campaign: " << report.ok << " ok, " << report.failed
              << " failed, " << report.quarantined << " quarantined, "
              << report.resumed << " resumed (journal " << fc.journal_path
              << ")\n";
    // Per-arch rollup over the whole journal, so a resumed campaign
    // reports history from earlier interrupted invocations too.
    const farm::JournalContents journal = farm::read_journal(fc.journal_path);
    if (journal.valid)
      farm::print_journal_arch_summary(std::cout,
                                       farm::journal_arch_summary(journal));
  }
  if (report.abandoned_workers > 0)
    std::cerr << "recosim-chaos: " << report.abandoned_workers
              << " worker(s) abandoned on hung runs\n";
  if (!quarantine_out.empty() &&
      !farm::write_quarantine_file(quarantine_out, report, &error)) {
    std::cerr << "recosim-chaos: --quarantine-out: " << error << "\n";
    return 2;
  }
  if (report.interrupted)
    std::cerr << "recosim-chaos: campaign interrupted after "
              << (report.ok + report.failed + report.quarantined)
              << " runs; resume with --campaign " << fc.journal_path
              << " --resume\n";
  return report.exit_status();
}
