// Simulation-farm tests: ordered result collection byte-identical to
// serial execution, exception isolation, bounded retry with determinism
// checks, watchdog deadline kills with quarantine, journal write/resume,
// seed-range/seed-file parsing, and per-run RNG stream isolation across
// all four architectures (serial == parallel == retry, bit for bit).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "farm/chaos_campaign.hpp"
#include "farm/farm.hpp"
#include "farm/journal.hpp"
#include "json/json.hpp"

namespace recosim::farm {
namespace {

Job simple_job(const std::string& arch, std::uint64_t seed, RunFn fn) {
  Job j;
  j.key = {arch, seed, "test"};
  j.artifact = "schedule-for-" + std::to_string(seed) + "\n";
  j.fn = std::move(fn);
  return j;
}

/// N jobs whose outputs are deterministic but whose completion order is
/// scrambled by per-job sleeps.
std::vector<Job> staggered_jobs(int n) {
  std::vector<Job> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(simple_job("fake", static_cast<std::uint64_t>(i),
                              [i, n](const RunContext&) {
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds((n - i) % 7));
                                RunResult r;
                                r.output =
                                    "job " + std::to_string(i) + " done\n";
                                r.digest = "d" + std::to_string(i);
                                return r;
                              }));
  }
  return jobs;
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "farm_" + name + "_" +
         std::to_string(::getpid());
}

TEST(Farm, OrderedOutputByteIdenticalSerialVsParallel) {
  const auto jobs = staggered_jobs(12);
  std::ostringstream serial, parallel;
  FarmConfig cs;
  cs.jobs = 1;
  cs.out = &serial;
  const auto rs = SimFarm(cs).run(jobs);
  FarmConfig cp;
  cp.jobs = 4;
  cp.out = &parallel;
  const auto rp = SimFarm(cp).run(jobs);
  EXPECT_EQ(serial.str(), parallel.str());
  EXPECT_EQ(rs.ok, 12u);
  EXPECT_EQ(rp.ok, 12u);
  EXPECT_EQ(rp.exit_status(), 0);
  for (int i = 0; i < 12; ++i) {
    std::string want = "d";
    want += std::to_string(i);
    EXPECT_EQ(rp.records[static_cast<std::size_t>(i)].digest, want);
  }
}

TEST(Farm, ThrowingRunBecomesIncidentNotDeadWorker) {
  // Satellite fix: a worker that throws must route its diagnostics
  // through the same ordered buffer as everything else — and the pool
  // must keep working.
  std::vector<Job> jobs = staggered_jobs(6);
  jobs[2].fn = [](const RunContext&) -> RunResult {
    throw std::runtime_error("simulated crash");
  };
  std::ostringstream out;
  FarmConfig cfg;
  cfg.jobs = 3;
  cfg.max_attempts = 2;
  cfg.out = &out;
  const auto report = SimFarm(cfg).run(jobs);
  EXPECT_EQ(report.ok, 5u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.records[2].status, RunStatus::kQuarantined);
  EXPECT_EQ(report.records[2].reason, "exception");
  ASSERT_EQ(report.records[2].incidents.size(), 2u);  // both attempts threw
  EXPECT_EQ(report.records[2].incidents[0].detail, "simulated crash");
  // The incident text sits exactly between job 1 and job 3 output.
  const std::string text = out.str();
  const auto j1 = text.find("job 1 done");
  const auto inc = text.find("INCIDENT exception arch=fake seed=2");
  const auto j3 = text.find("job 3 done");
  ASSERT_NE(j1, std::string::npos);
  ASSERT_NE(inc, std::string::npos);
  ASSERT_NE(j3, std::string::npos);
  EXPECT_LT(j1, inc);
  EXPECT_LT(inc, j3);
  EXPECT_NE(text.find("QUARANTINE arch=fake seed=2 reason=exception"),
            std::string::npos);
  EXPECT_EQ(report.exit_status(), 3);
}

TEST(Farm, RetryConfirmsDeterministicFailure) {
  std::atomic<int> calls{0};
  std::vector<Job> jobs;
  jobs.push_back(simple_job("fake", 7, [&calls](const RunContext&) {
    ++calls;
    RunResult r;
    r.ok = false;
    r.output = "FAIL seed=7\n";
    r.digest = "same-every-time";
    return r;
  }));
  FarmConfig cfg;
  cfg.max_attempts = 2;
  cfg.retry_backoff = std::chrono::milliseconds(1);
  const auto report = SimFarm(cfg).run(jobs);
  EXPECT_EQ(calls.load(), 2);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.records[0].status, RunStatus::kFailed);
  EXPECT_EQ(report.records[0].reason, "deterministic-failure");
  EXPECT_EQ(report.records[0].attempts, 2);
  ASSERT_EQ(report.quarantine.size(), 1u);
  EXPECT_EQ(report.quarantine[0].seed, 7u);
  EXPECT_EQ(report.exit_status(), 1);
}

TEST(Farm, NondeterministicRetryIsQuarantinedAsAFinding) {
  std::atomic<int> calls{0};
  std::vector<Job> jobs;
  jobs.push_back(simple_job("fake", 9, [&calls](const RunContext&) {
    const int n = ++calls;
    RunResult r;
    r.ok = n > 1;  // flaky: fails once, then "passes"
    r.digest = "digest-" + std::to_string(n);
    return r;
  }));
  FarmConfig cfg;
  cfg.max_attempts = 2;
  cfg.retry_backoff = std::chrono::milliseconds(1);
  const auto report = SimFarm(cfg).run(jobs);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.records[0].status, RunStatus::kQuarantined);
  EXPECT_EQ(report.records[0].reason, "nondeterministic");
  ASSERT_FALSE(report.records[0].incidents.empty());
  EXPECT_EQ(report.records[0].incidents[0].kind,
            Incident::Kind::kNondeterministic);
  EXPECT_EQ(report.exit_status(), 3);
}

TEST(Farm, WatchdogDeadlineKillsStalledRunAndCampaignCompletes) {
  // The injected hang polls its cancel token (the cooperative path every
  // real simulation uses via ChaosRunOptions::cancel).
  std::vector<Job> jobs = staggered_jobs(5);
  jobs[1].fn = [](const RunContext& ctx) {
    while (!ctx.cancelled())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    RunResult r;
    r.digest = "stalled";
    return r;
  };
  std::ostringstream out;
  FarmConfig cfg;
  cfg.jobs = 2;
  cfg.run_deadline = std::chrono::milliseconds(100);
  cfg.out = &out;
  const auto report = SimFarm(cfg).run(jobs);
  EXPECT_EQ(report.ok, 4u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.records[1].status, RunStatus::kQuarantined);
  EXPECT_EQ(report.records[1].reason, "deadline");
  ASSERT_EQ(report.records[1].incidents.size(), 1u);
  EXPECT_EQ(report.records[1].incidents[0].kind, Incident::Kind::kDeadline);
  // The quarantine block carries the replayable schedule.
  EXPECT_NE(out.str().find("schedule-for-1"), std::string::npos);
  EXPECT_EQ(report.exit_status(), 3);
}

TEST(Farm, JournalResumeYieldsRunRecordsIdenticalToUninterrupted) {
  const std::string full = tmp_path("full.jsonl");
  const std::string part = tmp_path("part.jsonl");
  std::remove(full.c_str());
  std::remove(part.c_str());

  const auto jobs = staggered_jobs(10);
  FarmConfig base;
  base.jobs = 2;
  base.campaign_config = "test-campaign";

  FarmConfig cf = base;
  cf.journal_path = full;
  const auto rf = SimFarm(cf).run(jobs);
  EXPECT_EQ(rf.ok, 10u);

  // Interrupted campaign: drain after ~4 completions.
  std::atomic<int> completed{0};
  auto counting = jobs;
  for (auto& j : counting) {
    auto inner = j.fn;
    j.fn = [inner, &completed](const RunContext& ctx) {
      auto r = inner(ctx);
      ++completed;
      return r;
    };
  }
  FarmConfig ci = base;
  ci.journal_path = part;
  ci.stop_requested = [&completed] { return completed.load() >= 4; };
  const auto ri = SimFarm(ci).run(counting);
  EXPECT_TRUE(ri.interrupted);
  EXPECT_EQ(ri.exit_status(), 4);
  EXPECT_LT(ri.ok, 10u);

  // Resume and compare terminal run records with the uninterrupted run.
  FarmConfig cr = base;
  cr.journal_path = part;
  cr.resume = true;
  const auto rr = SimFarm(cr).run(jobs);
  EXPECT_FALSE(rr.interrupted);
  EXPECT_EQ(rr.ok, 10u);
  EXPECT_GT(rr.resumed, 0u);

  const auto jf = read_journal(full);
  const auto jp = read_journal(part);
  ASSERT_TRUE(jf.valid);
  ASSERT_TRUE(jp.valid);
  EXPECT_EQ(jp.interruptions, 1u);
  ASSERT_EQ(jf.runs.size(), jp.runs.size());
  for (const auto& [key, run] : jf.runs) {
    const auto it = jp.runs.find(key);
    ASSERT_NE(it, jp.runs.end()) << "missing run " << key;
    EXPECT_EQ(run.status, it->second.status);
    EXPECT_EQ(run.digest, it->second.digest);
    EXPECT_EQ(run.attempts, it->second.attempts);
    EXPECT_EQ(run.arch, it->second.arch);
    EXPECT_EQ(run.seed, it->second.seed);
  }
  std::remove(full.c_str());
  std::remove(part.c_str());
}

TEST(Farm, ResumeRejectsMismatchedCampaignConfig) {
  const std::string path = tmp_path("mismatch.jsonl");
  std::remove(path.c_str());
  const auto jobs = staggered_jobs(2);
  FarmConfig a;
  a.journal_path = path;
  a.campaign_config = "config-A";
  SimFarm(a).run(jobs);
  FarmConfig b = a;
  b.resume = true;
  b.campaign_config = "config-B";
  EXPECT_THROW(SimFarm(b).run(jobs), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Farm, SeedRangeAndSeedFileParsing) {
  std::vector<std::uint64_t> seeds;
  std::string error;
  EXPECT_TRUE(parse_seed_range("5:9", &seeds, &error));
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{5, 6, 7, 8}));
  seeds.clear();
  EXPECT_FALSE(parse_seed_range("9:5", &seeds, &error));
  EXPECT_FALSE(parse_seed_range("abc", &seeds, &error));
  EXPECT_FALSE(parse_seed_range("1:", &seeds, &error));

  const std::string path = tmp_path("seeds.txt");
  {
    std::ofstream out(path);
    out << "# quarantine list\n3  # arch=rmboc\n\n17\n42 # flaky\n";
  }
  seeds.clear();
  EXPECT_TRUE(load_seed_file(path, &seeds, &error)) << error;
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{3, 17, 42}));
  {
    std::ofstream out(path);
    out << "not-a-seed\n";
  }
  seeds.clear();
  EXPECT_FALSE(load_seed_file(path, &seeds, &error));
  std::remove(path.c_str());
}

TEST(Farm, QuarantineFileReplaysThroughSeedFile) {
  std::vector<Job> jobs = staggered_jobs(4);
  jobs[1].fn = [](const RunContext&) -> RunResult {
    throw std::runtime_error("boom");
  };
  jobs[3].fn = [](const RunContext&) {
    RunResult r;
    r.ok = false;
    r.digest = "stable";
    return r;
  };
  FarmConfig cfg;
  cfg.max_attempts = 2;
  cfg.retry_backoff = std::chrono::milliseconds(1);
  const auto report = SimFarm(cfg).run(jobs);
  const std::string path = tmp_path("quarantine.txt");
  std::string error;
  ASSERT_TRUE(write_quarantine_file(path, report, &error)) << error;
  std::vector<std::uint64_t> seeds;
  ASSERT_TRUE(load_seed_file(path, &seeds, &error)) << error;
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{1, 3}));
  std::remove(path.c_str());
}

TEST(Journal, JsonEscapeAndFieldExtractionRoundTrip) {
  const std::string nasty = "line1\nline2\t\"quoted\\\" \x01 end";
  const std::string line = "{\"type\":\"incident\",\"detail\":\"" +
                           json_escape(nasty) + "\",\"attempt\":3}";
  const auto record = json::parse(line);
  ASSERT_TRUE(record.has_value());
  const auto detail = record->get_string("detail");
  ASSERT_TRUE(detail.has_value());
  EXPECT_EQ(*detail, nasty);
  const auto attempt = record->get_u64("attempt");
  ASSERT_TRUE(attempt.has_value());
  EXPECT_EQ(*attempt, 3u);
  EXPECT_FALSE(record->get_string("missing").has_value());
  // A value that *contains* a key-like substring must not be picked up.
  const std::string trap =
      "{\"detail\":\"\\\"attempt\\\":99\",\"attempt\":3}";
  const auto trapped = json::parse(trap);
  ASSERT_TRUE(trapped.has_value());
  EXPECT_EQ(trapped->get_u64("attempt").value_or(0), 3u);
}

// ---------------------------------------------------------------------
// RNG stream isolation (satellite): a seed's chaos run result must be
// bit-identical whether run serially, under --jobs N, or after a retry,
// across all four architectures.

ChaosCampaignOptions small_campaign() {
  ChaosCampaignOptions opt;
  opt.seeds = {1, 2};
  opt.ops = 5;
  opt.horizon = 12'000;
  return opt;  // all four architectures by default
}

TEST(ChaosFarm, ResultsBitIdenticalSerialVsParallelAcrossArchitectures) {
  const ChaosCampaignOptions opt = small_campaign();
  std::vector<ChaosJobOutcome> o1, o4;
  const auto jobs1 = make_chaos_jobs(opt, &o1);
  const auto jobs4 = make_chaos_jobs(opt, &o4);
  ASSERT_EQ(jobs1.size(), 8u);  // 4 archs x 2 seeds

  std::ostringstream out1, out4;
  FarmConfig c1;
  c1.jobs = 1;
  c1.out = &out1;
  FarmConfig c4;
  c4.jobs = 4;
  c4.out = &out4;
  const auto r1 = SimFarm(c1).run(jobs1);
  const auto r4 = SimFarm(c4).run(jobs4);
  EXPECT_EQ(out1.str(), out4.str());
  ASSERT_EQ(r1.records.size(), r4.records.size());
  for (std::size_t i = 0; i < r1.records.size(); ++i) {
    EXPECT_EQ(r1.records[i].status, r4.records[i].status)
        << r1.records[i].key.canonical();
    EXPECT_EQ(r1.records[i].digest, r4.records[i].digest)
        << r1.records[i].key.canonical();
  }
  // The digests cover tables, the recovery incident log and the
  // delivered-packet accounting; equal digests mean bit-identical runs.
  for (std::size_t i = 0; i < o1.size(); ++i) {
    ASSERT_TRUE(o1[i].fresh);
    ASSERT_TRUE(o4[i].fresh);
    EXPECT_EQ(chaos_result_digest(o1[i].result),
              chaos_result_digest(o4[i].result));
    EXPECT_EQ(o1[i].result.delivered, o4[i].result.delivered);
    EXPECT_EQ(o1[i].result.end_cycle, o4[i].result.end_cycle);
  }
}

TEST(ChaosFarm, RetriedRunReplaysBitIdenticallyAcrossArchitectures) {
  // Force the farm down its retry path for real simulations: a wrapper
  // reports every completed chaos run as failed, so attempt 2 must
  // reproduce attempt 1's digest exactly — the farm then classifies the
  // "failure" as deterministic rather than quarantining the seed.
  for (fault::ChaosArch arch : fault::kAllChaosArchs) {
    const auto schedule = fault::make_schedule(arch, 11, 5, 10'000);
    std::vector<Job> jobs;
    Job j;
    j.key = {fault::to_string(arch), 11, "retry-test"};
    j.artifact = fault::serialize_schedule(schedule);
    j.fn = [schedule](const RunContext&) {
      fault::ChaosRunOptions ro;
      const auto result = fault::run_schedule(schedule, ro);
      RunResult r;
      r.ok = false;  // force the retry regardless of the real outcome
      r.digest = chaos_result_digest(result);
      return r;
    };
    jobs.push_back(std::move(j));
    FarmConfig cfg;
    cfg.max_attempts = 2;
    cfg.retry_backoff = std::chrono::milliseconds(1);
    const auto report = SimFarm(cfg).run(jobs);
    EXPECT_EQ(report.records[0].status, RunStatus::kFailed)
        << fault::to_string(arch);
    EXPECT_EQ(report.records[0].reason, "deterministic-failure")
        << fault::to_string(arch) << ": retry digest diverged — per-run RNG "
        << "streams are not isolated";
    EXPECT_EQ(report.records[0].attempts, 2);
  }
}

TEST(ChaosFarm, CampaignJournalRoundTripsChaosDigests) {
  ChaosCampaignOptions opt;
  opt.archs = {fault::ChaosArch::kRmboc};
  opt.seeds = {1, 2, 3};
  opt.ops = 5;
  opt.horizon = 10'000;
  const std::string path = tmp_path("chaos.jsonl");
  std::remove(path.c_str());

  std::vector<ChaosJobOutcome> outcomes;
  const auto jobs = make_chaos_jobs(opt, &outcomes);
  FarmConfig cfg;
  cfg.jobs = 2;
  cfg.journal_path = path;
  cfg.campaign_config = chaos_campaign_config(opt);
  const auto fresh = SimFarm(cfg).run(jobs);
  EXPECT_EQ(fresh.ok, 3u);

  // Full resume: every run satisfied from the journal, digests intact.
  std::vector<ChaosJobOutcome> outcomes2;
  const auto jobs2 = make_chaos_jobs(opt, &outcomes2);
  cfg.resume = true;
  const auto resumed = SimFarm(cfg).run(jobs2);
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(resumed.ok, 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_TRUE(resumed.records[i].resumed);
    EXPECT_EQ(resumed.records[i].digest, fresh.records[i].digest);
    EXPECT_FALSE(outcomes2[i].fresh);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Torn journal tails: a crash mid-append (power loss, a kill during the
// write) cuts the final record short. Only that run runs again.

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// The journal's run records, sorted (the CI resume diff).
std::vector<std::string> run_records(const std::string& journal) {
  std::vector<std::string> runs;
  std::istringstream in(journal);
  for (std::string line; std::getline(in, line);)
    if (line.rfind("{\"type\":\"run\"", 0) == 0) runs.push_back(line);
  std::sort(runs.begin(), runs.end());
  return runs;
}

ChaosCampaignOptions torn_tail_campaign() {
  ChaosCampaignOptions opt;
  opt.archs = {fault::ChaosArch::kRmboc};
  opt.seeds = {1, 2, 3};
  opt.ops = 2;
  opt.horizon = 3'000;
  return opt;
}

/// A finished journal of torn_tail_campaign() at `path`.
std::string write_reference_journal(const std::string& path) {
  const ChaosCampaignOptions opt = torn_tail_campaign();
  std::vector<ChaosJobOutcome> outcomes;
  FarmConfig cfg;
  cfg.journal_path = path;
  cfg.campaign_config = chaos_campaign_config(opt);
  std::remove(path.c_str());
  SimFarm(cfg).run(make_chaos_jobs(opt, &outcomes));
  return read_text(path);
}

TEST(Journal, ResumeAfterACutAtEveryByteOfTheLastRunRecord) {
  const std::string full = tmp_path("torn_full.jsonl");
  const std::string cut = tmp_path("torn_cut.jsonl");
  const std::string text = write_reference_journal(full);
  const std::vector<std::string> expected = run_records(text);
  ASSERT_EQ(expected.size(), 3u);

  const ChaosCampaignOptions opt = torn_tail_campaign();
  FarmConfig cfg;
  cfg.journal_path = cut;
  cfg.resume = true;
  cfg.campaign_config = chaos_campaign_config(opt);
  const std::size_t begin = text.rfind("{\"type\":\"run\"");
  const std::size_t newline = text.find('\n', begin);
  for (std::size_t n = begin; n <= newline + 1; ++n) {
    write_text(cut, text.substr(0, n));
    std::vector<ChaosJobOutcome> outcomes;
    const CampaignReport report =
        SimFarm(cfg).run(make_chaos_jobs(opt, &outcomes));
    // A record counts once its newline is written.
    EXPECT_EQ(report.resumed, n > newline ? 3u : 2u) << "cut at " << n;
    const std::string resumed = read_text(cut);
    EXPECT_EQ(run_records(resumed), expected) << "cut at " << n;
    const JournalContents jc = read_journal(cut);
    EXPECT_TRUE(jc.valid && jc.error.empty()) << jc.error;
    EXPECT_EQ(resumed.back(), '\n');
  }
  std::remove(full.c_str());
  std::remove(cut.c_str());
}

TEST(Journal, DamageBeforeTheLastLineFailsWithLineAndColumn) {
  const std::string path = tmp_path("damaged.jsonl");
  const std::string text = write_reference_journal(path);
  // Line 2 is the first run record; damage it while keeping its newline.
  const std::size_t begin = text.find('\n') + 1;
  const std::size_t end = text.find('\n', begin);
  std::vector<std::string> damaged;
  for (std::size_t n = begin + 1; n < end; ++n)
    damaged.push_back(text.substr(0, n) + text.substr(end));
  for (std::size_t i = begin; i < end; ++i) {
    std::string flipped = text;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
    damaged.push_back(std::move(flipped));
  }
  std::size_t failures = 0;
  for (const std::string& journal : damaged) {
    write_text(path, journal);
    const JournalContents jc = read_journal(path);
    if (jc.error.empty()) continue;  // a flip inside a value stays valid
    ++failures;
    int line = 0, column = 0;
    EXPECT_EQ(std::sscanf(jc.error.c_str(), "line %d:%d:", &line, &column), 2)
        << jc.error;
    EXPECT_EQ(line, 2) << jc.error;
    EXPECT_GE(column, 1) << jc.error;
  }
  EXPECT_GE(failures, end - begin - 1);  // every truncation fails

  // Resuming such a journal is a configuration error, not a re-run.
  write_text(path, damaged.front());
  FarmConfig cfg;
  cfg.journal_path = path;
  cfg.resume = true;
  cfg.campaign_config = chaos_campaign_config(torn_tail_campaign());
  std::vector<ChaosJobOutcome> outcomes;
  EXPECT_THROW(
      SimFarm(cfg).run(make_chaos_jobs(torn_tail_campaign(), &outcomes)),
      std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Journal per-arch rollup (satellite): ok / deterministic-failure /
// quarantine counts aggregated from the journal's run records.

TEST(Journal, ArchSummaryAggregatesRunRecordsSortedByArch) {
  JournalContents journal;
  journal.valid = true;
  const auto put = [&](const std::string& key, const std::string& arch,
                       const std::string& status) {
    JournalRun run;
    run.key = key;
    run.arch = arch;
    run.status = status;
    journal.runs.emplace(key, std::move(run));
  };
  put("k1", "rmboc", "ok");
  put("k2", "rmboc", "ok");
  put("k3", "rmboc", "failed");
  put("k4", "conochi", "quarantined");
  put("k5", "conochi", "ok");
  put("k6", "buscom", "quarantined");

  const std::vector<ArchJournalSummary> rows = journal_arch_summary(journal);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].arch, "buscom");
  EXPECT_EQ(rows[0].quarantined, 1u);
  EXPECT_EQ(rows[0].ok + rows[0].deterministic_failures, 0u);
  EXPECT_EQ(rows[1].arch, "conochi");
  EXPECT_EQ(rows[1].ok, 1u);
  EXPECT_EQ(rows[1].quarantined, 1u);
  EXPECT_EQ(rows[2].arch, "rmboc");
  EXPECT_EQ(rows[2].ok, 2u);
  EXPECT_EQ(rows[2].deterministic_failures, 1u);
  EXPECT_EQ(rows[2].quarantined, 0u);

  std::ostringstream out;
  print_journal_arch_summary(out, rows);
  EXPECT_EQ(out.str(),
            "journal buscom: 0 ok, 0 deterministic failure(s), "
            "1 quarantined\n"
            "journal conochi: 1 ok, 0 deterministic failure(s), "
            "1 quarantined\n"
            "journal rmboc: 2 ok, 1 deterministic failure(s), "
            "0 quarantined\n");
}

TEST(Journal, ArchSummaryOfARealCampaignJournalCoversEveryRun) {
  ChaosCampaignOptions opt = small_campaign();
  const std::string path = "/tmp/recosim_arch_summary_journal.jsonl";
  std::remove(path.c_str());

  std::vector<ChaosJobOutcome> outcomes;
  const auto jobs = make_chaos_jobs(opt, &outcomes);
  FarmConfig fc;
  fc.jobs = 2;
  fc.journal_path = path;
  fc.campaign_config = chaos_campaign_config(opt);
  SimFarm farm(fc);
  const CampaignReport report = farm.run(jobs);

  const JournalContents journal = read_journal(path);
  ASSERT_TRUE(journal.valid) << journal.error;
  const std::vector<ArchJournalSummary> rows = journal_arch_summary(journal);
  EXPECT_EQ(rows.size(), opt.archs.size());
  std::size_t total_ok = 0, total_failed = 0, total_quarantined = 0;
  for (const ArchJournalSummary& row : rows) {
    // Two seeds per architecture in small_campaign().
    EXPECT_EQ(row.ok + row.deterministic_failures + row.quarantined,
              opt.seeds.size())
        << row.arch;
    total_ok += row.ok;
    total_failed += row.deterministic_failures;
    total_quarantined += row.quarantined;
  }
  EXPECT_EQ(total_ok, report.ok);
  EXPECT_EQ(total_failed, report.failed);
  EXPECT_EQ(total_quarantined, report.quarantined);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace recosim::farm
