// recosim-perfbench: the end-to-end benchmark of the simulator, with a
// per-layer split from a separate traced run (see perfbench/README.md).
//
//   recosim-perfbench --workload chaos|chaos-heal|stream --seed N
//                     --trace 0|1 [--trace-out PATH] [--tmp-dir DIR]
//                     [--reference FILE]
//   recosim-perfbench --list-metrics
//
// Every end-to-end timing is host CPU time (see cpu_s); simulated
// quantities carry "cycles" in their name. The last stdout line is one
// JSON object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. A run does a fixed amount of work, whatever the speed of the
// code under test.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/comparison.hpp"
#include "core/workloads.hpp"
#include "farm/chaos_campaign.hpp"
#include "farm/farm.hpp"
#include "farm/journal.hpp"
#include "fault/chaos.hpp"
#include "sample_stats.hpp"
#include "sim/check.hpp"
#include "spans.hpp"
#include "verify/envelope.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace recosim;
using Clock = std::chrono::steady_clock;

// -- workload sizing ---------------------------------------------------------

/// Every job (chaos run or stream cell) is timed in kPasses passes, one
/// after the other, and counts with its fastest pass. A shared host has
/// slow phases of one to a few seconds (1.2-1.5x); a pass lasts longer, so
/// a phase rarely covers the same job in both passes.
constexpr int kPasses = 2;
/// Chaos seeds per architecture: 4 archs -> 200 distinct schedules, so
/// p95 has its ten samples beyond, and the cost of any one schedule moves
/// the totals by well under 1%.
constexpr int kSeedsPerArch = 50;
/// chaos-heal runs cost about 3x a chaos run; they take the first 25 of
/// the same seeds (100 runs, five beyond p95) so that both passes fit the
/// benchmark's time limit.
constexpr int kHealSeedsPerArch = 25;
/// Chaos seeds come from [0, kSeedUniverse), screened with recosim-chaos
/// in plain and chaos-heal mode. A workload must not fail by choice of
/// input, so seeds on which some architecture fails are skipped; each is a
/// reproducible simulator bug (perfbench/README.md lists them).
constexpr std::uint64_t kSeedUniverse = 2000;
constexpr std::uint64_t kFailingSeeds[] = {277, 335, 411,  602, 682,
                                           738, 773, 1067, 1199};
/// Traffic seeds per (workload, arch) stream cell: 3 x 5 x 14 = 210
/// distinct cells per pass, enough for p95 to have ten samples beyond.
constexpr std::uint64_t kStreamSeeds = 14;
/// Simulated cycles per stream cell (each workload adds its drain phase).
constexpr sim::Cycle kStreamCycles = 200'000;
constexpr sim::Cycle kStreamWarmupCycles = 5'000;
/// The set-up is timed in kSetupBatches batches of kSetupBatch set-ups,
/// spread evenly over the timed passes; a sample is one batch's time per
/// set-up, and setup_s is the median sample. Timed all at once before the
/// pass, the samples took the speed of whichever core the process had
/// just then, and the medians of two runs differed by up to 1.5x.
constexpr int kSetupBatches = 10;
constexpr int kSetupBatch = 10;
constexpr int kTailPct = 95;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"runs_per_s", "1/s"},         {"run_ms_p50", "ms"},
    {"run_ms_p95", "ms"},          {"sim_mcycles_per_s", "Mcycles/s"},
    {"setup_s", "s"},              {"peak_rss_mb", "MB"},
};

constexpr const char* kChaosArchNames[] = {"rmboc", "buscom", "dynoc",
                                           "conochi"};
constexpr const char* kStreamArchNames[] = {"rmboc", "buscom", "dynoc",
                                            "conochi", "hierbus"};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d = {
      {"fail_ratio", "ratio"},
      {"bench.trace_overhead_ratio", "ratio"},
      {"farm.overhead_ms_per_run", "ms"},
      {"farm.journal_bytes_per_run", "bytes"},
      {"farm.digest_us_p50", "us"},
      {"fault.make_schedule_us_p50", "us"},
      {"fault.accepted", "count"},
      {"fault.delivered", "count"},
      {"fault.delivered_ratio", "ratio"},
      {"fault.host_ns_per_sim_cycle", "ns/cycle"},
      {"core.txns_per_run", "count"},
      {"core.txns_committed", "count"},
      {"core.txns_rolled_back", "count"},
      {"core.forced_drains", "count"},
      {"core.txn_commit_ratio", "ratio"},
      {"health.incidents", "count"},
      {"health.recovered", "count"},
      {"health.degraded_stable", "count"},
      {"health.evacuations", "count"},
      {"health.recovered_ratio", "ratio"},
      {"verify.lint_ms_p50", "ms"},
      {"verify.lint_ms_p95", "ms"},
      {"verify.lint_skipped", "count"},
      {"verify.lint_miss", "count"},
      {"sim.executed_cycles", "cycles"},
      {"sim.ff_cycles", "cycles"},
      {"sim.ff_jumps", "count"},
      {"sim.components", "count"},
  };
  for (const std::string a : kChaosArchNames)
    d.push_back({a + ".run_ms_p50", "ms"});
  for (const std::string a : kStreamArchNames) {
    d.push_back({a + ".stream_ns_per_cycle", "ns/cycle"});
    d.push_back({a + ".delivered", "count"});
    d.push_back({a + ".lost", "count"});
    d.push_back({a + ".latency_mean_cycles", "cycles"});
    d.push_back({a + ".latency_p99_cycles", "cycles"});
  }
  return d;
}

using Metrics = std::map<std::string, double>;

/// Host time of the timed passes on both clocks, for the "# host:" line.
struct HostClocks {
  double cpu_s = 0;   ///< CPU time, which the metrics use
  double wall_s = 0;  ///< wall time of the same stretch
};

/// What one workload hands to the reporter.
struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;  ///< folded digest of the first timed pass
  Percentile tail;     ///< run_ms_p95, with its sample counts
  HostClocks pass;     ///< host time of the timed passes
  std::vector<double> slowdown;  ///< PassSpeed::slowdown of each pass
  std::vector<std::string> problems;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
  std::string tmp_dir = ".";
  std::string reference;
};

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// CPU seconds used so far by the calling thread, or by the whole process
/// with CLOCK_PROCESS_CPUTIME_ID. The benchmark times on this clock: it
/// runs one thread at a time and its timed path does not wait, so on an
/// idle host the clock reads like the wall clock, but it stands still
/// while a shared host runs another tenant on the benchmark's core.
double cpu_s(clockid_t clock = CLOCK_THREAD_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Measures one stretch of host time on the wall clock and on `cpu_clock`.
class HostTimer {
 public:
  explicit HostTimer(clockid_t cpu_clock)
      : clock_(cpu_clock), wall_(Clock::now()), cpu_(cpu_s(cpu_clock)) {}
  HostClocks elapsed() const {
    return {cpu_s(clock_) - cpu_, seconds_since(wall_)};
  }

 private:
  clockid_t clock_;
  Clock::time_point wall_;
  double cpu_;
};

/// Mean CPU ms of reference_ms() between the jobs of a pass on a quiet
/// host (4-vCPU VM, g++ 12.2, RelWithDebInfo).
constexpr double kReferenceMs = 3.1;
/// A slow phase that slows reference_ms() by a factor f slows the
/// simulator by about f^kSensitivity. Fitted on five to seven runs of
/// each workload on a shared 4-vCPU VM: the end-to-end metrics spread by
/// 0.02-0.12 of their median with 0.7, 0.04-0.17 with 1 and 0.08-0.22 on
/// raw CPU time. (Under a synthetic memory-bandwidth hog it is 0.45.)
constexpr double kSensitivity = 0.7;

/// Runs a fixed piece of host work that no change to the simulator
/// touches, and returns its CPU ms. It is a frozen stand-in for the
/// simulator: a small discrete-event model with an event heap, packet
/// FIFOs on a 256-node grid and string-keyed counters, a few hundred KiB
/// in all. A shared host has slow phases of seconds to minutes, from
/// other tenants' cache and memory traffic, and they slow this model
/// about as much as they slow the simulator; pure arithmetic does not
/// slow down with them.
double reference_ms() {
  struct Event {
    std::uint64_t at;
    std::uint32_t node;
    bool operator>(const Event& o) const { return at > o.at; }
  };
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (int i = 0; i < 64; ++i)
      v.push_back("router." + std::to_string(i) + ".packets_forwarded");
    return v;
  }();
  const double t = cpu_s();
  std::unordered_map<std::string, std::uint64_t> stats;
  std::vector<std::deque<std::uint32_t>> fifo(256);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (std::uint32_t node = 0; node < fifo.size(); ++node)
    events.push({node % 7, node});
  std::uint64_t x = 12345;
  for (int step = 0; step < 60000; ++step) {
    const Event e = events.top();
    events.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::deque<std::uint32_t>& q = fifo[e.node];
    q.push_back(static_cast<std::uint32_t>(x));
    if (q.size() > 4) {  // forward the oldest packet east or south
      const std::uint32_t p = q.front();
      q.pop_front();
      fifo[(e.node + (p & 1 ? 1 : 16)) & 255].push_back(p);
    }
    ++stats[names[e.node & 63]];
    events.push({e.at + 1 + (x & 3), e.node});
  }
  std::uint64_t sum = 0;
  for (const auto& [name, count] : stats) sum += count;
  const double ms = (cpu_s() - t) * 1e3;
  return sum == 0 ? ms + 1 : ms;  // keeps the model's result live
}

/// The host's speed through one timed pass: reference_ms() samples, one
/// after each job, weighted by that job's time so that they cover the
/// pass as its time does.
class PassSpeed {
 public:
  void add(double job_ms, double ref_ms) {
    weighted_ += job_ms * ref_ms;
    weight_ += job_ms;
  }
  /// How many times slower than on the quiet host the simulator ran in
  /// the pass. Dividing a host time of the pass by it gives the time on
  /// the quiet host.
  double slowdown() const {
    return weight_ > 0
               ? std::pow(weighted_ / weight_ / kReferenceMs, kSensitivity)
               : 1.0;
  }

 private:
  double weighted_ = 0, weight_ = 0;
};

double median(const std::vector<double>& v) {
  return percentile(v, 50).value;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Durations (ms) of every recorded span called `name`.
std::vector<double> span_ms(const SpanRecorder& rec, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : rec.spans())
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  return out;
}

/// Committed reference digest for (workload, seed), "" when none.
std::string reference_digest(const std::string& path,
                             const std::string& workload, std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, digest;
    std::uint64_t s = 0;
    if (ls >> w >> s >> digest && w == workload && s == seed) return digest;
  }
  return "";
}

/// Fails the whole timed pass when its folded digest disagrees with the
/// committed reference for this (workload, seed).
void check_reference(const Options& o, std::size_t pass_runs, Outcome& out) {
  if (o.reference.empty()) return;
  const std::string ref = reference_digest(o.reference, o.workload, o.seed);
  if (ref.empty() || ref == out.digest) return;
  out.failed += pass_runs;
  out.problems.push_back("digest " + out.digest + " != reference " + ref);
}

/// Each job's fastest time over the timed passes (one row per pass).
std::vector<double> fastest(const std::vector<std::vector<double>>& passes) {
  std::vector<double> best = passes.front();
  for (const std::vector<double>& p : passes)
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], p[i]);
  return best;
}

/// End-to-end host figures of the untraced passes: percentiles over the
/// jobs' fastest host ms, and rates over `pass_s`, the host seconds of a
/// pass made of those (the jobs plus the farm's own overhead).
void report_pass(const std::vector<double>& job_ms, double pass_s,
                 double sim_cycles, Metrics& m, Outcome& out) {
  m["runs_per_s"] = ratio(job_ms.size(), pass_s);
  m["sim_mcycles_per_s"] = ratio(sim_cycles / 1e6, pass_s);
  m["run_ms_p50"] = median(job_ms);
  out.tail = percentile(job_ms, kTailPct);
  m["run_ms_p95"] = out.tail.value;
}

/// Times one batch of kSetupBatch calls of `setup` and adds its CPU seconds
/// per set-up to `samples`. A batch lasts tens of milliseconds, far above
/// the clock's resolution.
template <typename F>
void time_setup_batch(std::vector<double>& samples, F&& setup) {
  const double t = cpu_s();
  for (int r = 0; r < kSetupBatch; ++r) setup();
  samples.push_back((cpu_s() - t) / kSetupBatch);
}

/// Whether a set-up batch is timed after job `i` of timed pass `pass`,
/// each of `n` jobs: kSetupBatches batches spread evenly over the passes.
bool setup_batch_after(int pass, std::size_t i, std::size_t n) {
  const std::size_t every = kPasses * n / kSetupBatches;
  const std::size_t k = static_cast<std::size_t>(pass) * n + i;
  return k % every == every - 1 && k / every < kSetupBatches;
}

// -- chaos and chaos-heal ----------------------------------------------------

/// The chaos seed list for --seed: the first kSeedsPerArch screened seeds
/// from block (seed mod blocks) of the universe onwards.
std::vector<std::uint64_t> chaos_seeds(std::uint64_t seed) {
  const std::uint64_t blocks = kSeedUniverse / kSeedsPerArch;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = (seed % blocks) * kSeedsPerArch;
       seeds.size() < static_cast<std::size_t>(kSeedsPerArch);
       s = (s + 1) % kSeedUniverse) {
    if (std::find(std::begin(kFailingSeeds), std::end(kFailingSeeds), s) ==
        std::end(kFailingSeeds))
      seeds.push_back(s);
  }
  return seeds;
}

farm::ChaosCampaignOptions chaos_options(bool heal, std::uint64_t seed) {
  farm::ChaosCampaignOptions opt;
  opt.seeds = chaos_seeds(seed);
  if (heal) opt.seeds.resize(kHealSeedsPerArch);
  // A failing run is already counted; shrinking its schedule would cost
  // tens of seconds and push the run past its time limit.
  opt.shrink = false;
  if (heal) {
    opt.ops = 24;
    opt.recovery = true;
    opt.lint_first = true;
  }
  return opt;
}

/// The traced chaos path: the calls chaos_run makes, in its order, each
/// inside a span. Returns the run's digest as the farm would record it.
std::string traced_chaos_run(const farm::ChaosCampaignOptions& opt,
                             const fault::ChaosSchedule& schedule,
                             SpanRecorder& rec, int parent) {
  const std::string id = std::string(fault::to_string(schedule.arch)) + "|" +
                         std::to_string(schedule.seed);
  ScopedSpan run(&rec, "bench.run", id, parent);
  if (opt.lint_first) {
    ScopedSpan lint_span(&rec, "verify.timeline_lint_schedule", id, run.id());
    verify::DiagnosticSink lint;
    std::vector<verify::ResourceEnvelope> envelopes;
    verify::EnvelopeParams ep;
    ep.collect = &envelopes;
    fault::timeline_lint_schedule(schedule, lint, &ep);
    if (lint.error_count() > 0) return "lint-skipped";
  }
  fault::ChaosRunOptions ro;
  ro.activity_driven = opt.activity_driven;
  ro.busy_path = opt.busy_path;
  ro.recovery = opt.recovery;
  ro.recovery_bound = opt.recovery_bound;
  fault::ChaosResult result;
  {
    ScopedSpan s(&rec, "fault.run_schedule", id, run.id());
    result = fault::run_schedule(schedule, ro);
  }
  ScopedSpan s(&rec, "farm.chaos_result_digest", id, run.id());
  return farm::chaos_result_digest(result);
}

Outcome run_chaos(const Options& o, bool heal) {
  Outcome out;
  const farm::ChaosCampaignOptions opt = chaos_options(heal, o.seed);
  const std::size_t n = opt.archs.size() * opt.seeds.size();

  // Set-up: schedule generation, exactly as recosim-chaos does it.
  std::vector<farm::ChaosJobOutcome> outcomes;
  std::vector<farm::Job> jobs = farm::make_chaos_jobs(opt, &outcomes);
  std::vector<double> setup_s;
  auto setup_batch = [&opt, &setup_s] {
    time_setup_batch(setup_s, [&opt] {
      std::vector<farm::ChaosJobOutcome> discard;
      farm::make_chaos_jobs(opt, &discard);
    });
  };

  // CPU time of each job function on the farm's worker thread, per timed
  // pass: per-run times, and the farm's own overhead as SimFarm::run's
  // process CPU time minus their sum. After its run, each job takes a
  // reference sample and some time a set-up batch; that side time is
  // taken out of the pass's. `pass` is -1 outside the timed passes.
  std::vector<std::vector<double>> fn_ms(kPasses, std::vector<double>(n));
  std::vector<PassSpeed> speed(kPasses);
  std::vector<double> side_s(kPasses);
  int pass = -1;
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].fn = [inner = std::move(jobs[i].fn), i, n, &fn_ms, &speed,
                  &side_s, &pass, &setup_batch](const farm::RunContext& ctx) {
      const double t = cpu_s();
      farm::RunResult r = inner(ctx);
      if (pass >= 0) {
        const double side = cpu_s();
        fn_ms[pass][i] = (side - t) * 1e3;
        speed[pass].add(fn_ms[pass][i], reference_ms());
        if (setup_batch_after(pass, i, n)) setup_batch();
        side_s[pass] += cpu_s() - side;
      }
      return r;
    };
  }

  SpanRecorder rec;
  std::vector<fault::ChaosSchedule> schedules;
  if (o.trace) {
    ScopedSpan setup(&rec, "bench.setup", o.workload);
    for (fault::ChaosArch arch : opt.archs)
      for (std::uint64_t seed : opt.seeds) {
        ScopedSpan s(&rec, "fault.make_schedule",
                     std::string(fault::to_string(arch)) + "|" +
                         std::to_string(seed),
                     setup.id());
        schedules.push_back(
            fault::make_schedule(arch, seed, opt.ops, opt.horizon));
      }
  }

  farm::FarmConfig fc;
  fc.jobs = 1;  // closed loop: the next run starts when the previous ends
  fc.journal_path = o.tmp_dir + "/" + o.workload + "-journal.jsonl";
  fc.campaign_config = farm::chaos_campaign_config(opt);

  {  // Warm-up: one run per architecture, untimed and unjournaled.
    std::vector<farm::Job> warm;
    for (std::size_t a = 0; a < opt.archs.size(); ++a)
      warm.push_back(jobs[a * opt.seeds.size()]);
    farm::FarmConfig wc = fc;
    wc.journal_path.clear();
    farm::SimFarm(wc).run(warm);
  }

  // The timed passes, each a whole campaign with a fresh journal. Every
  // host time of a pass is divided by the pass's slowdown.
  std::vector<std::vector<std::string>> digests(kPasses);
  std::uintmax_t journal_bytes = 0;
  std::uint64_t lint_miss = 0;
  double overhead_s = 0;  // the farm's own, in its fastest pass
  std::vector<double> last_raw_ms;  // the last pass's job times, unscaled
  for (pass = 0; pass < kPasses; ++pass) {
    std::filesystem::remove(fc.journal_path);
    const std::size_t batches_before = setup_s.size();
    const HostTimer timer(CLOCK_PROCESS_CPUTIME_ID);
    farm::CampaignReport report;
    {
      // An untraced pass shows in the trace as one span.
      ScopedSpan s(o.trace ? &rec : nullptr, "farm.SimFarm::run", o.workload);
      report = farm::SimFarm(fc).run(jobs);
    }
    HostClocks t = timer.elapsed();
    t.cpu_s -= side_s[pass];
    t.wall_s -= side_s[pass];
    out.pass.cpu_s += t.cpu_s;
    out.pass.wall_s += t.wall_s;
    double fn_s = 0;
    for (double ms : fn_ms[pass]) fn_s += ms / 1e3;
    const double slow = speed[pass].slowdown();
    out.slowdown.push_back(slow);
    last_raw_ms = fn_ms[pass];
    for (double& ms : fn_ms[pass]) ms /= slow;
    for (std::size_t b = batches_before; b < setup_s.size(); ++b)
      setup_s[b] /= slow;
    const double pass_overhead_s = (t.cpu_s - fn_s) / slow;
    overhead_s = pass == 0 ? pass_overhead_s
                           : std::min(overhead_s, pass_overhead_s);
    std::error_code ec;
    journal_bytes = std::filesystem::file_size(fc.journal_path, ec);
    if (ec) out.problems.push_back("no campaign journal at " + fc.journal_path);
    std::filesystem::remove(fc.journal_path);

    for (std::size_t i = 0; i < n; ++i) {
      const farm::RunRecord& r = report.records[i];
      ++out.attempted;
      digests[pass].push_back(r.digest);
      if (pass == 0 && r.output.find("LINT-MISS") != std::string::npos)
        ++lint_miss;
      if (r.status != farm::RunStatus::kOk) {
        ++out.failed;
        out.problems.push_back(r.key.arch + "|" + std::to_string(r.key.seed) +
                               " " + farm::to_string(r.status) + " " +
                               r.reason);
      }
    }
    if (digests[pass] != digests[0]) {
      out.failed += n;
      out.problems.push_back("timed pass " + std::to_string(pass + 1) +
                             " digests differ from pass 1");
    }
  }
  pass = -1;

  const std::vector<double> job_ms = fastest(fn_ms);
  std::map<std::string, std::vector<double>> arch_ms;
  double fn_s = 0;
  std::uint64_t sim_cycles = 0;
  for (std::size_t i = 0; i < n; ++i) {
    arch_ms[jobs[i].key.arch].push_back(job_ms[i]);
    fn_s += job_ms[i] / 1e3;
    sim_cycles += outcomes[i].result.end_cycle;
  }
  std::string fold;
  for (const std::string& d : digests[0]) fold += d + "\n";
  out.digest = farm::content_hash(fold);
  check_reference(o, out.attempted, out);

  Metrics& m = out.metrics;
  report_pass(job_ms, fn_s + overhead_s, static_cast<double>(sim_cycles), m,
              out);
  m["setup_s"] = median(setup_s);
  m["farm.overhead_ms_per_run"] = ratio(overhead_s * 1e3, n);
  m["farm.journal_bytes_per_run"] = ratio(journal_bytes, n);
  for (const char* a : kChaosArchNames)
    m[std::string(a) + ".run_ms_p50"] = median(arch_ms[a]);

  // Simulated per-layer counts: deterministic.
  std::uint64_t accepted = 0, delivered = 0, committed = 0, rolled = 0,
                forced = 0, incidents = 0, recovered = 0, degraded = 0,
                evacuations = 0, skipped = 0;
  for (const farm::ChaosJobOutcome& c : outcomes) {
    if (c.lint_skipped) {
      ++skipped;
      continue;
    }
    accepted += c.result.accepted;
    delivered += c.result.delivered;
    committed += c.result.txns_committed;
    rolled += c.result.txns_rolled_back;
    forced += c.result.forced_drains;
    incidents += c.result.incidents;
    recovered += c.result.incidents_recovered;
    degraded += c.result.incidents_degraded_stable;
    evacuations += c.result.evacuations;
  }
  m["fault.accepted"] = accepted;
  m["fault.delivered"] = delivered;
  m["fault.delivered_ratio"] = ratio(delivered, accepted);
  m["core.txns_per_run"] = ratio(committed + rolled, n - skipped);
  m["core.txns_committed"] = committed;
  m["core.txns_rolled_back"] = rolled;
  m["core.forced_drains"] = forced;
  m["core.txn_commit_ratio"] = ratio(committed, committed + rolled);
  m["health.incidents"] = incidents;
  m["health.recovered"] = recovered;
  m["health.degraded_stable"] = degraded;
  m["health.evacuations"] = evacuations;
  m["health.recovered_ratio"] = ratio(recovered, incidents);
  m["verify.lint_skipped"] = skipped;
  m["verify.lint_miss"] = lint_miss;
  if (!o.trace) return out;

  // The traced pass: the same runs, outside the farm, one span per call.
  const double tt = cpu_s();
  {
    ScopedSpan pass_span(&rec, "bench.pass", o.workload);
    for (std::size_t i = 0; i < n; ++i) {
      ++out.attempted;
      const std::string d =
          traced_chaos_run(opt, schedules[i], rec, pass_span.id());
      if (d != digests[0][i]) {
        ++out.failed;
        out.problems.push_back("traced digest " + d + " != untraced " +
                               digests[0][i]);
      }
    }
  }
  // Traced against untraced time of the job functions in the last timed
  // pass, the one just before, so the farm's own overhead, which the
  // traced pass skips, is left out of both.
  double last_s = 0;
  for (double ms : last_raw_ms) last_s += ms / 1e3;
  m["bench.trace_overhead_ratio"] = ratio(cpu_s() - tt, last_s) - 1.0;
  m["farm.digest_us_p50"] =
      median(span_ms(rec, "farm.chaos_result_digest")) * 1e3;
  m["fault.make_schedule_us_p50"] =
      median(span_ms(rec, "fault.make_schedule")) * 1e3;
  const std::vector<double> lint = span_ms(rec, "verify.timeline_lint_schedule");
  m["verify.lint_ms_p50"] = median(lint);
  m["verify.lint_ms_p95"] = percentile(lint, kTailPct).value;
  const std::vector<std::int64_t> self = self_times_ns(rec.spans());
  double run_ns = 0;
  for (std::size_t i = 0; i < self.size(); ++i)
    if (rec.spans()[i].name == "fault.run_schedule") run_ns += self[i];
  m["fault.host_ns_per_sim_cycle"] =
      ratio(run_ns, static_cast<double>(sim_cycles));
  if (!rec.write_chrome_trace(o.trace_out))
    out.problems.push_back("cannot write trace " + o.trace_out);
  return out;
}

// -- stream ------------------------------------------------------------------

core::MinimalSystem build_minimal(std::size_t arch) {
  switch (arch) {
    case 0: return core::make_minimal_rmboc();
    case 1: return core::make_minimal_buscom();
    case 2: return core::make_minimal_dynoc();
    case 3: return core::make_minimal_conochi();
    default: return core::make_minimal_hierbus();
  }
}

constexpr std::size_t kStreamArchs = std::size(kStreamArchNames);

/// One cell's outputs: the workload report plus the architecture's and
/// kernel's own counters.
std::string cell_fields(const core::WorkloadReport& r,
                        const core::MinimalSystem& sys) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf, "%s|%s|%llu|%llu|%a|%llu|%a|%llu|%llu|%llu|%llu|%llu|%llu|%llu\n",
      r.workload.c_str(), r.architecture.c_str(),
      static_cast<unsigned long long>(r.offered),
      static_cast<unsigned long long>(r.delivered), r.mean_latency_cycles,
      static_cast<unsigned long long>(r.p99_latency_cycles),
      r.deadline_miss_fraction, static_cast<unsigned long long>(r.lost),
      static_cast<unsigned long long>(sys.arch->packets_sent()),
      static_cast<unsigned long long>(sys.arch->packets_delivered()),
      static_cast<unsigned long long>(sys.arch->packets_dropped()),
      static_cast<unsigned long long>(sys.kernel->now()),
      static_cast<unsigned long long>(sys.kernel->fast_forwarded_cycles()),
      static_cast<unsigned long long>(sys.kernel->fast_forwards()));
  return buf;
}

Outcome run_stream(const Options& o) {
  Outcome out;
  const auto workloads = core::standard_workloads();
  // Cells in traffic-seed, workload, arch order: the cells of one kind are
  // spread over the whole pass, so a slow phase of the shared host slows
  // a share of every kind rather than all cells of one. (The 14 slowest
  // cells, network-streaming on dynoc, are where p95 falls.)
  const std::size_t per_seed = workloads.size() * kStreamArchs;
  const std::size_t n = kStreamSeeds * per_seed;
  auto arch_of = [](std::size_t c) { return c % kStreamArchs; };
  auto workload_of = [&workloads](std::size_t c) -> core::Workload& {
    return *workloads[c / kStreamArchs % workloads.size()];
  };
  auto traffic_seed = [&o, per_seed](std::size_t c) {
    return o.seed * kStreamSeeds + c / per_seed;
  };
  SpanRecorder rec;
  SpanRecorder* tracer = nullptr;  // set on the traced pass only

  // The set-up metric times building every cell's system. The passes
  // build each cell's system just before the cell runs, untimed, so a cell
  // runs on freshly allocated memory, as a chaos run does.
  std::vector<core::MinimalSystem> systems;
  auto build_all = [&] {
    systems.clear();
    for (std::size_t c = 0; c < n; ++c)
      systems.push_back(build_minimal(arch_of(c)));
  };
  std::vector<double> setup_s;
  build_all();
  for (std::size_t c = 0; c < n; ++c)  // warm-up
    workload_of(c).run(*systems[c].kernel, *systems[c].arch,
                       systems[c].modules, kStreamWarmupCycles,
                       traffic_seed(c));
  systems.clear();

  // The timed passes; with --trace 1 a traced pass follows, so the last
  // two can be compared for the tracing overhead.
  const int passes = kPasses + (o.trace ? 1 : 0);
  std::vector<std::vector<double>> cell_ms(kPasses, std::vector<double>(n));
  std::vector<PassSpeed> speed(kPasses);
  std::vector<double> traced_ns(kStreamArchs), traced_cycles(kStreamArchs);
  std::string first_fold;
  double sim_cycles = 0, traced_s = 0;
  double last_raw_s = 0;  // the last timed pass's cell times, unscaled
  for (int pass = 0; pass < passes; ++pass) {
    const bool traced = pass == kPasses;
    tracer = traced ? &rec : nullptr;
    std::uint64_t components = 0, executed = 0, ff_cycles = 0, ff_jumps = 0;

    std::string fold;
    const std::size_t batches_before = setup_s.size();
    const HostTimer timer(CLOCK_THREAD_CPUTIME_ID);
    ScopedSpan pass_span(tracer, "bench.pass", o.workload);
    for (std::size_t c = 0; c < n; ++c) {
      core::Workload& w = workload_of(c);
      const std::size_t a = arch_of(c);
      const std::string id = w.name() + "|" + kStreamArchNames[a];
      core::MinimalSystem sys = [&] {
        ScopedSpan s(tracer, "core.make_minimal", id, pass_span.id());
        return build_minimal(a);
      }();
      components += sys.kernel->component_count();
      const double t = cpu_s();
      core::WorkloadReport r;
      {
        ScopedSpan s(tracer, "core.workload_run", id, pass_span.id());
        r = w.run(*sys.kernel, *sys.arch, sys.modules, kStreamCycles,
                  traffic_seed(c));
      }
      const double ms = (cpu_s() - t) * 1e3;
      const double cycles = static_cast<double>(sys.kernel->now());
      ++out.attempted;
      if (r.delivered + r.lost != r.offered) {
        ++out.failed;
        out.problems.push_back(id + ": offered " + std::to_string(r.offered) +
                               " != delivered + lost");
      }
      fold += cell_fields(r, sys);
      executed += sys.kernel->now() - sys.kernel->fast_forwarded_cycles();
      ff_cycles += sys.kernel->fast_forwarded_cycles();
      ff_jumps += sys.kernel->fast_forwards();
      if (traced) {
        traced_ns[a] += ms * 1e6;
        traced_cycles[a] += cycles;
        traced_s += ms / 1e3;
        continue;
      }
      cell_ms[pass][c] = ms;
      speed[pass].add(ms, reference_ms());
      if (setup_batch_after(pass, c, n)) {
        time_setup_batch(setup_s, build_all);
        systems.clear();
      }
      if (pass == 0) {
        sim_cycles += cycles;
        Metrics& m = out.metrics;
        const std::string p = kStreamArchNames[a];
        const double before = m[p + ".delivered"];
        m[p + ".delivered"] += r.delivered;
        m[p + ".lost"] += r.lost;
        // Delivery-weighted mean over the arch's cells; worst p99.
        m[p + ".latency_mean_cycles"] =
            ratio(m[p + ".latency_mean_cycles"] * before +
                      r.mean_latency_cycles * r.delivered,
                  m[p + ".delivered"]);
        m[p + ".latency_p99_cycles"] =
            std::max<double>(m[p + ".latency_p99_cycles"],
                             r.p99_latency_cycles);
      }
    }
    const std::string digest = farm::content_hash(fold);
    if (pass == 0) {
      first_fold = fold;
      out.digest = digest;
      Metrics& m = out.metrics;
      m["sim.executed_cycles"] = executed;
      m["sim.ff_cycles"] = ff_cycles;
      m["sim.ff_jumps"] = ff_jumps;
      m["sim.components"] = components;
    } else if (fold != first_fold) {
      out.failed += n;
      out.problems.push_back(std::string(traced ? "traced" : "timed") +
                             " pass digest " + digest + " != first pass " +
                             out.digest);
    }
    if (traced) continue;
    const HostClocks t = timer.elapsed();
    out.pass.cpu_s += t.cpu_s;
    out.pass.wall_s += t.wall_s;
    // Every host time of the pass is divided by the pass's slowdown.
    const double slow = speed[pass].slowdown();
    out.slowdown.push_back(slow);
    last_raw_s = 0;
    for (double& ms : cell_ms[pass]) {
      last_raw_s += ms / 1e3;
      ms /= slow;
    }
    for (std::size_t b = batches_before; b < setup_s.size(); ++b)
      setup_s[b] /= slow;
  }
  tracer = nullptr;
  check_reference(o, out.attempted, out);

  const std::vector<double> best = fastest(cell_ms);
  std::vector<std::vector<double>> arch_ms(kStreamArchs);
  double best_s = 0;
  for (std::size_t c = 0; c < n; ++c) {
    arch_ms[arch_of(c)].push_back(best[c]);
    best_s += best[c] / 1e3;
  }
  Metrics& m = out.metrics;
  report_pass(best, best_s, sim_cycles, m, out);
  m["setup_s"] = median(setup_s);
  for (std::size_t a = 0; a < kStreamArchs; ++a) {
    const std::string p = kStreamArchNames[a];
    if (a < std::size(kChaosArchNames)) m[p + ".run_ms_p50"] = median(arch_ms[a]);
    m[p + ".stream_ns_per_cycle"] = ratio(traced_ns[a], traced_cycles[a]);
  }
  if (o.trace) {
    m["bench.trace_overhead_ratio"] = ratio(traced_s, last_raw_s) - 1.0;
    if (!rec.write_chrome_trace(o.trace_out))
      out.problems.push_back("cannot write trace " + o.trace_out);
  }
  return out;
}

// -- reporting ---------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void report(const Options& o, const Outcome& out) {
  const bool correct = out.failed == 0 && out.problems.empty();
  const std::vector<MetricDef> defs = o.trace ? per_layer_defs() : kEndToEnd;

  std::printf("# workload=%s seed=%llu trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0);
  std::printf("# build=%s compiler=\"%s\" nproc=%u checks=%d\n",
              PERFBENCH_BUILD_TYPE, __VERSION__,
              std::thread::hardware_concurrency(), RECOSIM_CHECKS_ENABLED);
  std::printf("# digest=%s runs=%llu failed=%llu fail_ratio=%s\n",
              out.digest.c_str(), static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              number(ratio(out.failed, out.attempted)).c_str());
  // Wall time is printed, not reported: a change that makes the timed
  // path wait (sleep, blocking I/O) shows here and not in the metrics.
  std::string slowdown;
  for (double s : out.slowdown) slowdown += (slowdown.empty() ? "" : ",") + number(s);
  std::printf("# host: %d timed passes cpu_s=%s wall_s=%s slowdown=%s\n",
              kPasses, number(out.pass.cpu_s).c_str(),
              number(out.pass.wall_s).c_str(), slowdown.c_str());
  std::printf("# timing: n=%zu runs, each at its fastest of %d passes; p%d "
              "has %zu samples beyond it\n",
              out.tail.samples, kPasses, kTailPct, out.tail.beyond);
  for (const std::string& p : out.problems)
    std::printf("# FAIL %s\n", p.c_str());

  Metrics m = out.metrics;
  m["fail_ratio"] = ratio(out.failed, out.attempted);
  m["peak_rss_mb"] = peak_rss_mb();
  for (const MetricDef& d : defs)
    std::printf("%-34s %18s %s\n", d.name.c_str(), number(m[d.name]).c_str(),
                d.unit.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    json += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " +
            number(m[defs[i].name]) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: recosim-perfbench --workload chaos|chaos-heal|stream "
               "--seed N --trace 0|1\n"
               "                         [--trace-out PATH] [--tmp-dir DIR] "
               "[--reference FILE]\n"
               "       recosim-perfbench --list-metrics\n");
  return 2;
}

int run_main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd)
        std::printf("end_to_end %s %s\n", d.name.c_str(), d.unit.c_str());
      for (const MetricDef& d : per_layer_defs())
        std::printf("per_layer %s %s\n", d.name.c_str(), d.unit.c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (arg == "--workload")
      o.workload = v;
    else if (arg == "--seed")
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--trace")
      o.trace = v == "1";
    else if (arg == "--trace-out")
      o.trace_out = v;
    else if (arg == "--tmp-dir")
      o.tmp_dir = v;
    else if (arg == "--reference")
      o.reference = v;
    else
      return usage();
  }
  if (o.workload != "chaos" && o.workload != "chaos-heal" &&
      o.workload != "stream")
    return usage();
  if (RECOSIM_CHECKS_ENABLED) {
    // Paranoid checks (SIM003 and friends) change host time; a checked
    // build's timings would not compare with anything.
    std::fprintf(stderr,
                 "recosim-perfbench: refusing to time a checked build "
                 "(RECOSIM_CHECKS_ENABLED, build type %s); build with "
                 "NDEBUG\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::filesystem::create_directories(o.tmp_dir);
  const Outcome out = o.workload == "stream"
                          ? run_stream(o)
                          : run_chaos(o, o.workload == "chaos-heal");
  report(o, out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
