#include "farm/chaos_campaign.hpp"

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>

#include "fault/reliable_channel.hpp"
#include "verify/envelope.hpp"

namespace recosim::farm {

namespace {

/// Worst legitimate delivery latency the envelope analysis predicts: the
/// cycles the A<->B flow spends with zero capacity under the fault plan
/// (the sender just waits those out — send rejects do not consume the
/// retry budget), plus every retransmission backing off to the cap, plus
/// slack for transaction quiesce/drain stalls on the op-module flows.
sim::Cycle envelope_latency_bound(
    const std::vector<verify::ResourceEnvelope>& envelopes,
    fault::ChaosArch arch, sim::Cycle horizon) {
  sim::Cycle outage = 0;
  long long last_begin = -1;
  for (const auto& e : envelopes) {
    if (e.resource.rfind("flow ", 0) != 0 || e.capacity_min > 0) continue;
    if (e.window_begin == last_begin) continue;  // both directions, once
    last_begin = e.window_begin;
    const long long end =
        e.window_end < 0 ? static_cast<long long>(horizon) : e.window_end;
    if (end > e.window_begin)
      outage += static_cast<sim::Cycle>(end - e.window_begin);
  }
  const fault::ReliableChannelConfig ch = fault::chaos_channel_config(arch);
  return outage + ch.max_retries * (ch.max_timeout + ch.jitter) + 50'000;
}

void report_failure(std::ostream& out, const fault::ChaosSchedule& schedule,
                    const fault::ChaosResult& result,
                    const ChaosCampaignOptions& opt,
                    const fault::ChaosRunOptions& ro) {
  out << "FAIL arch=" << fault::to_string(schedule.arch)
      << " seed=" << schedule.seed << "\n";
  for (const auto& v : result.violations)
    out << "  violation[" << v.invariant << "]: " << v.detail << "\n";
  fault::ChaosSchedule minimal = schedule;
  if (opt.shrink) {
    // Seed the shrink with the windows the timeline/envelope lint flags
    // on the failing schedule: one probe drops everything outside them
    // before the greedy loop runs.
    std::vector<std::pair<long long, long long>> hints;
    verify::DiagnosticSink lint;
    fault::timeline_lint_schedule(schedule, lint);
    for (const auto& d : lint.diagnostics())
      if (d.has_window() && d.window_end != d.window_begin)
        hints.push_back({d.window_begin, d.window_end});
    minimal = fault::shrink_schedule(
        schedule,
        [&ro](const fault::ChaosSchedule& c) {
          return !fault::run_schedule(c, ro).ok;
        },
        hints);
  }
  out << "--- " << (opt.shrink ? "shrunk " : "")
      << "reproducing schedule (replay with: recosim-chaos --replay "
         "<file>) ---\n"
      << fault::serialize_schedule(minimal) << "--- end schedule ---\n";
}

fault::ChaosRunOptions run_options(const ChaosCampaignOptions& opt,
                                   const RunContext* ctx) {
  fault::ChaosRunOptions ro;
  ro.activity_driven = opt.activity_driven;
  ro.busy_path = opt.busy_path;
  ro.recovery = opt.recovery;
  ro.recovery_bound = opt.recovery_bound;
  if (ctx) ro.cancel = ctx->cancel;
  return ro;
}

}  // namespace

RunResult chaos_run(const ChaosCampaignOptions& opt,
                    const fault::ChaosSchedule& schedule,
                    ChaosJobOutcome* slot, const RunContext& ctx) {
  RunResult out;
  slot->fresh = true;
  const fault::ChaosArch arch = schedule.arch;
  const std::uint64_t seed = schedule.seed;

  if (opt.stall_seed && *opt.stall_seed == seed) {
    // Injected hang: spin until the watchdog cancels us. With no deadline
    // configured this never returns — exactly what a hung run looks like.
    while (!ctx.cancelled())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    out.digest = "stalled";
    return out;
  }

  std::ostringstream os;
  std::vector<verify::ResourceEnvelope> envelopes;
  if (opt.lint_first) {
    verify::DiagnosticSink lint;
    verify::EnvelopeParams ep;
    ep.collect = &envelopes;
    fault::timeline_lint_schedule(schedule, lint, &ep);
    if (lint.error_count() > 0) {
      slot->lint_skipped = true;
      slot->result = fault::ChaosResult{};
      if (opt.verbose) {
        os << fault::to_string(arch) << " seed=" << seed << " lint-skipped ("
           << lint.error_count() << " error(s))\n"
           << lint.to_text();
      }
      out.output = os.str();
      out.digest = "lint-skipped";
      return out;
    }
  }

  slot->result = fault::run_schedule(schedule, run_options(opt, &ctx));
  const fault::ChaosResult& result = slot->result;
  out.ok = result.ok;
  out.digest = chaos_result_digest(result);
  if (opt.verbose) {
    os << fault::to_string(arch) << " seed=" << seed
       << (result.ok ? " ok" : " FAIL") << " delivered=" << result.delivered
       << "/" << result.accepted << " committed=" << result.txns_committed
       << " rolled_back=" << result.txns_rolled_back;
    if (opt.recovery)
      os << " incidents=" << result.incidents
         << " recovered=" << result.incidents_recovered
         << " degraded=" << result.incidents_degraded_stable;
    os << " end_cycle=" << result.end_cycle << "\n";
  }
  if (!result.ok) {
    if (opt.lint_first)
      os << "LINT-MISS arch=" << fault::to_string(arch) << " seed=" << seed
         << ": lint-clean schedule violated a runtime invariant\n";
    if (ctx.final_attempt)
      report_failure(os, schedule, result, opt, run_options(opt, nullptr));
  } else if (opt.lint_first) {
    // The run held its invariants; check the measured throughput and
    // latency against the envelope predictions. A lint-clean schedule
    // whose runtime disagrees with its envelopes is a failure of the
    // analyzer, not of the architecture.
    const sim::Cycle bound =
        envelope_latency_bound(envelopes, arch, schedule.horizon);
    std::size_t zero_capacity_windows = 0;
    for (const auto& e : envelopes)
      if (e.resource.rfind("flow ", 0) == 0 && e.capacity_min <= 0)
        ++zero_capacity_windows;
    if (result.max_delivery_latency > bound) {
      out.ok = false;
      os << "LINT-MISS arch=" << fault::to_string(arch) << " seed=" << seed
         << ": measured max delivery latency " << result.max_delivery_latency
         << " exceeds the envelope bound " << bound << "\n";
    } else if (result.accepted > 0 && result.delivered == 0 &&
               zero_capacity_windows == 0) {
      out.ok = false;
      os << "LINT-MISS arch=" << fault::to_string(arch) << " seed=" << seed
         << ": envelopes predict a live path in every window but nothing "
            "was delivered ("
         << result.accepted << " accepted)\n";
    }
  }
  out.output = os.str();
  return out;
}

std::string chaos_result_digest(const fault::ChaosResult& r) {
  std::ostringstream os;
  os << r.ok << '|' << r.delivered << '|' << r.accepted << '|'
     << r.txns_committed << '|' << r.txns_rolled_back << '|'
     << r.forced_drains << '|' << r.max_delivery_latency << '|' << r.end_cycle
     << '|' << r.incidents << '|' << r.incidents_recovered << '|'
     << r.incidents_degraded_stable << '|' << r.evacuations << '|'
     << r.slo_json << '|';
  for (const auto& v : r.violations)
    os << v.invariant << ':' << v.detail << ';';
  return content_hash(os.str());
}

std::string chaos_scenario(const ChaosCampaignOptions& opt) {
  std::ostringstream os;
  os << "chaos ops=" << opt.ops << " horizon=" << opt.horizon
     << " ff=" << (opt.activity_driven ? 1 : 0)
     << " lint=" << (opt.lint_first ? 1 : 0)
     << " recovery=" << (opt.recovery ? 1 : 0);
  if (opt.recovery) os << " bound=" << opt.recovery_bound;
  return os.str();
}

std::string chaos_campaign_config(const ChaosCampaignOptions& opt) {
  std::string config = chaos_scenario(opt) + " archs=";
  for (fault::ChaosArch a : opt.archs)
    config += std::string(fault::to_string(a)) + ",";
  return config;
}

std::vector<Job> make_chaos_jobs(const ChaosCampaignOptions& opt,
                                 std::vector<ChaosJobOutcome>* outcomes) {
  auto shared = std::make_shared<const ChaosCampaignOptions>(opt);
  const std::string scenario = chaos_scenario(opt);
  std::vector<Job> jobs;
  jobs.reserve(opt.archs.size() * opt.seeds.size());
  outcomes->assign(opt.archs.size() * opt.seeds.size(), ChaosJobOutcome{});
  std::size_t idx = 0;
  for (fault::ChaosArch arch : opt.archs) {
    for (std::uint64_t seed : opt.seeds) {
      Job job;
      job.key.arch = fault::to_string(arch);
      job.key.seed = seed;
      job.key.scenario = scenario;
      const auto schedule =
          fault::make_schedule(arch, seed, opt.ops, opt.horizon);
      job.artifact = fault::serialize_schedule(schedule);
      ChaosJobOutcome* slot = &(*outcomes)[idx++];
      job.fn = [shared, schedule, slot](const RunContext& ctx) {
        return chaos_run(*shared, schedule, slot, ctx);
      };
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

void print_chaos_summary(std::ostream& out, const ChaosCampaignOptions& opt,
                         const CampaignReport& report,
                         const std::vector<ChaosJobOutcome>& outcomes) {
  const std::size_t per_arch = opt.seeds.size();
  for (std::size_t a = 0; a < opt.archs.size(); ++a) {
    std::uint64_t committed = 0, rolled_back = 0, forced = 0, delivered = 0;
    std::uint64_t incidents = 0, recovered = 0, degraded = 0, evacuations = 0;
    std::size_t failures = 0, lint_skipped = 0, resumed = 0;
    for (std::size_t s = 0; s < per_arch; ++s) {
      const std::size_t i = a * per_arch + s;
      const RunRecord& rec = report.records[i];
      if (rec.resumed) ++resumed;
      // Lint-skips are recorded with a sentinel digest so resumed ones
      // still count correctly.
      if (rec.digest == "lint-skipped") {
        ++lint_skipped;
        continue;
      }
      if (rec.status != RunStatus::kOk) ++failures;
      if (!outcomes[i].fresh) continue;  // resumed: no counters journaled
      const fault::ChaosResult& r = outcomes[i].result;
      committed += r.txns_committed;
      rolled_back += r.txns_rolled_back;
      forced += r.forced_drains;
      delivered += r.delivered;
      incidents += r.incidents;
      recovered += r.incidents_recovered;
      degraded += r.incidents_degraded_stable;
      evacuations += r.evacuations;
    }
    out << fault::to_string(opt.archs[a]) << ": "
        << (per_arch - failures - lint_skipped) << "/" << per_arch
        << " schedules ok";
    if (opt.lint_first) out << ", " << lint_skipped << " lint-skipped";
    out << ", " << committed << " txns committed, " << rolled_back
        << " rolled back, " << forced << " forced drains, " << delivered
        << " payloads delivered";
    if (opt.recovery)
      out << "; recovery: " << incidents << " incidents, " << recovered
          << " recovered, " << degraded << " degraded-stable, " << evacuations
          << " evacuations";
    if (resumed > 0) out << " (" << resumed << " resumed)";
    out << "\n";
  }
}

std::vector<ArchJournalSummary> journal_arch_summary(
    const JournalContents& journal) {
  std::map<std::string, ArchJournalSummary> by_arch;
  // recosim-tidy: allow(RCD001): counting into a sorted map; per-arch
  // totals are independent of the traversal order
  for (const auto& [key, run] : journal.runs) {
    ArchJournalSummary& row = by_arch[run.arch];
    row.arch = run.arch;
    if (run.status == "ok")
      ++row.ok;
    else if (run.status == "failed")
      ++row.deterministic_failures;
    else if (run.status == "quarantined")
      ++row.quarantined;
  }
  std::vector<ArchJournalSummary> rows;
  rows.reserve(by_arch.size());
  for (auto& [arch, row] : by_arch) rows.push_back(std::move(row));
  return rows;
}

void print_journal_arch_summary(std::ostream& out,
                                const std::vector<ArchJournalSummary>& rows) {
  for (const ArchJournalSummary& row : rows) {
    out << "journal " << row.arch << ": " << row.ok << " ok, "
        << row.deterministic_failures << " deterministic failure(s), "
        << row.quarantined << " quarantined\n";
  }
}

bool write_quarantine_file(const std::string& path,
                           const CampaignReport& report, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  out << "# recosim-chaos quarantine list (replay with --seed-file)\n";
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const RunRecord& rec = report.records[i];
    if (rec.status != RunStatus::kFailed &&
        rec.status != RunStatus::kQuarantined)
      continue;
    out << rec.key.seed << "  # arch=" << rec.key.arch << " status="
        << to_string(rec.status) << " reason=" << rec.reason << "\n";
  }
  return out.good();
}

}  // namespace recosim::farm
