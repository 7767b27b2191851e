// Simulation-farm benchmark: throughput of a chaos campaign on the farm
// (src/farm/) serially vs on N workers, the cost of resuming a finished
// campaign from its journal, and the overhead of the robustness machinery
// (retry, incident records, quarantine) on a synthetic failing workload.
// The figure of merit is campaign runs per second and the parallel
// speedup — the farm exists so 2k-seed campaigns finish in CI time.
//
// Output is one JSON document, printed to stdout and written to
// BENCH_farm.json (or argv[1]).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "farm/chaos_campaign.hpp"
#include "farm/farm.hpp"
#include "json/json.hpp"
#include "trajectory.hpp"

using namespace recosim;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

farm::ChaosCampaignOptions campaign_options() {
  farm::ChaosCampaignOptions opt;
  for (std::uint64_t s = 1; s <= 12; ++s) opt.seeds.push_back(s);
  return opt;  // 4 architectures x 12 seeds = 48 runs, default params
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = campaign_options();
  const int workers = farm::default_jobs(64);
  bool smoke_ok = true;
  std::ostringstream errors;

  // Serial baseline.
  std::vector<farm::ChaosJobOutcome> serial_outcomes;
  const auto serial_jobs = farm::make_chaos_jobs(opt, &serial_outcomes);
  farm::FarmConfig serial_cfg;
  serial_cfg.jobs = 1;
  auto t0 = std::chrono::steady_clock::now();
  const auto serial = farm::SimFarm(serial_cfg).run(serial_jobs);
  const double serial_s = seconds_since(t0);

  // Same campaign on N workers, journaled for the resume measurement.
  const std::string journal = "BENCH_farm.journal.jsonl";
  std::remove(journal.c_str());
  std::vector<farm::ChaosJobOutcome> parallel_outcomes;
  const auto parallel_jobs = farm::make_chaos_jobs(opt, &parallel_outcomes);
  farm::FarmConfig parallel_cfg;
  parallel_cfg.jobs = workers;
  parallel_cfg.journal_path = journal;
  parallel_cfg.campaign_config = farm::chaos_campaign_config(opt);
  t0 = std::chrono::steady_clock::now();
  const auto parallel = farm::SimFarm(parallel_cfg).run(parallel_jobs);
  const double parallel_s = seconds_since(t0);

  // Determinism smoke: every run's digest must match the serial campaign.
  for (std::size_t i = 0; i < serial.records.size(); ++i)
    if (serial.records[i].digest != parallel.records[i].digest) {
      smoke_ok = false;
      errors << "digest mismatch serial vs parallel at "
             << serial.records[i].key.canonical() << "\n";
    }
  if (serial.ok != serial.total) {
    smoke_ok = false;
    errors << "serial campaign not clean: " << serial.ok << "/"
           << serial.total << " ok\n";
  }

  // Resume overhead: replaying the finished campaign against its journal
  // should satisfy every run without simulating anything.
  std::vector<farm::ChaosJobOutcome> resume_outcomes;
  const auto resume_jobs = farm::make_chaos_jobs(opt, &resume_outcomes);
  farm::FarmConfig resume_cfg = parallel_cfg;
  resume_cfg.resume = true;
  t0 = std::chrono::steady_clock::now();
  const auto resumed = farm::SimFarm(resume_cfg).run(resume_jobs);
  const double resume_s = seconds_since(t0);
  if (resumed.resumed != resumed.total) {
    smoke_ok = false;
    errors << "resume re-ran " << (resumed.total - resumed.resumed)
           << " runs that were already journaled\n";
  }
  std::remove(journal.c_str());

  // Robustness overhead: a synthetic workload that exercises every
  // incident path — throwing runs, deterministic failures and
  // nondeterministic retries — so the bench tracks what the machinery
  // costs and that quarantine classification stays stable.
  std::vector<farm::Job> faulty;
  std::atomic<int> flaky_calls{0};
  for (int i = 0; i < 24; ++i) {
    farm::Job j;
    j.key = {"synthetic", static_cast<std::uint64_t>(i), "bench-faults"};
    j.artifact = "synthetic\n";
    if (i % 8 == 3) {
      j.fn = [](const farm::RunContext&) -> farm::RunResult {
        throw std::runtime_error("synthetic crash");
      };
    } else if (i % 8 == 5) {
      j.fn = [](const farm::RunContext&) {
        farm::RunResult r;
        r.ok = false;
        r.digest = "stable-failure";
        return r;
      };
    } else if (i % 8 == 7) {
      j.fn = [&flaky_calls](const farm::RunContext&) {
        farm::RunResult r;
        r.ok = false;
        r.digest = "flaky-" + std::to_string(++flaky_calls);
        return r;
      };
    } else {
      j.fn = [](const farm::RunContext&) { return farm::RunResult{}; };
    }
    faulty.push_back(std::move(j));
  }
  farm::FarmConfig faulty_cfg;
  faulty_cfg.jobs = workers;
  faulty_cfg.retry_backoff = std::chrono::milliseconds(1);
  t0 = std::chrono::steady_clock::now();
  const auto faulty_report = farm::SimFarm(faulty_cfg).run(faulty);
  const double faulty_s = seconds_since(t0);
  if (faulty_report.failed != 3 || faulty_report.quarantined != 6) {
    smoke_ok = false;
    errors << "unexpected fault classification: " << faulty_report.failed
           << " failed, " << faulty_report.quarantined << " quarantined\n";
  }

  const double runs = static_cast<double>(serial.total);
  json::Writer w;
  w.begin_object()
      .field("bench", "farm")
      .field("campaign_runs", serial.total)
      .field("workers", workers)
      .field("serial_s", serial_s)
      .field("serial_runs_per_s", runs / serial_s)
      .field("parallel_s", parallel_s)
      .field("parallel_runs_per_s", runs / parallel_s)
      .field("speedup", serial_s / parallel_s)
      .field("resume_s", resume_s)
      .field("resume_runs_per_s", runs / resume_s)
      .key("faulty_campaign").begin_object()
      .field("runs", faulty_report.total)
      .field("wall_s", faulty_s)
      .field("ok", faulty_report.ok)
      .field("failed", faulty_report.failed)
      .field("quarantined", faulty_report.quarantined)
      .field("incidents", faulty_report.incidents)
      .end()
      .end();
  bench::write_trajectory(w.str() + "\n",
                          argc > 1 ? argv[1] : "BENCH_farm.json");

  if (!smoke_ok) {
    std::cerr << errors.str();
    return 1;
  }
  return 0;
}
