// Envelope-analyzer benchmark: time the symbolic bandwidth/latency
// envelope pass (src/verify/envelope.*) over generated chaos schedules —
// the exact workload `recosim-chaos --lint-first` puts on it — and the
// `envelope_feasible` pruning oracle that planners call in a loop. The
// analyzer must stay cheap enough to run on every schedule before every
// chaos run, so the figure of merit is schedules linted per second and
// the per-schedule envelope count.
//
// Output is one JSON document, printed to stdout and written to
// BENCH_envelope.json (or argv[1]).

#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "json/json.hpp"
#include "trajectory.hpp"
#include "verify/diagnostic.hpp"
#include "verify/envelope.hpp"
#include "verify/fault_plan.hpp"
#include "verify/scenario.hpp"
#include "verify/timeline.hpp"

using namespace recosim;

namespace {

struct ArchStats {
  std::string arch;
  int schedules = 0;
  double lint_ms = 0;        ///< total wall time of the envelope-on lint
  double feasible_ms = 0;    ///< total wall time of the pruning oracle
  std::uint64_t envelopes = 0;
  std::uint64_t diagnostics = 0;
  int infeasible = 0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

ArchStats bench_arch(fault::ChaosArch arch, int schedules) {
  ArchStats st;
  st.arch = fault::to_string(arch);
  st.schedules = schedules;

  for (int seed = 1; seed <= schedules; ++seed) {
    const auto schedule =
        fault::make_schedule(arch, static_cast<std::uint64_t>(seed));

    std::vector<verify::ResourceEnvelope> envelopes;
    verify::EnvelopeParams params;
    params.collect = &envelopes;

    auto t0 = std::chrono::steady_clock::now();
    verify::DiagnosticSink sink;
    fault::timeline_lint_schedule(schedule, sink, &params);
    st.lint_ms += ms_since(t0);
    st.envelopes += envelopes.size();
    st.diagnostics += sink.size();
  }

  // Oracle path: re-derive the scenario once and query feasibility under
  // progressively harsher synthetic fault plans (what a planner's search
  // loop looks like).
  const auto schedule = fault::make_schedule(arch, 1);
  verify::DiagnosticSink parse;
  for (int round = 0; round < schedules; ++round) {
    verify::FaultPlanDoc doc;
    std::ostringstream plan;
    // Fail buses from the unused end downwards, so shallow rounds stay
    // feasible and deep rounds hit the slot-carrying buses.
    for (int n = 0; n <= round % 4; ++n)
      plan << "fault fail_node " << 1000 * (n + 1) << " " << 3 - n << "\n"
           << "fault heal_node " << 1000 * (n + 1) + 500 << " " << 3 - n
           << "\n";
    verify::DiagnosticSink psink;
    doc = verify::parse_fault_plan(plan.str(), "bench.fplan", psink);

    // The chaos scenario itself is private to the harness; lint it via
    // the schedule, then time only the oracle on a plain scenario.
    std::ostringstream sc;
    sc << "arch buscom\nset buses 4\nmodule 1\nmodule 2\n"
          "slot 0 0 1\nslot 0 1 1\nslot 1 0 2\ndemand 1 100\n"
          "demand 2 50\n";
    auto s = verify::parse_scenario(sc.str(), "bench.rcs", parse);
    if (!s) continue;
    auto t0 = std::chrono::steady_clock::now();
    if (!verify::envelope_feasible(*s, &doc, verify::EnvelopeParams{}))
      ++st.infeasible;
    st.feasible_ms += ms_since(t0);
  }
  return st;
}

std::string to_json(const std::vector<ArchStats>& stats) {
  json::Writer w;
  w.begin_object().field("bench", "envelope").key("archs").begin_array();
  for (const auto& s : stats) {
    const double per_lint = s.schedules ? s.lint_ms / s.schedules : 0;
    const double per_oracle = s.schedules ? s.feasible_ms / s.schedules : 0;
    w.begin_object()
        .field("arch", s.arch)
        .field("schedules", s.schedules)
        .field("lint_ms_per_schedule", per_lint)
        .field("envelopes_per_schedule",
               s.schedules ? static_cast<double>(s.envelopes) / s.schedules
                           : 0)
        .field("diagnostics", s.diagnostics)
        .field("oracle_ms_per_call", per_oracle)
        .field("oracle_infeasible", s.infeasible)
        .end();
  }
  w.end().end();
  return w.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kSchedules = 50;
  std::vector<ArchStats> stats;
  for (fault::ChaosArch arch : fault::kAllChaosArchs)
    stats.push_back(bench_arch(arch, kSchedules));

  bench::write_trajectory(to_json(stats),
                          argc > 1 ? argv[1] : "BENCH_envelope.json");

  // Smoke criterion for CI: generated schedules lint without errors and
  // every schedule produced at least one envelope.
  for (const auto& s : stats)
    if (s.envelopes == 0) {
      std::cerr << s.arch << ": no envelopes collected\n";
      return 1;
    }
  return 0;
}
