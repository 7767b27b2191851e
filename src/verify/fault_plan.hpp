#pragma once

#include <cstddef>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "verify/diagnostic.hpp"
#include "verify/line_reader.hpp"
#include "verify/scenario.hpp"
#include "verify/topology.hpp"

namespace recosim::verify {

/// A fault-injection plan as the FLT rules check it: the runtime's
/// fault::FaultPlan plus where each part of it was written. Its text form
/// (.fplan) is the `fault` / `rate` subset of the chaos-schedule format,
/// so a shrunk reproducing schedule lints as-is (grammar and coordinate
/// meanings: docs/static-analysis.md).
struct FaultPlanDoc {
  std::string source;  ///< file name (diagnostics location)
  fault::FaultPlan plan;

  /// Where an event or a rate was written: its line and the column of its
  /// directive. A plan built in code has none; its findings point at
  /// line 0:1.
  struct Pos {
    int line = 0;
    int column = 1;
  };
  std::vector<Pos> event_pos;  ///< parallel to plan.scheduled
  /// Per fault::kRateNames entry, the last line that set the rate.
  Pos rate_pos[std::size(fault::kRateNames)];
};

/// The `fault` and `rate` directives, written once for .fplan files and
/// chaos-schedule replay files; each adds what it reads to `doc` (a later
/// `rate` line of a name overrides an earlier one).
Directive fault_directive(FaultPlanDoc& doc);
Directive rate_directive(FaultPlanDoc& doc);

/// Parse a fault plan from text. Malformed lines are reported as LNT001
/// at their line:column; parsing continues so one bad line does not hide
/// the rest. Lines recognised by the chaos-schedule format but irrelevant
/// to fault checking (arch, seed, horizon, op) are skipped silently.
FaultPlanDoc parse_fault_plan(const std::string& text,
                              const std::string& source_name,
                              DiagnosticSink& sink);

/// Parse a fault plan file; reports LNT001 and returns nullopt when the
/// file cannot be read.
std::optional<FaultPlanDoc> parse_fault_plan_file(const std::string& path,
                                                  DiagnosticSink& sink);

/// Run the FLT rules over a plan. `topology` supplies the architecture
/// and resource bounds; when null, only the topology-independent checks
/// run (FLT001 heal ordering, FLT004 rate ranges).
void check_fault_plan(const FaultPlanDoc& doc, const Scenario* topology,
                      DiagnosticSink& sink);

/// FLT005 core, shared between the static plan walk and the timeline
/// verifier: with `failed_nodes` down, does the module placed in the
/// scenario `topo` models still have somewhere it could be evacuated to?
/// Returns the explanation when its own region is failed and every
/// alternative (slot, placement position, switch port) is failed or
/// occupied; empty when the module is unplaced, unaffected, or a target
/// exists. BUS-COM has no placement regions, so it never fires there.
std::string no_evacuation_target(const Topology& topo, int module_id,
                                 const FailedSet& failed_nodes);

}  // namespace recosim::verify
