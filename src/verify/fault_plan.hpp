#pragma once

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "verify/diagnostic.hpp"
#include "verify/scenario.hpp"
#include "verify/topology.hpp"

namespace recosim::verify {

/// Declarative description of a fault-injection plan, checkable before a
/// run. The format is the `fault` / `rate` subset of the chaos-schedule
/// format (tools/recosim-chaos emits it when shrinking a failure), so a
/// shrunk reproducing schedule lints as-is:
///
///   # comment
///   fault fail_node 1000 3 3     # kind, cycle, coordinates a [b]
///   fault heal_node 2000 3 3
///   fault fail_link 500 1 2      # RMBoC: segment, bus
///   fault abort_icap 750         # no coordinates
///   rate bit_flip 0.01           # bit_flip | drop | icap_abort, in [0,1]
///
/// Coordinate meaning per architecture (see CommArchitecture fault hooks):
/// BUS-COM node = bus index; RMBoC node = cross-point slot, link =
/// (segment, bus); DyNoC node = router (x, y); CoNoChi node = switch
/// position (x, y). Only RMBoC has link faults.
struct FaultPlanDoc {
  std::string source;  ///< file name (diagnostics location)

  enum class Kind { kNodeFail, kNodeHeal, kLinkFail, kLinkHeal, kIcapAbort };

  struct Event {
    int line = 0;    ///< source position (diagnostics location)
    int column = 1;
    long long at = 0;
    Kind kind = Kind::kNodeFail;
    int a = 0;
    int b = 0;
  };
  std::vector<Event> events;

  struct Rate {
    int line = 0;
    int column = 1;
    std::string name;  ///< bit_flip | drop | icap_abort
    double value = 0;
  };
  std::vector<Rate> rates;
};

const char* to_string(FaultPlanDoc::Kind k);

/// Parse a fault plan from text. Malformed lines are reported as LNT001
/// with the line number; parsing continues so one bad line does not hide
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
void check_fault_plan(const FaultPlanDoc& plan, const Scenario* topology,
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
