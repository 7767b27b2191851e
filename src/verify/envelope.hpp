#pragma once

#include <string>
#include <vector>

#include "verify/diagnostic.hpp"

namespace recosim::verify {

struct TimelineStep;
struct Scenario;
struct FaultPlanDoc;
class Topology;

/// The [min,max] demand and capacity envelope of one shared resource in
/// one timeline window. Demand min is what the schedule guarantees will
/// be asked (declared epoch demand, clamped circuit lanes); demand max is
/// the worst case (requested lanes before clamping, one slot payload of
/// allowance per unbudgeted channel). Capacity max is the fault-free
/// supply; capacity min is what the window's failed nodes/links/buses
/// leave up — heals restore it in the next window.
struct ResourceEnvelope {
  std::string resource;  ///< "round", "module 3", "segment 1", "flow 1->2"
  long long window_begin = 0;
  long long window_end = -1;  ///< -1: extends to the end of the schedule
  double demand_min = 0;
  double demand_max = 0;
  double capacity_min = 0;
  double capacity_max = 0;
};

/// Knobs of the envelope pass (recosim-lint --envelope / --headroom).
struct EnvelopeParams {
  /// ENV004 fires when (capacity_min - demand_max) / capacity_min * 100
  /// drops below this percentage on a demanded resource; negative
  /// disables the rule (the default — headroom is a policy, not a law).
  double headroom_pct = -1.0;
  /// When set, every envelope computed is appended here (with its window
  /// bounds) — the introspection hook tests, benches and the chaos
  /// agreement sweep use.
  std::vector<ResourceEnvelope>* collect = nullptr;
};

/// The envelope pass of one timeline window over `topo`, the model of
/// the window's snapshot; Verifier::timeline_step runs it when the step
/// carries EnvelopeParams. Like every timeline hook it must not mention
/// window bounds in messages — the timeline merges adjacent-window
/// findings into intervals.
///
/// Rules emitted (registry: rules.hpp, catalogue: docs/static-analysis.md):
///   ENV001  demand_max > capacity_max   (error if demand_min exceeds too)
///   ENV003  demand_max > capacity_min <= capacity_max  (degraded only;
///           error when the guaranteed demand_min is what no longer fits)
///   ENV004  headroom under faults below params.headroom_pct (warning)
///   ENV002  per declared deadline: worst-case flow latency in the window
///           (slot wait, hops, contention, fault detours) above the bound
void envelope_step(const TimelineStep& st, const Topology& topo,
                   DiagnosticSink& sink);

/// Static feasibility oracle for design-space exploration: run the full
/// timeline (snapshot rules, temporal rules, envelopes) over the scenario
/// and plan, and return true iff no error-severity finding comes out — a
/// point recosim-explore can skip simulating. `params.collect` is
/// honoured, so one call can also return the envelope trace.
bool envelope_feasible(const Scenario& s, const FaultPlanDoc* plan,
                       const EnvelopeParams& params);

}  // namespace recosim::verify
