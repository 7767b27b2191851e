#pragma once

#include <string_view>

#include "verify/diagnostic.hpp"

namespace recosim::verify {

/// Registry entry of one lint rule. The default severity is what the
/// checkers emit in the common case; a few rules are downgraded when the
/// offending state was reached through legitimate fault injection (a
/// degraded-but-handled network is a warning, a state the public API can
/// never produce is an error).
struct RuleInfo {
  const char* id;
  const char* name;
  Severity default_severity;
  const char* paper;  ///< paper section motivating the rule
  const char* summary;
};

/// Every rule the verification layer can emit, grouped by prefix:
/// BUS (BUS-COM), RMB (RMBoC), DYN (DyNoC), CON (CoNoChi), FLP
/// (floorplan/fabric), SIM (kernel runtime checks), LNT (scenario files).
/// Details and rationale: docs/static-analysis.md.
inline constexpr RuleInfo kRules[] = {
    // BUS-COM (paper section 3.1, FlexRay-style TDMA)
    {"BUS001", "slot-owner-unattached", Severity::kError, "3.1",
     "a static TDMA slot is owned by a module that is not attached"},
    {"BUS002", "slot-conflict", Severity::kError, "3.1",
     "the same (bus, slot) is assigned to two different owners"},
    {"BUS003", "slots-exceed-flexray", Severity::kError, "3.1",
     "slots_per_round exceeds the 32-slot FlexRay round of the prototype"},
    {"BUS004", "no-static-slot", Severity::kWarning, "3.1",
     "an attached module owns no static slot on any bus (no guaranteed "
     "bandwidth; dynamic slots only)"},
    {"BUS005", "bandwidth-infeasible", Severity::kError, "3.1",
     "a module's declared bytes-per-round demand exceeds what its static "
     "slots can carry"},
    {"BUS006", "config-out-of-range", Severity::kError, "3.1",
     "BUS-COM configuration value outside its valid range (bus/slot "
     "index, dynamic_fraction, widths)"},

    // RMBoC (paper section 3.1, segmented multi-bus, d_max = s*k)
    {"RMB001", "lane-out-of-range", Severity::kError, "3.1",
     "a reserved or requested bus lane index lies outside [0, k)"},
    {"RMB002", "orphaned-circuit", Severity::kError, "3.1",
     "a channel endpoint slot has no attached module"},
    {"RMB003", "segment-oversubscribed", Severity::kError, "4.2",
     "more circuits cross one bus segment than it has bus lanes (demand "
     "exceeds the segment's share of d_max = s*k)"},
    {"RMB004", "crosspoint-inconsistent", Severity::kError, "3.1",
     "the segment reservation table and the channel lane lists disagree"},
    {"RMB005", "lanes-exceed-buses", Severity::kWarning, "4.3",
     "a channel requests more parallel lanes than there are buses; the "
     "request will be silently clamped"},
    {"RMB006", "slot-out-of-range", Severity::kError, "3.1",
     "a module or channel references a slot outside [0, m)"},

    // DyNoC (paper section 3.2, S-XY routing over a router mesh)
    {"DYN001", "module-on-border", Severity::kError, "3.2",
     "a module placement (with its one-tile router ring) does not fit "
     "inside the array; S-XY cannot surround it"},
    {"DYN002", "surround-violated", Severity::kError, "3.2",
     "a module is not fully ringed by routers (overlap with another "
     "module or a removed router not explained by an injected fault)"},
    {"DYN003", "unreachable-pair", Severity::kError, "3.2",
     "two placed modules have no path of active routers between them "
     "(S-XY trap in the obstacle graph)"},
    {"DYN004", "access-router-inactive", Severity::kWarning, "3.2",
     "a module's access router is not active; the module is isolated "
     "until healed"},
    {"DYN005", "module-too-large", Severity::kError, "3.2",
     "a module (plus ring) can never fit the configured array"},

    // CoNoChi (paper section 3.2, runtime-reconfigurable switch grid)
    {"CON001", "table-loop", Severity::kError, "3.2",
     "walking the routing tables towards a destination revisits a switch"},
    {"CON002", "address-unreachable", Severity::kError, "3.2",
     "an attached module's switch is unreachable from another attached "
     "module's switch"},
    {"CON003", "dangling-physical", Severity::kError, "3.2",
     "a routing-table entry points at a disconnected port or an inactive "
     "switch (stale table after a retype)"},
    {"CON004", "dangling-redirect", Severity::kError, "4.2",
     "a redirection entry forwards to an unknown or inactive switch, or "
     "redirects form a cycle"},
    {"CON005", "stale-resolution", Severity::kNote, "4.2",
     "a sender-side logical->physical mapping disagrees with the module's "
     "attachment and no redirect covers the gap (transient after a move)"},
    {"CON006", "topology-inconsistent", Severity::kError, "3.2",
     "grid/switch bookkeeping disagrees (wire run not ending on a switch, "
     "duplicate switch, port double-booked, link asymmetry)"},

    // Floorplan / fabric (paper sections 3, 4.1)
    {"FLP001", "module-overlap", Severity::kError, "4.1",
     "two placed modules claim the same fabric tiles"},
    {"FLP002", "region-out-of-bounds", Severity::kError, "4.1",
     "a placement or ICAP write region leaves the device"},
    {"FLP003", "column-shared", Severity::kWarning, "3",
     "on a full-column device (Virtex-II), reconfiguring one module would "
     "disturb configuration columns occupied by another"},
    {"FLP004", "bus-macro-misaligned", Severity::kNote, "3.1",
     "a module port width is not a multiple of the 8-bit bus-macro width; "
     "the last macro's slices are wasted"},

    // Simulation-kernel runtime checks (RECOSIM_CHECK)
    {"SIM001", "event-time-regression", Severity::kError, "-",
     "an event was scheduled at, or the queue fired for, a cycle earlier "
     "than one already executed"},
    {"SIM003", "false-quiescence", Severity::kError, "-",
     "a component skipped by the activity-driven scheduler reported "
     "is_quiescent() == false (it went or stayed asleep with work left)"},

    // Scenario / lint driver
    {"LNT001", "parse-error", Severity::kError, "-",
     "a scenario file line could not be parsed"},
    {"LNT002", "invalid-reference", Severity::kError, "-",
     "a scenario directive references an undeclared module/switch or is "
     "not valid for the selected architecture"},

    // Timeline verifier — temporal rules over the event schedule of a
    // scenario (recosim-lint --timeline, src/verify/timeline.cpp).
    {"TMP001", "channel-endpoint-dead", Severity::kWarning, "4.2",
     "a channel is open during a window in which a fault has its "
     "endpoint's access resource (slot, router, switch, all buses) dead; "
     "traffic can only stall until the heal"},
    {"TMP002", "lifecycle-violation", Severity::kWarning, "-",
     "a scheduled event targets a module or channel in the wrong "
     "lifecycle state (load while loaded, unload/swap of a module that is "
     "not loaded, close of a channel never opened); the runtime turns it "
     "into a rolled-back bad request"},
    {"TMP003", "occupancy-interval-overlap", Severity::kError, "4.1",
     "two reconfigurable regions overlap and their owners' lifetime "
     "intervals intersect; time-multiplexing the same fabric area is only "
     "legal when the lifetimes are disjoint"},
    {"TMP004", "dmax-window-exceeded", Severity::kError, "4.2",
     "within some window the live circuits demand more lanes across a bus "
     "segment than it supplies (d_max = s*k, minus faulted lanes)"},
    {"TMP005", "channel-outlives-endpoint", Severity::kWarning, "-",
     "a module is unloaded or swapped away while a channel to it is still "
     "open; the drain must tear the circuit down"},

    // Schedule feasibility (timeline verifier, cross-event)
    {"SCH001", "epoch-bandwidth-infeasible", Severity::kError, "3.1",
     "during some traffic epoch a module's declared bytes-per-round "
     "demand exceeds what its static TDMA slots carry in that window"},
    {"SCH002", "transient-invariant-break", Severity::kError, "3.2",
     "an intermediate placement state breaks a DyNoC invariant (ring, "
     "border, reachability) even though the schedule's initial and final "
     "states are clean; the schedule cannot be executed in this order"},
    {"SCH003", "drain-overrun-predictable", Severity::kWarning, "4.2",
     "a swap/unload is scheduled while a live channel's drain path is "
     "failed for the whole drain-timeout budget; the transaction can only "
     "end in a watchdog-forced drain"},

    // Envelope analysis (timeline verifier, src/verify/envelope.cpp):
    // per-window [min,max] demand vs capacity envelopes per shared
    // resource, capacity shrinking under the active fault plan. The
    // error/warning split follows the severity discipline: guaranteed
    // (min) demand that cannot be carried is an error, worst-case (max)
    // demand that merely might not be is a warning.
    {"ENV001", "bandwidth-envelope-violation", Severity::kError, "4.2",
     "within some window the worst-case demand on a shared resource "
     "exceeds its fault-free capacity; no fault is needed to starve it"},
    {"ENV002", "latency-bound-exceeded", Severity::kError, "4.3",
     "the worst-case hop/slot-wait latency of a flow exceeds its "
     "scenario-declared deadline in some window (or is unbounded because "
     "no live path or slot exists)"},
    {"ENV003", "degraded-capacity-infeasible", Severity::kError, "4.2",
     "the schedule is feasible fault-free but the fault plan's worst "
     "window shrinks a resource's capacity below the demand"},
    {"ENV004", "headroom-below-threshold", Severity::kWarning, "4.2",
     "the capacity headroom left on a shared resource under the window's "
     "faults is below the --headroom threshold"},

    // Fault plans (.fplan files checked against a scenario's topology)
    {"FLT001", "heal-without-fail", Severity::kError, "4.2",
     "a heal event has no matching earlier failure of the same resource; "
     "the runtime hook would refuse it"},
    {"FLT002", "unknown-resource", Severity::kError, "4.2",
     "a fault event names a node or link the scenario's topology does not "
     "have (or a fault kind the architecture does not support)"},
    {"FLT003", "total-blackout", Severity::kError, "4.2",
     "at some instant every bus/switch is failed simultaneously; no "
     "graceful degradation is possible and the run can only time out"},
    {"FLT004", "rate-out-of-range", Severity::kError, "-",
     "a stochastic injection rate lies outside [0, 1]"},
    {"FLT005", "no-evacuation-target", Severity::kWarning, "4.2",
     "a failure strands a live module with no region it could be "
     "evacuated to (every alternative slot/placement/switch is failed or "
     "occupied); recovery can only degrade, never relocate"},

    // Source-level invariants of the simulator's own C++ code
    // (recosim-tidy, src/tidy/ — docs/static-analysis.md "Layer 3").
    // These encode conventions the runtime layers rely on but the type
    // system cannot see: bit-identical digests, kernel-callback lifetime,
    // the activity protocol.
    {"RCD001", "unordered-iteration", Severity::kError, "-",
     "iteration over a std::unordered_ container on a deterministic path; "
     "traversal order varies across runs and breaks byte-identical "
     "results"},
    {"RCD002", "ambient-entropy", Severity::kError, "-",
     "wall-clock time or unseeded randomness (rand, random_device, "
     "steady_clock, ...) outside bench/ and the farm's watchdog; runs "
     "stop being reproducible"},
    {"RCD003", "unanchored-kernel-callback", Severity::kError, "-",
     "a lambda capturing `this` is scheduled on the kernel event queue "
     "without a CallbackAnchor wrap; it dangles if its owner dies before "
     "the event fires"},
    {"RCD004", "activity-protocol-missing", Severity::kWarning, "-",
     "a sim::Component (or CommArchitecture) subclass overrides eval() but "
     "never engages the activity protocol (set_active / is_quiescent / "
     "set_ff_pollable), blocking idle fast-forward"},
    {"RCD005", "pointer-keyed-ordering", Severity::kError, "-",
     "an ordered container or comparator keyed on raw pointer values; "
     "address order changes with the allocation layout, so derived "
     "behaviour is nondeterministic"},
    {"RCD006", "mutator-without-wake", Severity::kWarning, "-",
     "an architecture mutator (runs debug_check_invariants()) never calls "
     "wake_network(), so work it enables can strand in a sleeping network "
     "component"},
    {"RCD007", "unjustified-suppression", Severity::kWarning, "-",
     "a recosim-tidy allow() annotation carries no justification; it "
     "suppresses nothing until it says why the invariant does not apply"},
};

inline const RuleInfo* find_rule(std::string_view id) {
  for (const auto& r : kRules)
    if (id == r.id) return &r;
  return nullptr;
}

}  // namespace recosim::verify
