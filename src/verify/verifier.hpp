#pragma once

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "verify/diagnostic.hpp"
#include "verify/scenario.hpp"

namespace recosim::core {
class CommArchitecture;
}

namespace recosim::verify {

struct EnvelopeParams;

/// Context of one timeline window handed to Verifier::timeline_step by
/// the timeline (src/verify/timeline.cpp): the abstract fabric state
/// projected onto a snapshot Scenario — live modules, their current
/// placements and the current slot table — plus the temporal extras a
/// snapshot cannot carry. The window's rules report without window
/// annotations; the timeline merges findings of adjacent windows and
/// fills the intervals in.
struct TimelineStep {
  const Scenario& snapshot;  ///< live modules / placements / slots only
  const Scenario& full;      ///< the original scenario (settings, source)
  long long window_begin = 0;
  long long window_end = -1;  ///< -1: extends to the end of the schedule
  const std::vector<Scenario::Channel>& channels;  ///< live channels
  const std::map<int, double>& demand;  ///< current epoch demand
  const std::set<std::pair<int, int>>& failed_nodes;
  const std::set<std::pair<int, int>>& failed_links;
  /// When set, the envelope pass (src/verify/envelope.hpp) runs after the
  /// architecture's temporal rules.
  const EnvelopeParams* envelope = nullptr;
};

/// Entry points of the static verification layer (rule catalogue:
/// docs/static-analysis.md). Two kinds of input share the rule ids:
///
///  * A declarative Scenario — checked without building any simulator
///    state; this is what recosim-lint runs and the only way to express
///    configurations the guarded runtime APIs would refuse outright.
///  * A live CommArchitecture — forwards to the architecture's own
///    verify_invariants() override, which can see private runtime state.
class Verifier {
 public:
  /// Run every check that applies to the scenario's architecture, plus
  /// the cross-cutting floorplan checks.
  static void check_all(const Scenario& s, DiagnosticSink& sink);

  /// Runtime state check of a live architecture (same rule ids; also run
  /// automatically after each reconfiguration in checked builds).
  static void check_all(const core::CommArchitecture& arch,
                        DiagnosticSink& sink);

  /// The cross-cutting floorplan checks alone (FLP001..FLP004).
  static void check_floorplan(const Scenario& s, DiagnosticSink& sink);

  /// Timeline-window pass: check_all on the window's snapshot, then the
  /// cross-event rules a snapshot cannot show — live-channel supply vs
  /// demand under the window's failed resources (TMP001/TMP004),
  /// per-epoch bandwidth feasibility (SCH001) — and the envelope pass.
  static void timeline_step(const TimelineStep& st, DiagnosticSink& sink);
};

}  // namespace recosim::verify
