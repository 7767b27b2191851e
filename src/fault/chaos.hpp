#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/types.hpp"
#include "verify/diagnostic.hpp"

namespace recosim::verify {
struct EnvelopeParams;
}

namespace recosim::fault {

/// Architectures the chaos harness can target.
enum class ChaosArch { kRmboc, kBuscom, kDynoc, kConochi };
const char* to_string(ChaosArch a);
std::optional<ChaosArch> parse_chaos_arch(const std::string& name);
inline constexpr ChaosArch kAllChaosArchs[] = {
    ChaosArch::kRmboc, ChaosArch::kBuscom, ChaosArch::kDynoc,
    ChaosArch::kConochi};

struct ReliableChannelConfig;
/// The reliable channel the chaos fixture of `arch` runs its traffic on:
/// the backends that deliver slower wait longer for an ACK.
ReliableChannelConfig chaos_channel_config(ChaosArch arch);

/// One reconfiguration request the schedule issues (as a ReconfigTxn).
struct ChaosOp {
  enum class Kind { kLoad, kSwap, kUnload, kLoadCompact };
  sim::Cycle at = 0;
  Kind kind = Kind::kLoad;
  std::uint32_t id = 0;      ///< module loaded / unloaded / swapped in
  std::uint32_t old_id = 0;  ///< swap victim (kSwap only)
  int w = 1;                 ///< module width in CLBs
  int h = 1;                 ///< module height in CLBs
};
const char* to_string(ChaosOp::Kind k);

/// A complete chaos scenario: one architecture, a fault plan and a
/// reconfiguration schedule, all derived from a single seed. Running the
/// same schedule twice is bit-for-bit identical, so any failure can be
/// replayed from its printed form.
struct ChaosSchedule {
  ChaosArch arch = ChaosArch::kRmboc;
  std::uint64_t seed = 0;
  sim::Cycle horizon = 30'000;  ///< cycle traffic and ops stop
  FaultPlan faults;
  std::vector<ChaosOp> ops;
};

/// Seed-derived random schedule: `num_ops` reconfiguration requests over
/// [0, 0.7 * horizon], hard faults valid for the architecture's fixed
/// chaos topology (every fail is healed before the horizon), and mild
/// stochastic packet/ICAP fault rates.
ChaosSchedule make_schedule(ChaosArch arch, std::uint64_t seed,
                            int num_ops = 8, sim::Cycle horizon = 30'000);

/// One end-to-end invariant breach found by run_schedule.
struct ChaosViolation {
  /// "duplicate-delivery", "lost-payload", "half-attached", "txn-stuck",
  /// "verify-error"; with recovery enabled also "unrecovered-incident"
  /// and "healed-region-unusable".
  std::string invariant;
  std::string detail;
};

struct ChaosRunOptions {
  /// Kernel quiescence tracking + idle-cycle fast-forward (bit-identical
  /// either way).
  bool activity_driven = true;
  /// Busy path (router gating and burst transfers; see
  /// Kernel::set_busy_path_enabled() and docs/performance.md) — also
  /// bit-identical either way, only wall-clock differs. `--no-busy-path` /
  /// the A/B property tests flip it off. Arena pooling is always on.
  bool busy_path = true;
  /// Run the self-healing layer (health::FailureDetector +
  /// health::RecoveryOrchestrator) alongside the schedule and enforce the
  /// recovery invariants: every confirmed failure reaches RECOVERED or
  /// DEGRADED-STABLE within recovery_bound cycles of confirmation,
  /// exactly-once delivery holds across evacuations, and a healed region
  /// is attachable again at the end of the run.
  bool recovery = false;
  /// Cycle budget from confirmation to resolution per incident.
  sim::Cycle recovery_bound = 50'000;
  /// Cooperative cancellation: when non-null and set (the simulation
  /// farm's wall-clock watchdog), run_schedule stops at the next cycle
  /// boundary and returns a result flagged with a "cancelled" violation.
  /// Results of cancelled runs are partial and never trustworthy.
  const std::atomic<bool>* cancel = nullptr;
};

struct ChaosResult {
  bool ok = true;
  std::vector<ChaosViolation> violations;
  std::uint64_t delivered = 0;      ///< unique payloads to the application
  std::uint64_t accepted = 0;       ///< payloads accepted by the channel
  std::uint64_t txns_committed = 0;
  std::uint64_t txns_rolled_back = 0;
  std::uint64_t forced_drains = 0;
  /// Worst accept-to-first-delivery latency over all delivered payloads,
  /// in cycles — what the envelope analyzer's worst-case latency bound is
  /// checked against under --lint-first.
  sim::Cycle max_delivery_latency = 0;
  sim::Cycle end_cycle = 0;
  // Recovery-mode accounting (all zero when recovery is off).
  std::uint64_t incidents = 0;
  std::uint64_t incidents_recovered = 0;
  std::uint64_t incidents_degraded_stable = 0;
  std::uint64_t evacuations = 0;
  /// Per-incident SLO export (health::RecoveryOrchestrator::slo_json).
  std::string slo_json;
};

/// Execute a schedule: build the architecture and its fixed chaos
/// topology, load two reliable-traffic endpoints, issue every op as a
/// quiesce/drain/rollback transaction while the fault plan runs, then
/// stop traffic, let the system settle and check the end-to-end
/// invariants — every accepted payload delivered exactly once or its flow
/// declared dead, no module half-attached (attached XOR placed), every
/// transaction terminal, no error-severity diagnostics from the
/// architecture's verifier.
///
/// `activity_driven` toggles the kernel's quiescence tracking and
/// idle-cycle fast-forward; results are bit-for-bit identical either way
/// (the cross-check the determinism tests and `--no-fast-forward` rely
/// on), only wall-clock differs.
///
/// With `options.recovery` the self-healing layer runs alongside: a
/// FailureDetector fed only from observable symptoms, and a
/// RecoveryOrchestrator escalating each confirmed failure through
/// retry -> re-route -> evacuate -> degrade. The recovery invariants are
/// then checked on top of the base ones.
ChaosResult run_schedule(const ChaosSchedule& schedule,
                         const ChaosRunOptions& options);
ChaosResult run_schedule(const ChaosSchedule& schedule,
                         bool activity_driven = true);

/// Statically lint a schedule before running it: build the declarative
/// scenario of the architecture's fixed chaos topology, translate the ops
/// into timed events and the fault plan into a fault-plan document, then
/// run the fault-plan checks and the timeline verifier over the whole
/// schedule (recosim-chaos --lint-first). Error-severity findings predict
/// a run that cannot stay clean — the harness skips those and asserts the
/// lint-clean rest actually pass at runtime.
void timeline_lint_schedule(const ChaosSchedule& schedule,
                            verify::DiagnosticSink& sink);
/// Same, with envelope parameters threaded into the timeline run —
/// `envelope->collect` then holds the per-window demand/capacity
/// envelopes of the schedule, which --lint-first checks the measured
/// runtime throughput and latency against.
void timeline_lint_schedule(const ChaosSchedule& schedule,
                            verify::DiagnosticSink& sink,
                            const verify::EnvelopeParams* envelope);

/// Greedy delta-debugging: starting from a failing schedule, repeatedly
/// drop ops and fault events and zero stochastic rates while the failure
/// reproduces, until a fixed point. Returns the (still failing) minimal
/// schedule; returns `schedule` unchanged if it does not fail. The
/// options-taking overload shrinks against the same run mode the failure
/// was found under (e.g. recovery invariants).
ChaosSchedule shrink_schedule(const ChaosSchedule& schedule,
                              const ChaosRunOptions& options);
ChaosSchedule shrink_schedule(const ChaosSchedule& schedule);

/// Generic shrink against an arbitrary failure predicate, optionally
/// seeded with hint windows (half-open cycle intervals, end < 0 meaning
/// "to the end") — typically the windows the timeline/envelope lint
/// flagged on the failing schedule. Before the greedy loop, one probe
/// drops every op and fault event irrelevant to the hinted windows (a
/// fault stays when its fail..heal span intersects a window); when that
/// candidate still fails, the greedy loop starts from the much smaller
/// schedule, saving most of its probes.
ChaosSchedule shrink_schedule(
    const ChaosSchedule& schedule,
    const std::function<bool(const ChaosSchedule&)>& fails,
    const std::vector<std::pair<long long, long long>>& hint_windows);

/// Line-oriented text form of a schedule (stable across versions the
/// parser accepts); parse_schedule is its exact inverse.
std::string serialize_schedule(const ChaosSchedule& schedule);
std::optional<ChaosSchedule> parse_schedule(const std::string& text,
                                            std::string* error = nullptr);

}  // namespace recosim::fault
