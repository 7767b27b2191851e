#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/comm_arch.hpp"
#include "core/reconfig_manager.hpp"
#include "core/reconfig_txn.hpp"
#include "fault/reliable_channel.hpp"
#include "sim/anchor.hpp"
#include "sim/component.hpp"
#include "sim/stats.hpp"

// The self-healing layer: online failure detection from observable
// symptoms and policy-driven recovery orchestration with bounded-time
// escalation (docs/self-healing.md).
//
// Plan-blindness is a design invariant of this layer: nothing in
// src/health/ may look at fault::FaultInjector, its FaultPlan, or any
// other ground-truth fault source. The detector works exclusively from
// what a deployed system could observe about itself — transport symptoms
// (fault::ChannelEvent), drain-watchdog escalations, CRC-seal drop
// counters, and the architecture's own invariant checker.

namespace recosim::health {

/// What the detector tracks health for: a module endpoint, or a named
/// fabric resource (e.g. the CRC seal, or a verifier finding's object).
struct Subject {
  enum class Kind { kModule, kResource };
  Kind kind = Kind::kModule;
  fpga::ModuleId module = fpga::kInvalidModule;
  std::string resource;

  static Subject of_module(fpga::ModuleId m) {
    Subject s;
    s.kind = Kind::kModule;
    s.module = m;
    return s;
  }
  static Subject of_resource(std::string name) {
    Subject s;
    s.kind = Kind::kResource;
    s.resource = std::move(name);
    return s;
  }
  std::string to_string() const;

  bool operator<(const Subject& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (kind == Kind::kModule) return module < o.module;
    return resource < o.resource;
  }
  bool operator==(const Subject& o) const {
    return kind == o.kind &&
           (kind == Kind::kModule ? module == o.module
                                  : resource == o.resource);
  }
};

/// Suspect -> confirmed ladder with hysteresis (docs/self-healing.md).
enum class HealthState { kHealthy, kSuspect, kConfirmed };
const char* to_string(HealthState s);

struct DetectorConfig {
  /// Cycles between scoring polls (decay, threshold checks, counter and
  /// invariant sampling). A prime keeps polls out of phase with the
  /// power-of-two retransmission timeouts.
  sim::Cycle poll_interval = 257;
  /// Score multiplier applied every poll; the half-life of evidence.
  double decay = 0.7;
  /// Score at which a subject becomes kSuspect.
  double suspect_threshold = 2.0;
  /// Score at which a subject is a confirmation candidate.
  double confirm_threshold = 6.0;
  /// Consecutive polls the score must hold >= confirm_threshold before
  /// kConfirmed fires — the debounce that keeps one burst from flapping.
  int confirm_debounce_polls = 2;
  /// Consecutive symptom-free polls (with the score decayed back under
  /// suspect_threshold) before a confirmed subject clears to kHealthy.
  int clear_after_polls = 4;

  // Symptom weights. Tuned so transient noise (a single bit flip, one
  // lost packet, the send-reject burst of a routine quiesce) stays below
  // suspect_threshold while a real failure's symptom mix — flow deaths
  // plus standing dead flows plus invariant warnings — crosses
  // confirm_threshold within a few polls.
  double w_retransmission = 1.0;   ///< per attempt beyond the second
  double w_retransmission_mild = 0.2;  ///< a first (attempts==2) retry
  double w_retransmission_cap = 4.0;
  double w_send_reject = 0.01;
  double w_flow_death = 4.0;       ///< at the flow's dst; src gets half
  double w_standing_dead = 1.5;    ///< per poll while a flow stays dead
  double w_crc = 0.5;              ///< per crc_dropped delta
  double w_drain_escalation = 3.0;
  double w_verifier_warning = 2.0;  ///< per warning, per poll
};

/// Per-module / per-resource health accounting fed from observable
/// symptoms only. Wire it up with ReliableChannel::set_event_hook ->
/// observe_channel_event and TxnConfig::on_drain_escalation ->
/// observe_drain_escalation; CRC-seal drops and verify_invariants()
/// warnings are sampled from the architecture directly at every poll.
class FailureDetector final : public sim::Component {
 public:
  using SubjectHook = std::function<void(const Subject&, sim::Cycle)>;

  FailureDetector(sim::Kernel& kernel, core::CommArchitecture& arch,
                  DetectorConfig cfg = {},
                  std::string name = "failure_detector");

  // -- symptom inputs --------------------------------------------------------

  void observe_channel_event(const fault::ChannelEvent& ev);
  void observe_drain_escalation(const std::vector<fpga::ModuleId>& modules);
  /// Generic escape hatch for additional observable symptom sources.
  void observe_symptom(const Subject& subject, double weight);

  // -- state -----------------------------------------------------------------

  HealthState state(const Subject& subject) const;
  HealthState module_state(fpga::ModuleId m) const {
    return state(Subject::of_module(m));
  }
  std::vector<Subject> confirmed() const;
  double score(const Subject& subject) const;
  /// Cycle of the first symptom of the current episode (reset on clear).
  std::optional<sim::Cycle> first_symptom_at(const Subject& subject) const;
  std::optional<sim::Cycle> suspect_at(const Subject& subject) const;
  std::optional<sim::Cycle> confirmed_at(const Subject& subject) const;

  /// Hooks fire inside the detector's eval, in subscription order.
  void add_confirmed_hook(SubjectHook hook) {
    confirmed_hooks_.push_back(std::move(hook));
  }
  void add_cleared_hook(SubjectHook hook) {
    cleared_hooks_.push_back(std::move(hook));
  }

  /// Counters: "symptoms", "suspects", "confirms", "clears", "polls".
  const sim::StatSet& stats() const { return stats_; }

  // -- Component -------------------------------------------------------------

  // A pure timer between polls: it never blocks idle fast-forward and
  // bounds jumps by the next poll.
  void eval() override;
  bool is_quiescent() const override { return kernel().now() < next_poll_; }
  sim::Cycle quiescent_deadline() const override { return next_poll_; }

 private:
  struct Entry {
    double score = 0.0;
    double pending = 0.0;  ///< contributions since the last poll
    HealthState state = HealthState::kHealthy;
    int polls_above_confirm = 0;
    int symptom_free_polls = 0;
    sim::Cycle first_symptom = 0;
    sim::Cycle became_suspect = 0;
    sim::Cycle became_confirmed = 0;
  };

  void note(const Subject& subject, double weight);
  void poll();

  core::CommArchitecture& arch_;
  DetectorConfig cfg_;
  sim::Cycle next_poll_;
  std::map<Subject, Entry> entries_;
  /// Flows currently dead (kFlowDead seen, no kFlowResurrected yet);
  /// each contributes a standing per-poll symptom to its endpoints.
  std::set<std::pair<fpga::ModuleId, fpga::ModuleId>> standing_dead_;
  std::uint64_t last_crc_dropped_ = 0;
  std::vector<SubjectHook> confirmed_hooks_;
  std::vector<SubjectHook> cleared_hooks_;
  sim::StatSet stats_;
};

/// Escalation ladder rungs, in order. Every confirmed failure starts at
/// kRetryWait (the transport's own retry/backoff is already running) and
/// climbs on deadline overrun.
enum class Rung { kRetryWait, kRerouting, kEvacuating, kDegraded };
const char* to_string(Rung r);

enum class IncidentOutcome { kOpen, kRecovered, kDegradedStable };
const char* to_string(IncidentOutcome o);

/// One confirmed failure and everything done about it — the unit of SLO
/// accounting.
struct Incident {
  std::uint64_t id = 0;
  Subject subject;
  sim::Cycle first_symptom_at = 0;
  sim::Cycle confirmed_at = 0;
  sim::Cycle resolved_at = 0;
  IncidentOutcome outcome = IncidentOutcome::kOpen;
  Rung rung = Rung::kRetryWait;
  int rungs_climbed = 0;
  bool evacuated = false;   ///< an evacuation transaction committed
  bool healed = false;      ///< the detector cleared the subject
  /// rc "unrecoverable" growth over the incident: parked-packet episodes
  /// (each probe that re-kills counts again; see docs/self-healing.md).
  std::uint64_t packets_lost = 0;
  std::uint64_t unrecoverable_at_open = 0;  // internal baseline
  sim::Cycle rung_started = 0;
  sim::Cycle last_probe = 0;
};

struct OrchestratorConfig {
  sim::Cycle poll_interval = 127;
  /// Rung 0: leave the incident to the transport's retry/backoff.
  sim::Cycle retry_grace = 2'048;
  /// Rung 1: after replan_paths() + resurrection, time for traffic to
  /// recover before escalating.
  sim::Cycle reroute_deadline = 4'096;
  /// Rung 2: evacuation transactions (unload + reload) must finish and
  /// show recovery within this bound.
  sim::Cycle evac_deadline = 16'384;
  /// Rung 3: dwell with traffic shed before declaring DEGRADED-STABLE.
  sim::Cycle degrade_settle = 4'096;
  /// While an incident is unresolved (or degraded-stable but unhealed),
  /// periodically re-plan paths and resurrect dead flows: if the fabric
  /// healed, the probe traffic delivers, the symptoms stop and the
  /// detector clears; if not, the probe re-parks and costs nothing more.
  sim::Cycle probe_interval = 4'096;
  /// Transaction policy for evacuations.
  core::TxnConfig evac_txn;
};

/// Policy-driven recovery: listens to a FailureDetector and walks each
/// confirmed failure up the ladder retry -> re-route -> evacuate ->
/// degrade, each rung bounded by a deadline, resurrecting ReliableChannel
/// flows when a resource comes back. Exposes per-incident SLO data.
///
/// `rc` and `mgr` may be null: without a channel the resurrection and
/// shedding rungs become no-ops, without a manager evacuation is skipped
/// (straight to degraded mode). Modules not resident in the manager
/// (attached directly) cannot be evacuated either.
class RecoveryOrchestrator final : public sim::Component {
 public:
  RecoveryOrchestrator(sim::Kernel& kernel, core::CommArchitecture& arch,
                       FailureDetector& detector,
                       fault::ReliableChannel* rc, core::ReconfigManager* mgr,
                       OrchestratorConfig cfg = {},
                       std::string name = "recovery_orchestrator");
  ~RecoveryOrchestrator() override;

  const std::vector<Incident>& incidents() const { return incidents_; }
  std::size_t open_incidents() const;
  /// True when no incident is open and no evacuation transaction is live.
  bool idle() const;
  /// Modules currently load-shed by degraded-mode admission control.
  const std::set<fpga::ModuleId>& shed_modules() const { return shed_; }

  /// Per-incident SLO export (docs/self-healing.md lists the schema):
  /// {"incidents": [...], "summary": {...}} with time-to-detect measured
  /// from the first observable symptom and time-to-recover from
  /// confirmation to resolution.
  std::string slo_json() const;

  /// Counters: "incidents_opened", "incidents_recovered",
  /// "incidents_degraded_stable", "reroutes", "evacuations",
  /// "evacuations_failed", "degraded", "probes", "resurrections".
  const sim::StatSet& stats() const { return stats_; }

  // -- Component -------------------------------------------------------------

  void eval() override;
  bool is_quiescent() const override;
  sim::Cycle quiescent_deadline() const override;

 private:
  struct Evacuation {
    std::uint64_t incident_id = 0;
    fpga::ModuleId module = fpga::kInvalidModule;
    fpga::HardwareModule descriptor;
    std::unique_ptr<core::ReconfigTxn> unload;
    std::unique_ptr<core::ReconfigTxn> reload;
    bool unload_requested = false;
    bool reload_requested = false;
    bool finished = false;
  };

  void on_confirmed(const Subject& subject, sim::Cycle at);
  void on_cleared(const Subject& subject, sim::Cycle at);
  Incident* find_open(const Subject& subject);
  void escalate(Incident& inc);
  void enter_reroute(Incident& inc);
  void enter_evacuation(Incident& inc);
  void enter_degraded(Incident& inc);
  void resolve(Incident& inc, IncidentOutcome outcome);
  void probe(Incident& inc);
  std::size_t resurrect_for(const Subject& subject);
  void pump_evacuations();
  /// Open incident, live evacuation, or an unhealed degraded-stable
  /// subject still being probed.
  bool needs_attention() const;
  /// Queue a transaction request; construction happens via a scheduled
  /// kernel event (transactions must not be built mid-evaluation).
  void request_txn(std::unique_ptr<core::ReconfigTxn>& slot,
                   core::TxnRequest req);

  core::CommArchitecture& arch_;
  FailureDetector& detector_;
  fault::ReliableChannel* rc_;
  core::ReconfigManager* mgr_;
  OrchestratorConfig cfg_;
  sim::Cycle next_poll_;
  std::vector<Incident> incidents_;
  std::vector<std::unique_ptr<Evacuation>> evacuations_;
  std::set<fpga::ModuleId> shed_;
  std::uint64_t next_incident_id_ = 1;
  sim::StatSet stats_;
  /// Last member so it dies first: kernel events scheduled by request_txn
  /// must degrade to no-ops once the orchestrator is gone.
  sim::CallbackAnchor anchor_;
};

/// p in [0, 1] percentile of `values` (nearest-rank); 0 when empty.
double percentile(std::vector<double> values, double p);

}  // namespace recosim::health
