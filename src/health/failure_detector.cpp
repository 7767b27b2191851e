#include "health/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/kernel.hpp"
#include "verify/diagnostic.hpp"

namespace recosim::health {

namespace {

// The detector's fixed tuning (docs/self-healing.md).
/// Cycles between scoring polls (decay, threshold checks, counter and
/// invariant sampling). A prime keeps polls out of phase with the
/// power-of-two retransmission timeouts.
constexpr sim::Cycle kPollInterval = 257;
/// Score multiplier applied every poll; the half-life of evidence.
constexpr double kDecay = 0.7;
/// Score at which a subject becomes kSuspect.
constexpr double kSuspectThreshold = 2.0;
/// Score at which a subject is a confirmation candidate.
constexpr double kConfirmThreshold = 6.0;
/// Consecutive polls the score must hold >= kConfirmThreshold before
/// kConfirmed fires — the debounce that keeps one burst from flapping.
constexpr int kConfirmDebouncePolls = 2;
/// Consecutive symptom-free polls (with the score decayed back under
/// kSuspectThreshold) before a confirmed subject clears to kHealthy.
constexpr int kClearAfterPolls = 4;

// Symptom weights. Tuned so transient noise (a single bit flip, one lost
// packet, the send-reject burst of a routine quiesce) stays below
// kSuspectThreshold while a real failure's symptom mix — flow deaths plus
// standing dead flows plus invariant warnings — crosses kConfirmThreshold
// within a few polls.
constexpr double kWRetransmission = 1.0;      ///< per attempt beyond the 2nd
constexpr double kWRetransmissionMild = 0.2;  ///< a first (attempts==2) retry
constexpr double kWRetransmissionCap = 4.0;
constexpr double kWSendReject = 0.01;
constexpr double kWFlowDeath = 4.0;     ///< at the flow's dst; src gets half
constexpr double kWStandingDead = 1.5;  ///< per poll while a flow stays dead
constexpr double kWCrc = 0.5;           ///< per crc_dropped delta
constexpr double kWDrainEscalation = 3.0;
constexpr double kWVerifierWarning = 2.0;  ///< per warning, per poll

}  // namespace

std::string Subject::to_string() const {
  if (kind == Kind::kModule) return "module " + std::to_string(module);
  return resource;
}

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kConfirmed: return "confirmed";
  }
  return "?";
}

FailureDetector::FailureDetector(sim::Kernel& kernel,
                                 core::CommArchitecture& arch,
                                 std::string name)
    : sim::Component(kernel, std::move(name)), arch_(arch) {
  set_ff_pollable(true);
  next_poll_ = kernel.now() + kPollInterval;
}

void FailureDetector::note(const Subject& subject, double weight) {
  if (weight <= 0.0) return;
  Entry& e = entries_[subject];
  if (e.pending == 0.0 && e.score == 0.0 &&
      e.state == HealthState::kHealthy)
    e.first_symptom = kernel().now();
  e.pending += weight;
  stats_.counter("symptoms").add();
}

void FailureDetector::observe_channel_event(const fault::ChannelEvent& ev) {
  using Kind = fault::ChannelEvent::Kind;
  switch (ev.kind) {
    case Kind::kRetransmission: {
      // attempts == 2 is one lost packet — barely evidence. Consecutive
      // timeouts of the same packet (attempts >= 3) scale up: something
      // is persistently eating this flow's traffic.
      const double w =
          ev.attempts >= 3
              ? std::min(kWRetransmission *
                             static_cast<double>(ev.attempts - 2),
                         kWRetransmissionCap)
              : kWRetransmissionMild;
      note(Subject::of_module(ev.dst), w);
      note(Subject::of_module(ev.src), w * 0.5);
      break;
    }
    case Kind::kSendReject:
      // Rejects arrive in storms (a retry every few cycles against a
      // closed door), and routine quiesces cause them too — weigh each
      // one lightly and let the storm itself carry the signal.
      note(Subject::of_module(ev.dst), kWSendReject);
      note(Subject::of_module(ev.src), kWSendReject * 0.5);
      break;
    case Kind::kFlowDead:
      note(Subject::of_module(ev.dst), kWFlowDeath);
      note(Subject::of_module(ev.src), kWFlowDeath * 0.5);
      standing_dead_.insert({ev.src, ev.dst});
      break;
    case Kind::kFlowResurrected:
      standing_dead_.erase({ev.src, ev.dst});
      break;
  }
}

void FailureDetector::observe_drain_escalation(
    const std::vector<fpga::ModuleId>& modules) {
  for (fpga::ModuleId m : modules)
    note(Subject::of_module(m), kWDrainEscalation);
}

HealthState FailureDetector::state(const Subject& subject) const {
  auto it = entries_.find(subject);
  return it == entries_.end() ? HealthState::kHealthy : it->second.state;
}

double FailureDetector::score(const Subject& subject) const {
  auto it = entries_.find(subject);
  return it == entries_.end() ? 0.0 : it->second.score;
}

std::vector<Subject> FailureDetector::confirmed() const {
  std::vector<Subject> out;
  for (const auto& [s, e] : entries_)
    if (e.state == HealthState::kConfirmed) out.push_back(s);
  return out;
}

std::optional<sim::Cycle> FailureDetector::first_symptom_at(
    const Subject& subject) const {
  auto it = entries_.find(subject);
  if (it == entries_.end() || it->second.state == HealthState::kHealthy)
    return std::nullopt;
  return it->second.first_symptom;
}

std::optional<sim::Cycle> FailureDetector::confirmed_at(
    const Subject& subject) const {
  auto it = entries_.find(subject);
  if (it == entries_.end() || it->second.state != HealthState::kConfirmed)
    return std::nullopt;
  return it->second.became_confirmed;
}

void FailureDetector::eval() {
  if (kernel().now() < next_poll_) return;
  poll();
  next_poll_ = kernel().now() + kPollInterval;
}

void FailureDetector::poll() {
  const sim::Cycle now = kernel().now();
  stats_.counter("polls").add();

  // Standing conditions: a flow that stays dead keeps scoring against its
  // endpoints until someone resurrects it (or it really was transient and
  // the resurrection probe brings it back, clearing the condition).
  for (const auto& [src, dst] : standing_dead_) {
    note(Subject::of_module(dst), kWStandingDead);
    note(Subject::of_module(src), kWStandingDead * 0.5);
  }

  // CRC seal failures (comm_arch counts every dropped corrupt packet).
  const std::uint64_t crc = arch_.stats().counter_value("crc_dropped");
  if (crc > last_crc_dropped_) {
    note(Subject::of_resource("crc-seal"),
         kWCrc * static_cast<double>(crc - last_crc_dropped_));
    last_crc_dropped_ = crc;
  }

  // The architecture's own structural invariant checker: warnings name
  // either a module ("module N") or a fabric resource.
  verify::DiagnosticSink sink;
  arch_.verify_invariants(sink);
  for (const auto& d : sink.diagnostics()) {
    if (d.severity != verify::Severity::kWarning &&
        d.severity != verify::Severity::kError)
      continue;
    const std::string& obj = d.location.object;
    Subject subject;
    int id = 0;
    if (std::sscanf(obj.c_str(), "module %d", &id) == 1)
      subject = Subject::of_module(static_cast<fpga::ModuleId>(id));
    else
      subject = Subject::of_resource(d.rule + ":" + obj);
    note(subject, kWVerifierWarning);
  }

  // Decay, transitions, hooks.
  for (auto& [subject, e] : entries_) {
    const bool symptomatic = e.pending > 0.0;
    e.score = e.score * kDecay + e.pending;
    e.pending = 0.0;
    switch (e.state) {
      case HealthState::kHealthy:
        if (e.score >= kSuspectThreshold) {
          e.state = HealthState::kSuspect;
          e.polls_above_confirm = 0;
          stats_.counter("suspects").add();
        } else if (!symptomatic && e.score < 0.01) {
          e.score = 0.0;  // forgotten; next symptom starts a new episode
        }
        break;
      case HealthState::kSuspect:
        if (e.score >= kConfirmThreshold) {
          if (++e.polls_above_confirm >= kConfirmDebouncePolls) {
            e.state = HealthState::kConfirmed;
            e.became_confirmed = now;
            e.symptom_free_polls = 0;
            stats_.counter("confirms").add();
            for (const auto& hook : confirmed_hooks_) hook(subject, now);
          }
        } else {
          e.polls_above_confirm = 0;
          // Hysteresis: fall back only once the score decays well below
          // the suspect threshold, so a subject does not flap at the
          // boundary.
          if (e.score < kSuspectThreshold * 0.5)
            e.state = HealthState::kHealthy;
        }
        break;
      case HealthState::kConfirmed:
        if (symptomatic)
          e.symptom_free_polls = 0;
        else
          ++e.symptom_free_polls;
        if (e.symptom_free_polls >= kClearAfterPolls &&
            e.score < kSuspectThreshold) {
          e.state = HealthState::kHealthy;
          e.score = 0.0;
          e.polls_above_confirm = 0;
          e.symptom_free_polls = 0;
          stats_.counter("clears").add();
          for (const auto& hook : cleared_hooks_) hook(subject, now);
        }
        break;
    }
  }
}

}  // namespace recosim::health
