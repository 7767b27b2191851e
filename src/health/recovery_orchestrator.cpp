#include <algorithm>
#include <cmath>
#include <utility>

#include "health/health.hpp"
#include "json/json.hpp"
#include "sim/kernel.hpp"

namespace recosim::health {

const char* to_string(Rung r) {
  switch (r) {
    case Rung::kRetryWait: return "retry-wait";
    case Rung::kRerouting: return "rerouting";
    case Rung::kEvacuating: return "evacuating";
    case Rung::kDegraded: return "degraded";
  }
  return "?";
}

const char* to_string(IncidentOutcome o) {
  switch (o) {
    case IncidentOutcome::kOpen: return "open";
    case IncidentOutcome::kRecovered: return "recovered";
    case IncidentOutcome::kDegradedStable: return "degraded-stable";
  }
  return "?";
}

RecoveryOrchestrator::RecoveryOrchestrator(
    sim::Kernel& kernel, core::CommArchitecture& arch,
    FailureDetector& detector, fault::ReliableChannel* rc,
    core::ReconfigManager* mgr, OrchestratorConfig cfg, std::string name)
    : sim::Component(kernel, std::move(name)),
      arch_(arch),
      detector_(detector),
      rc_(rc),
      mgr_(mgr),
      cfg_(cfg) {
  set_ff_pollable(true);
  next_poll_ = kernel.now() + cfg_.poll_interval;
  detector_.add_confirmed_hook(
      [this](const Subject& s, sim::Cycle at) { on_confirmed(s, at); });
  detector_.add_cleared_hook(
      [this](const Subject& s, sim::Cycle at) { on_cleared(s, at); });
  if (rc_) {
    // Degraded mode refuses every packet touching a shed module at send()
    // ("admission_shed").
    rc_->set_admission_control([this](const proto::Packet& p) {
      return !shed_.count(p.src) && !shed_.count(p.dst);
    });
  }
}

RecoveryOrchestrator::~RecoveryOrchestrator() {
  if (rc_) rc_->set_admission_control({});
}

std::size_t RecoveryOrchestrator::open_incidents() const {
  std::size_t n = 0;
  for (const auto& inc : incidents_)
    if (inc.outcome == IncidentOutcome::kOpen) ++n;
  return n;
}

bool RecoveryOrchestrator::idle() const {
  if (open_incidents() != 0) return false;
  for (const auto& ev : evacuations_)
    if (!ev->finished) return false;
  return true;
}

Incident* RecoveryOrchestrator::find_open(const Subject& subject) {
  for (auto& inc : incidents_)
    if (inc.outcome == IncidentOutcome::kOpen && inc.subject == subject)
      return &inc;
  return nullptr;
}

void RecoveryOrchestrator::on_confirmed(const Subject& subject,
                                        sim::Cycle at) {
  if (find_open(subject)) return;
  Incident inc;
  inc.id = next_incident_id_++;
  inc.subject = subject;
  inc.first_symptom_at = detector_.first_symptom_at(subject).value_or(at);
  inc.confirmed_at = at;
  inc.rung = Rung::kRetryWait;
  inc.rung_started = at;
  inc.last_probe = at;
  inc.unrecoverable_at_open =
      rc_ ? rc_->stats().counter_value("unrecoverable") : 0;
  incidents_.push_back(std::move(inc));
  stats_.counter("incidents_opened").add();
  // Wake the escalation clock; the poll schedule may have gone stale
  // while there was nothing to watch.
  next_poll_ = std::min(next_poll_, kernel().now() + 1);
  set_active(true);
}

void RecoveryOrchestrator::on_cleared(const Subject& subject,
                                      sim::Cycle at) {
  if (Incident* inc = find_open(subject)) {
    inc->healed = true;
    resolve(*inc, IncidentOutcome::kRecovered);
    return;
  }
  // A subject that went DEGRADED-STABLE earlier and heals now: lift the
  // shedding and bring its flows back — healed resources are reusable.
  for (auto it = incidents_.rbegin(); it != incidents_.rend(); ++it) {
    if (!(it->subject == subject) || it->healed ||
        it->outcome != IncidentOutcome::kDegradedStable)
      continue;
    it->healed = true;
    if (it->subject.kind == Subject::Kind::kModule)
      shed_.erase(it->subject.module);
    resurrect_for(subject);
    stats_.counter("incidents_healed").add();
    (void)at;
    return;
  }
}

std::size_t RecoveryOrchestrator::resurrect_for(const Subject& subject) {
  if (!rc_) return 0;
  const std::size_t n = subject.kind == Subject::Kind::kModule
                            ? rc_->resurrect_involving(subject.module)
                            : rc_->resurrect_all();
  if (n) stats_.counter("resurrections").add(n);
  return n;
}

void RecoveryOrchestrator::request_txn(
    std::unique_ptr<core::ReconfigTxn>& slot, core::TxnRequest req) {
  // Transactions register as components and must not be constructed
  // mid-evaluation; hand construction to a kernel event.
  kernel().schedule_at(
      kernel().now() + 1,
      anchor_.wrap([this, &slot, req = std::move(req)]() mutable {
        slot = std::make_unique<core::ReconfigTxn>(
            kernel(), *mgr_, arch_, std::move(req), cfg_.evac_txn);
        if (rc_) {
          core::ReconfigTxn* t = slot.get();
          fault::ReliableChannel* rc = rc_;
          t->add_drain_source([rc, t] {
            std::size_t n = 0;
            for (fpga::ModuleId id : t->quiesced_modules())
              n += rc->outstanding(id);
            return n;
          });
        }
      }));
}

void RecoveryOrchestrator::enter_reroute(Incident& inc) {
  inc.rung = Rung::kRerouting;
  inc.rungs_climbed = std::max(inc.rungs_climbed, 1);
  inc.rung_started = kernel().now();
  arch_.replan_paths();
  resurrect_for(inc.subject);
  stats_.counter("reroutes").add();
}

void RecoveryOrchestrator::enter_evacuation(Incident& inc) {
  std::optional<fpga::HardwareModule> desc;
  if (inc.subject.kind == Subject::Kind::kModule && mgr_)
    desc = mgr_->resident_module(inc.subject.module);
  if (!desc) {
    // Not a managed module (or no manager): nothing to move, degrade.
    enter_degraded(inc);
    return;
  }
  inc.rung = Rung::kEvacuating;
  inc.rungs_climbed = std::max(inc.rungs_climbed, 2);
  inc.rung_started = kernel().now();
  auto ev = std::make_unique<Evacuation>();
  ev->incident_id = inc.id;
  ev->module = inc.subject.module;
  ev->descriptor = *desc;
  ev->unload_requested = true;
  core::TxnRequest req;
  req.kind = core::TxnKind::kUnload;
  req.id = ev->module;
  request_txn(ev->unload, std::move(req));
  evacuations_.push_back(std::move(ev));
}

void RecoveryOrchestrator::enter_degraded(Incident& inc) {
  inc.rung = Rung::kDegraded;
  inc.rungs_climbed = std::max(inc.rungs_climbed, 3);
  inc.rung_started = kernel().now();
  if (inc.subject.kind == Subject::Kind::kModule && rc_)
    shed_.insert(inc.subject.module);
  stats_.counter("degraded").add();
}

void RecoveryOrchestrator::resolve(Incident& inc, IncidentOutcome outcome) {
  inc.outcome = outcome;
  inc.resolved_at = kernel().now();
  if (rc_)
    inc.packets_lost = rc_->stats().counter_value("unrecoverable") -
                       inc.unrecoverable_at_open;
  if (outcome == IncidentOutcome::kRecovered) {
    if (inc.subject.kind == Subject::Kind::kModule)
      shed_.erase(inc.subject.module);
    resurrect_for(inc.subject);
    stats_.counter("incidents_recovered").add();
  } else if (outcome == IncidentOutcome::kDegradedStable) {
    // Shedding stays in force until the detector clears the subject
    // (see on_cleared).
    stats_.counter("incidents_degraded_stable").add();
  }
}

void RecoveryOrchestrator::probe(Incident& inc) {
  inc.last_probe = kernel().now();
  arch_.replan_paths();
  resurrect_for(inc.subject);
  stats_.counter("probes").add();
}

void RecoveryOrchestrator::escalate(Incident& inc) {
  switch (inc.rung) {
    case Rung::kRetryWait:
      enter_reroute(inc);
      break;
    case Rung::kRerouting:
      enter_evacuation(inc);
      break;
    case Rung::kEvacuating:
      enter_degraded(inc);
      break;
    case Rung::kDegraded:
      resolve(inc, IncidentOutcome::kDegradedStable);
      break;
  }
}

void RecoveryOrchestrator::pump_evacuations() {
  for (auto& evp : evacuations_) {
    Evacuation& ev = *evp;
    if (ev.finished) continue;
    Incident* inc = nullptr;
    for (auto& i : incidents_)
      if (i.id == ev.incident_id) inc = &i;
    if (ev.unload && ev.unload->done() && !ev.reload_requested) {
      if (ev.unload->committed()) {
        ev.reload_requested = true;
        core::TxnRequest req;
        req.kind = core::TxnKind::kLoad;
        req.id = ev.module;
        req.module = ev.descriptor;
        request_txn(ev.reload, std::move(req));
      } else {
        ev.finished = true;
        stats_.counter("evacuations_failed").add();
        if (inc && inc->outcome == IncidentOutcome::kOpen &&
            inc->rung == Rung::kEvacuating)
          enter_degraded(*inc);
      }
    }
    if (ev.reload && ev.reload->done()) {
      ev.finished = true;
      if (ev.reload->committed()) {
        stats_.counter("evacuations").add();
        if (inc) inc->evacuated = true;
        // The module now lives on healthy fabric; bring its flows back
        // so in-flight exchanges resume against the new placement.
        resurrect_for(Subject::of_module(ev.module));
      } else {
        stats_.counter("evacuations_failed").add();
        if (inc && inc->outcome == IncidentOutcome::kOpen &&
            inc->rung == Rung::kEvacuating)
          enter_degraded(*inc);
      }
    }
  }
}

bool RecoveryOrchestrator::needs_attention() const {
  for (const auto& ev : evacuations_)
    if (!ev->finished) return true;
  for (const auto& inc : incidents_) {
    if (inc.outcome == IncidentOutcome::kOpen) return true;
    if (inc.outcome == IncidentOutcome::kDegradedStable && !inc.healed)
      return true;
  }
  return false;
}

bool RecoveryOrchestrator::is_quiescent() const {
  if (!needs_attention()) return true;
  return kernel().now() < next_poll_;
}

sim::Cycle RecoveryOrchestrator::quiescent_deadline() const {
  return needs_attention() ? next_poll_ : sim::kNeverCycle;
}

void RecoveryOrchestrator::eval() {
  const sim::Cycle now = kernel().now();
  if (now < next_poll_) return;
  next_poll_ = now + cfg_.poll_interval;
  if (!needs_attention()) return;
  pump_evacuations();
  for (auto& inc : incidents_) {
    if (inc.outcome == IncidentOutcome::kOpen) {
      sim::Cycle deadline = 0;
      switch (inc.rung) {
        case Rung::kRetryWait: deadline = cfg_.retry_grace; break;
        case Rung::kRerouting: deadline = cfg_.reroute_deadline; break;
        case Rung::kEvacuating: deadline = cfg_.evac_deadline; break;
        case Rung::kDegraded: deadline = cfg_.degrade_settle; break;
      }
      if (now - inc.rung_started >= deadline) escalate(inc);
    }
    // Resurrection probes: only once the ladder has started acting (the
    // retry-wait rung is deliberately hands-off), and for unhealed
    // degraded-stable subjects so a late heal is discovered.
    const bool probeworthy =
        (inc.outcome == IncidentOutcome::kOpen &&
         inc.rung != Rung::kRetryWait) ||
        (inc.outcome == IncidentOutcome::kDegradedStable && !inc.healed);
    if (probeworthy && now - inc.last_probe >= cfg_.probe_interval)
      probe(inc);
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size());
  std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

std::string RecoveryOrchestrator::slo_json() const {
  json::Writer w(json::Style::kCompact);
  std::vector<double> ttd, ttr;
  std::size_t recovered = 0, degraded_stable = 0, unresolved = 0;
  w.begin_object().key("incidents").begin_array();
  for (const auto& inc : incidents_) {
    w.begin_object().field("id", inc.id);
    w.field("subject", inc.subject.to_string());
    w.field("first_symptom_at", inc.first_symptom_at);
    w.field("confirmed_at", inc.confirmed_at);
    w.field("outcome", to_string(inc.outcome));
    w.field("rungs_climbed", inc.rungs_climbed);
    w.field("evacuated", inc.evacuated).field("healed", inc.healed);
    w.field("packets_lost", inc.packets_lost);
    ttd.push_back(
        static_cast<double>(inc.confirmed_at - inc.first_symptom_at));
    if (inc.outcome == IncidentOutcome::kOpen) {
      ++unresolved;
    } else {
      w.field("resolved_at", inc.resolved_at)
          .field("time_to_recover", inc.resolved_at - inc.confirmed_at);
      ttr.push_back(
          static_cast<double>(inc.resolved_at - inc.confirmed_at));
      if (inc.outcome == IncidentOutcome::kRecovered) ++recovered;
      if (inc.outcome == IncidentOutcome::kDegradedStable)
        ++degraded_stable;
    }
    w.end();
  }
  w.end().key("summary").begin_object().field("incidents", incidents_.size());
  w.field("recovered", recovered).field("degraded_stable", degraded_stable);
  w.field("unresolved", unresolved);
  w.field("ttd_p50", percentile(ttd, 0.5))
      .field("ttd_p99", percentile(ttd, 0.99));
  w.field("ttr_p50", percentile(ttr, 0.5))
      .field("ttr_p99", percentile(ttr, 0.99));
  return w.end().end().str();
}

}  // namespace recosim::health
