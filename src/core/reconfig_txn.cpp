#include "core/reconfig_txn.hpp"

#include <algorithm>
#include <utility>

#include "fpga/defrag.hpp"
#include "sim/kernel.hpp"

namespace recosim::core {

const char* to_string(TxnState s) {
  switch (s) {
    case TxnState::kPlanned: return "PLANNED";
    case TxnState::kQuiescing: return "QUIESCING";
    case TxnState::kDrained: return "DRAINED";
    case TxnState::kStreaming: return "STREAMING";
    case TxnState::kCommitted: return "COMMITTED";
    case TxnState::kRolledBack: return "ROLLED_BACK";
  }
  return "?";
}

const char* to_string(TxnKind k) {
  switch (k) {
    case TxnKind::kLoad: return "load";
    case TxnKind::kSwap: return "swap";
    case TxnKind::kLoadWithCompaction: return "load_with_compaction";
    case TxnKind::kUnload: return "unload";
  }
  return "?";
}

const char* to_string(TxnFailure f) {
  switch (f) {
    case TxnFailure::kNone: return "none";
    case TxnFailure::kBadRequest: return "bad_request";
    case TxnFailure::kNoPlacement: return "no_placement";
    case TxnFailure::kLoadFailed: return "load_failed";
    case TxnFailure::kAttachLost: return "attach_lost";
    case TxnFailure::kVerifyFailed: return "verify_failed";
    case TxnFailure::kTimeout: return "timeout";
  }
  return "?";
}

ReconfigTxn::ReconfigTxn(sim::Kernel& kernel, ReconfigManager& mgr,
                         CommArchitecture& arch, TxnRequest request,
                         TxnConfig config, DoneCallback on_done)
    : sim::Component(kernel, "reconfig_txn"),
      mgr_(mgr),
      arch_(arch),
      request_(std::move(request)),
      cfg_(config),
      on_done_(std::move(on_done)),
      watchdog_(
          kernel,
          [this] {
            return arch_.packets_delivered() + arch_.packets_dropped();
          },
          [this] { return state_ == TxnState::kQuiescing && !drained(); },
          config.drain_stall_deadline, "txn_drain_watchdog") {
  watchdog_.on_trip([this] { escalate_requested_ = true; });
  set_ff_pollable(true);
}

bool ReconfigTxn::is_quiescent() const {
  switch (state_) {
    case TxnState::kPlanned:
    case TxnState::kDrained:
      return false;  // a state transition runs in the next eval
    case TxnState::kQuiescing:
      // Waiting on the drain; an eval acts only once the network emptied
      // or the watchdog escalated.
      return !escalate_requested_ && !drained();
    case TxnState::kStreaming:
      return true;  // waiting on the ICAP callback
    case TxnState::kCommitted:
    case TxnState::kRolledBack:
      return true;
  }
  return false;
}

sim::Cycle ReconfigTxn::quiescent_deadline() const {
  if (done()) return sim::kNeverCycle;
  sim::Cycle deadline = sim::kNeverCycle;
  if (cfg_.txn_timeout != 0 && state_ != TxnState::kPlanned)
    deadline = started_at_ + cfg_.txn_timeout;
  if (state_ == TxnState::kQuiescing)
    deadline = std::min(deadline, drain_started_ + cfg_.drain_timeout);
  return deadline;
}

ReconfigTxn::~ReconfigTxn() {
  if (done()) return;
  // Abandoned mid-flight: drop the pending load so its callback (which
  // captures this object) can never fire, and release the quiesce holds.
  mgr_.cancel_load(request_.id);
  resume_quiesced();
}

void ReconfigTxn::add_drain_source(std::function<std::size_t()> outstanding) {
  drain_sources_.push_back(std::move(outstanding));
}

void ReconfigTxn::eval() {
  if (done()) return;
  if (state_ == TxnState::kPlanned) {
    begin();
    return;
  }
  if (cfg_.txn_timeout != 0 &&
      kernel().now() - started_at_ >= cfg_.txn_timeout) {
    failure_ = TxnFailure::kTimeout;
    rollback();
    return;
  }
  if (state_ == TxnState::kQuiescing) {
    if (drained()) {
      enter_drained();
    } else if (escalate_requested_ ||
               kernel().now() - drain_started_ >= cfg_.drain_timeout) {
      // The network refuses to empty (a dead node holds a packet, a flow
      // retransmits forever). Quiesce already blocks new admissions, so
      // forcing ahead can only affect traffic that would never land.
      forced_drain_ = true;
      if (cfg_.on_drain_escalation)
        cfg_.on_drain_escalation(quiesced_modules());
      enter_drained();
    }
    return;
  }
  if (state_ == TxnState::kDrained) {
    start_streaming();
    return;
  }
}

void ReconfigTxn::begin() {
  started_at_ = kernel().now();

  const bool loads = request_.kind != TxnKind::kUnload;
  const bool valid =
      request_.id != fpga::kInvalidModule &&
      (!loads || (!arch_.is_attached(request_.id) &&
                  !mgr_.is_loading(request_.id))) &&
      (request_.kind != TxnKind::kSwap ||
       (request_.old_id != fpga::kInvalidModule &&
        request_.old_id != request_.id));
  if (!valid) {
    // Nothing started and no snapshot exists yet — a rollback() here
    // would diff live state against an empty snapshot and tear down
    // modules the transaction never touched.
    failure_ = TxnFailure::kBadRequest;
    finish(TxnState::kRolledBack);
    return;
  }

  // Snapshot every module the manager governs: its region, whether it is
  // attached, and its descriptor (for re-attachment on rollback). Modules
  // whose load is still streaming are skipped — their placement belongs
  // to their own transaction, and resurrecting it here after their load
  // fails would leak a region nobody owns.
  for (const auto& [id, rect] : mgr_.floorplan().regions()) {
    if (mgr_.is_loading(id)) continue;
    snapshot_.regions.emplace(id, rect);
    if (arch_.is_attached(id)) snapshot_.attached.insert(id);
    if (auto desc = mgr_.resident_module(id))
      snapshot_.descriptors.emplace(id, *desc);
  }
  verify::DiagnosticSink baseline;
  arch_.verify_invariants(baseline);
  snapshot_.baseline_errors = baseline.error_count();

  // Modules the operation disturbs, which must be quiesced and drained.
  switch (request_.kind) {
    case TxnKind::kLoad:
      break;
    case TxnKind::kSwap:
      affected_.push_back(request_.old_id);
      break;
    case TxnKind::kUnload:
      affected_.push_back(request_.id);
      break;
    case TxnKind::kLoadWithCompaction:
      if (!mgr_.can_place(request_.module)) {
        // Plan the compaction on a scratch copy to learn which residents
        // would relocate. The manager re-plans at streaming time; with
        // the floorplan unchanged in between (guaranteed when
        // transactions are serialized) the plans coincide.
        fpga::Floorplan scratch = mgr_.floorplan();
        fpga::Defragmenter defrag(scratch, scratch.device());
        const auto plan = defrag.plan_for(request_.module.width_clbs,
                                          request_.module.height_clbs,
                                          /*clearance=*/1);
        for (const auto& move : plan.moves) affected_.push_back(move.id);
      }
      break;
  }

  for (fpga::ModuleId id : affected_)
    if (arch_.quiesce(id)) quiesced_by_txn_.push_back(id);

  if (affected_.empty() && drain_sources_.empty()) {
    // Nothing in the network can involve the operation — skip the drain.
    state_ = TxnState::kDrained;
    return;
  }
  state_ = TxnState::kQuiescing;
  drain_started_ = kernel().now();
}

bool ReconfigTxn::drained() const {
  for (fpga::ModuleId id : affected_)
    if (arch_.in_flight_packets(id) != 0) return false;
  for (const auto& source : drain_sources_)
    if (source() != 0) return false;
  return true;
}

void ReconfigTxn::enter_drained() {
  drain_cycles_ = kernel().now() - drain_started_;
  state_ = TxnState::kDrained;
}

void ReconfigTxn::start_streaming() {
  state_ = TxnState::kStreaming;
  auto cb = [this](fpga::ModuleId, bool ok) { on_load_resolved(ok); };
  bool ok = false;
  switch (request_.kind) {
    case TxnKind::kLoad:
      ok = mgr_.load(arch_, request_.id, request_.module, cb);
      break;
    case TxnKind::kLoadWithCompaction:
      ok = mgr_.load_with_compaction(arch_, request_.id, request_.module, cb);
      break;
    case TxnKind::kSwap:
      ok = mgr_.swap(arch_, request_.old_id, request_.id, request_.module, cb);
      break;
    case TxnKind::kUnload:
      // Synchronous: clearing a region needs no bitstream in this model.
      if (mgr_.unload(arch_, request_.id)) {
        try_commit();
      } else {
        failure_ = TxnFailure::kBadRequest;
        rollback();
      }
      return;
  }
  if (!ok) {
    failure_ = TxnFailure::kNoPlacement;
    rollback();
  }
}

void ReconfigTxn::on_load_resolved(bool ok) {
  if (state_ != TxnState::kStreaming) return;  // already timed out
  if (!ok) {
    failure_ = TxnFailure::kLoadFailed;
    rollback();
    return;
  }
  try_commit();
}

fpga::ModuleId ReconfigTxn::removed_id() const {
  if (request_.kind == TxnKind::kSwap) return request_.old_id;
  if (request_.kind == TxnKind::kUnload) return request_.id;
  return fpga::kInvalidModule;
}

void ReconfigTxn::try_commit() {
  // The manager reported success for the headline operation, but a
  // relocation or a concurrent fault may still have cost a module the
  // transaction was responsible for: every snapshotted attachment (minus
  // the one deliberately removed) must survive into the commit.
  for (fpga::ModuleId id : snapshot_.attached) {
    if (id == removed_id()) continue;
    if (!arch_.is_attached(id)) {
      failure_ = TxnFailure::kAttachLost;
      rollback();
      return;
    }
  }
  if (request_.kind != TxnKind::kUnload && !arch_.is_attached(request_.id)) {
    failure_ = TxnFailure::kAttachLost;
    rollback();
    return;
  }
  // Roll back when the post-commit check reports more error-severity
  // diagnostics than the pre-transaction baseline.
  verify::DiagnosticSink check;
  arch_.verify_invariants(check);
  if (check.error_count() > snapshot_.baseline_errors) {
    failure_ = TxnFailure::kVerifyFailed;
    rollback();
    return;
  }
  do_commit();
}

void ReconfigTxn::do_commit() {
  failure_ = TxnFailure::kNone;
  finish(TxnState::kCommitted);
}

void ReconfigTxn::rollback() {
  mgr_.cancel_load(request_.id);
  restore_snapshot();
  finish(TxnState::kRolledBack);
}

void ReconfigTxn::restore_snapshot() {
  // Two-phase undo. Phase 1 clears everything that deviates from the
  // snapshot (the half-loaded module, relocated regions); phase 2
  // re-places and re-attaches at the snapshotted coordinates. Clearing
  // all deviations first makes the restore order-insensitive — the exact
  // inverse of the forward move sequence is one valid order, and after
  // phase 1 any order works. No ICAP time is charged: like the swap
  // restore, the previous known-good configuration is modelled as
  // retained rather than rewritten.
  const auto current = mgr_.floorplan().regions();
  for (const auto& [id, rect] : current) {
    if (mgr_.is_loading(id)) continue;  // another txn's in-flight load
    auto it = snapshot_.regions.find(id);
    if (it == snapshot_.regions.end()) {
      mgr_.unload(arch_, id);
    } else if (!(it->second == rect)) {
      mgr_.release_placement(id);
    }
  }
  for (const auto& [id, rect] : snapshot_.regions) {
    if (mgr_.floorplan().region_of(id)) continue;
    fpga::HardwareModule desc;
    if (auto s = snapshot_.descriptors.find(id);
        s != snapshot_.descriptors.end()) {
      desc = s->second;
    } else if (auto resident = mgr_.resident_module(id)) {
      desc = *resident;
    } else {
      desc.name = "restored";
    }
    mgr_.restore_placement(id, desc, rect);
  }
  for (fpga::ModuleId id : snapshot_.attached) {
    if (arch_.is_attached(id)) continue;
    // A concurrent transaction is re-loading this module: its own load
    // completion attaches it (or removes it entirely on failure). An
    // attach here would race that load and could outlive its placement.
    if (mgr_.is_loading(id)) continue;
    // Placement restore failed above (e.g. the region was taken by a
    // concurrent load): attaching without a region would be worse than
    // the loss, so record it and move on.
    if (!mgr_.floorplan().region_of(id)) {
      restore_losses_.push_back(id);
      continue;
    }
    fpga::HardwareModule desc;
    if (auto s = snapshot_.descriptors.find(id);
        s != snapshot_.descriptors.end()) {
      desc = s->second;
    } else {
      desc.name = "restored";
    }
    if (!arch_.attach(id, desc)) {
      // The fabric degraded since the snapshot (e.g. a router under the
      // region died) and refuses the module. Keeping the placement would
      // leave a region claimed by a module that can never communicate;
      // release it and record the loss instead.
      mgr_.release_placement(id);
      restore_losses_.push_back(id);
    }
  }
}

void ReconfigTxn::resume_quiesced() {
  for (fpga::ModuleId id : quiesced_by_txn_) arch_.resume(id);
  quiesced_by_txn_.clear();
}

void ReconfigTxn::finish(TxnState terminal) {
  resume_quiesced();
  arch_.verify_invariants(completion_sink_);
  state_ = terminal;
  finished_at_ = kernel().now();
  set_active(false);  // terminal: every future eval would be a no-op
  if (on_done_) on_done_(*this);
}

}  // namespace recosim::core
