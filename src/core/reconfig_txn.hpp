#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/comm_arch.hpp"
#include "core/reconfig_manager.hpp"
#include "sim/component.hpp"
#include "sim/types.hpp"
#include "sim/watchdog.hpp"
#include "verify/diagnostic.hpp"

namespace recosim::core {

/// Transaction lifecycle. Every transaction terminates in kCommitted or
/// kRolledBack; kDrained is a one-cycle handoff state between the drain
/// phase and the first ICAP request.
enum class TxnState {
  kPlanned,     // created, not yet started
  kQuiescing,   // affected modules quiesced, draining in-flight traffic
  kDrained,     // network empty (or drain forced) — about to stream
  kStreaming,   // bitstream(s) in the ICAP queue
  kCommitted,   // terminal: new configuration live, invariants verified
  kRolledBack,  // terminal: pre-transaction state restored
};
const char* to_string(TxnState s);

/// Which ReconfigManager operation the transaction wraps.
enum class TxnKind { kLoad, kSwap, kLoadWithCompaction, kUnload };
const char* to_string(TxnKind k);

/// Why a transaction rolled back (kNone while running / after commit).
enum class TxnFailure {
  kNone,
  kBadRequest,    // invalid id, target already attached/loading
  kNoPlacement,   // no region even after compaction, or swap unload failed
  kLoadFailed,    // ICAP retry budget exhausted or attach rejected
  kAttachLost,    // a module the txn relied on is no longer attached
  kVerifyFailed,  // post-commit invariant check regressed
  kTimeout,       // txn_timeout elapsed before the load resolved
};
const char* to_string(TxnFailure f);

struct TxnConfig {
  /// Hard cap on the drain phase; when it elapses the transaction
  /// proceeds anyway ("forced drain" — quiesce already blocks new
  /// admissions, so the residue can only be traffic that will never land).
  sim::Cycle drain_timeout = 20'000;
  /// Watchdog deadline: drain escalates early when no packet lands or
  /// drops for this many cycles while in-flight work remains.
  sim::Cycle drain_stall_deadline = 4'000;
  /// Overall transaction timeout (0 = unlimited). A transaction past its
  /// timeout force-cancels the pending load and rolls back, so no
  /// transaction is ever stuck.
  sim::Cycle txn_timeout = 0;
  /// Observable-symptom hook for the health layer: invoked once when the
  /// drain phase escalates (watchdog stall trip or drain_timeout overrun)
  /// with the modules that were quiescing at the time. A stuck drain is a
  /// strong symptom that one of those modules — or the fabric under them
  /// — is unhealthy.
  std::function<void(const std::vector<fpga::ModuleId>&)>
      on_drain_escalation;
};

struct TxnRequest {
  TxnKind kind = TxnKind::kLoad;
  /// Module being loaded (kLoad/kSwap/kLoadWithCompaction) or removed
  /// (kUnload).
  fpga::ModuleId id = fpga::kInvalidModule;
  /// kSwap only: the module being replaced.
  fpga::ModuleId old_id = fpga::kInvalidModule;
  fpga::HardwareModule module;
};

/// A transactional wrapper around ReconfigManager's load / swap /
/// load_with_compaction / unload:
///
///   PLANNED -> QUIESCING -> DRAINED -> STREAMING -> COMMITTED
///                                          |
///                                          +-----> ROLLED_BACK
///
/// On start the transaction snapshots the floorplan and attachment state,
/// quiesces every module the operation will disturb (the swap victim, the
/// unload target, every module a compaction plan would relocate) and
/// drains: it waits until the architecture reports no in-flight packets
/// involving those modules and every registered drain source (e.g.
/// ReliableChannel::outstanding) reads zero. A sim::Watchdog escalates a
/// stalled drain, and drain_timeout caps it outright — either way the
/// transaction proceeds with "forced_drain" recorded rather than hanging.
///
/// Any failure after that point — ICAP retry budget exhausted, attach
/// rejection, a relocated module lost to a fault, a post-commit invariant
/// regression, the transaction timeout — rolls back by diffing live state
/// against the snapshot: freed placements are restored, moved regions put
/// back, detached modules re-attached, the half-loaded module removed.
/// verify_invariants() runs after both commit and rollback.
///
/// Lifecycle rules: construct and destroy transactions outside the
/// kernel's component-evaluation phase (from scheduled events or between
/// run() calls) — the transaction and its watchdog register as
/// components. Destroying an unfinished transaction abandons it (the
/// pending load is cancelled and quiesced modules resumed, but no
/// rollback runs).
class ReconfigTxn final : public sim::Component {
 public:
  /// Fired once, in the cycle the transaction reaches a terminal state.
  using DoneCallback = std::function<void(ReconfigTxn&)>;

  ReconfigTxn(sim::Kernel& kernel, ReconfigManager& mgr,
              CommArchitecture& arch, TxnRequest request,
              TxnConfig config = {}, DoneCallback on_done = {});
  ~ReconfigTxn() override;

  /// Register an additional drain condition sampled every cycle; the
  /// drain phase completes only when every source reads zero. Typically
  /// wired to ReliableChannel::outstanding so end-to-end retransmissions
  /// land (or are NACKed) before the fabric changes.
  void add_drain_source(std::function<std::size_t()> outstanding);

  TxnState state() const { return state_; }
  TxnFailure failure() const { return failure_; }
  const TxnRequest& request() const { return request_; }
  bool done() const {
    return state_ == TxnState::kCommitted || state_ == TxnState::kRolledBack;
  }
  bool committed() const { return state_ == TxnState::kCommitted; }

  /// Drain ended by timeout/watchdog escalation instead of an empty
  /// network.
  bool forced_drain() const { return forced_drain_; }
  /// Watchdog escalations during the drain phase.
  std::uint64_t watchdog_escalations() const { return watchdog_.trips(); }
  sim::Cycle started_at() const { return started_at_; }
  sim::Cycle finished_at() const { return finished_at_; }
  /// Cycles spent between quiesce and drain completion.
  sim::Cycle drain_cycles() const { return drain_cycles_; }

  /// Modules this transaction quiesced (still quiesced while running).
  const std::vector<fpga::ModuleId>& quiesced_modules() const {
    return quiesced_by_txn_;
  }

  /// Diagnostics from the verify_invariants() pass run at completion
  /// (empty while the txn is still live).
  const verify::DiagnosticSink& completion_diagnostics() const {
    return completion_sink_;
  }

  /// Modules a rollback could not bring back: their snapshotted region was
  /// restored but the architecture refused the re-attach (fabric degraded
  /// mid-transaction), so the placement was released rather than left
  /// half-configured.
  const std::vector<fpga::ModuleId>& restore_losses() const {
    return restore_losses_;
  }

  // Component ----------------------------------------------------------------
  void eval() override;

  // The transaction's own cycle work is pure waiting: for the drain to
  // complete (driven by other components' activity), for the ICAP to
  // resolve the load, or for a timeout. It therefore never blocks
  // idle-cycle fast-forward; it bounds jumps by its drain/transaction
  // timeouts, and sleeps for good once terminal.
  bool is_quiescent() const override;
  sim::Cycle quiescent_deadline() const override;

 private:
  struct Snapshot {
    std::map<fpga::ModuleId, fpga::Rect> regions;
    std::map<fpga::ModuleId, fpga::HardwareModule> descriptors;
    std::set<fpga::ModuleId> attached;
    std::size_t baseline_errors = 0;
  };

  void begin();
  bool drained() const;
  void enter_drained();
  void start_streaming();
  void on_load_resolved(bool ok);
  void try_commit();
  // Named do_commit, not commit: Component::commit() is the kernel's
  // latch hook and runs every cycle — overriding it by accident would
  // commit every transaction unconditionally.
  void do_commit();
  void rollback();
  void restore_snapshot();
  void resume_quiesced();
  void finish(TxnState terminal);
  /// The id the operation removes on purpose (swap victim / unload
  /// target), which rollback-integrity checks must not count as lost.
  fpga::ModuleId removed_id() const;

  ReconfigManager& mgr_;
  CommArchitecture& arch_;
  TxnRequest request_;
  TxnConfig cfg_;
  DoneCallback on_done_;

  TxnState state_ = TxnState::kPlanned;
  TxnFailure failure_ = TxnFailure::kNone;
  Snapshot snapshot_;
  std::vector<fpga::ModuleId> affected_;
  std::vector<fpga::ModuleId> quiesced_by_txn_;
  std::vector<std::function<std::size_t()>> drain_sources_;
  bool forced_drain_ = false;
  bool escalate_requested_ = false;
  sim::Cycle started_at_ = 0;
  sim::Cycle drain_started_ = 0;
  sim::Cycle drain_cycles_ = 0;
  sim::Cycle finished_at_ = 0;
  std::vector<fpga::ModuleId> restore_losses_;
  verify::DiagnosticSink completion_sink_;
  /// Last member before the watchdog so its lambdas see live state; the
  /// watchdog only trips during the drain phase (pending predicate).
  sim::Watchdog watchdog_;
};

}  // namespace recosim::core
