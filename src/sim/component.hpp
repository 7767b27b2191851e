#pragma once

#include <string>

#include "sim/kernel.hpp"
#include "sim/types.hpp"

namespace recosim::sim {

/// A synchronous hardware block simulated with two-phase semantics.
///
/// Each kernel cycle every component's eval() runs first (reading only
/// *current* state and staging next state), then every commit() latches the
/// staged state. Because eval() never observes another component's staged
/// writes, the evaluation order cannot change simulation results.
///
/// Activity protocol (see docs/performance.md): components start active.
/// A component whose eval()/commit() would be observationally a no-op may
/// call set_active(false); the kernel then skips it until set_active(true)
/// is called again (by the component itself or by whoever hands it new
/// work). The contract is one-sided and safe: a component that never calls
/// set_active simply runs every cycle, exactly as before.
///
/// Rules for sleeping components:
///  * Only go inactive from commit(), from outside the kernel's phases, or
///    when your commit() is empty — a component that deactivates during
///    eval() but still needed its commit() this cycle would diverge.
///  * is_quiescent() must return true whenever the component is inactive;
///    checked builds verify this every skipped cycle (rule SIM003).
///  * Components whose idle work depends only on time (watchdogs, DMA-like
///    transfers, scheduled fault dispatch) stay active but mark themselves
///    fast-forward pollable: they must then implement is_quiescent() /
///    quiescent_deadline() and reconstruct skipped-cycle bookkeeping in
///    on_fast_forward().
class Component {
 public:
  /// Registers with `kernel` for the lifetime of the component.
  Component(Kernel& kernel, std::string name);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Combinational phase: read current state, stage next state.
  virtual void eval() = 0;

  /// Clock edge: latch staged state. Default does nothing.
  virtual void commit() {}

  // -- activity / quiescence -------------------------------------------------

  bool active() const { return active_; }

  /// Report this component idle (false) or runnable (true). Idempotent.
  void set_active(bool a);

  /// True when running this component's eval()/commit() in the current
  /// cycle would change nothing observable. The default ties it to the
  /// activity flag; fast-forward-pollable components override it with
  /// their real idle condition.
  virtual bool is_quiescent() const { return !active_; }

  /// Earliest future cycle at which this (quiescent, pollable) component
  /// must execute again without external stimulus — e.g. a watchdog trip,
  /// a transfer completion, a scheduled fault. kNeverCycle when none.
  virtual Cycle quiescent_deadline() const { return kNeverCycle; }

  /// Called when the kernel skips cycles [from, to) in one jump, so
  /// pollable components can reconstruct the per-cycle bookkeeping their
  /// skipped eval()/commit() calls would have done. Default: nothing.
  virtual void on_fast_forward(Cycle /*from*/, Cycle /*to*/) {}

  const std::string& name() const { return name_; }
  Kernel& kernel() const { return kernel_; }

 protected:
  /// Mark this component fast-forward pollable: it stays active (evals
  /// every executed cycle) but does not block idle-cycle fast-forward —
  /// the kernel instead consults is_quiescent()/quiescent_deadline().
  void set_ff_pollable(bool p);

 private:
  friend class Kernel;
  Kernel& kernel_;
  std::string name_;
  bool active_ = true;
  bool ff_pollable_ = false;
  std::size_t kernel_index_ = 0;
};

}  // namespace recosim::sim
