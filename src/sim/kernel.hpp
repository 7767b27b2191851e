#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace recosim::sim {

class Component;

/// Cycle-driven simulation kernel with activity-driven scheduling.
///
/// One executed cycle performs, in order:
///   1. fire all events scheduled for the current cycle,
///   2. eval() every *active* registered component,
///   3. commit() every active component,
///   4. advance the cycle counter.
///
/// Components report idleness through Component::set_active() /
/// is_quiescent() (see component.hpp); the kernel skips idle components
/// and, when nothing at all is runnable — no hard-active component, no
/// event due — jumps the cycle counter straight to min(next event,
/// earliest pollable deadline, run end) instead of spinning ("idle-cycle
/// fast-forward"). Both optimizations preserve bit-identical results;
/// set_activity_driven(false) restores the every-component-every-cycle
/// schedule for A/B verification.
///
/// Components register/deregister themselves via their constructors/
/// destructors; the kernel never owns them. Deregistration is O(1) (the
/// slot is tombstoned and compacted later), so tearing down fabrics with
/// thousands of components is linear, not quadratic.
class Kernel {
 public:
  Kernel() = default;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Current simulation time. During phases 1-3 of an executed cycle this
  /// is the cycle being executed.
  Cycle now() const { return now_; }

  /// Execute exactly n cycles (idle stretches may be fast-forwarded).
  void run(Cycle n);

  /// Execute single cycle.
  void step() { run(1); }

  /// Run until `pred()` is true; gives up after `max_cycles` additional
  /// cycles. Returns true if the predicate fired. The predicate is
  /// re-checked once before running and after every executed cycle or
  /// fast-forward jump — i.e. on activity or event firing, not per skipped
  /// idle cycle — so predicates must depend on simulation state (or be
  /// tolerant of coarse time checks), which every side-effect-driven
  /// predicate is.
  bool run_until(const std::function<bool()>& pred, Cycle max_cycles);

  /// Schedule `fn` to run at the start of cycle `at` (>= now()). Events
  /// of one cycle run in push order.
  void schedule_at(Cycle at, std::function<void()> fn);

  /// Schedule `fn` to run `delay` cycles from now. A push for a cycle
  /// whose events already fired (delay 0 from an eval(), say) runs at the
  /// start of the next cycle, after the events already queued for it, and
  /// that cycle executes rather than being fast-forwarded.
  void schedule_in(Cycle delay, std::function<void()> fn);

  /// Live registered components (tombstoned slots excluded).
  std::size_t component_count() const {
    return components_.size() - component_tombstones_;
  }

  // -- activity-driven scheduling controls -----------------------------------

  /// Master switch for component skipping and idle-cycle fast-forward.
  /// Defaults to on; turning it off restores the seed kernel's
  /// every-component-every-cycle schedule (results are identical either
  /// way — that is tested, not assumed). In checked builds every skipped
  /// component's is_quiescent() is verified each executed cycle (rule
  /// SIM003).
  void set_activity_driven(bool on) { activity_driven_ = on; }
  bool activity_driven() const { return activity_driven_; }

  /// Busy-path switch (docs/performance.md): DyNoC/CoNoChi router gating
  /// and RMBoC/BUS-COM burst transfers. Defaults to on; off restores the
  /// full-mesh sweep and per-cycle transfer stepping, with bit-identical
  /// results.
  void set_busy_path_enabled(bool on) { busy_path_ = on; }
  bool busy_path_enabled() const { return busy_path_; }

  std::size_t active_components() const { return active_count_; }
  /// Cycles skipped by idle fast-forward since construction.
  Cycle fast_forwarded_cycles() const { return ff_cycles_; }
  /// Number of fast-forward jumps taken.
  std::uint64_t fast_forwards() const { return ff_jumps_; }

  // Registration hooks used by Component; not for end users.
  void register_component(Component* c);
  void deregister_component(Component* c);

 private:
  friend class Component;

  // Activity bookkeeping, called from Component.
  void on_component_activity(bool now_active, bool pollable);
  void on_component_pollable_flip(bool now_pollable);

  /// Execute one cycle, or take one fast-forward jump (bounded by `end`).
  void advance_once(Cycle end);
  /// All-quiescent jump target: min(next event, pollable deadlines, end);
  /// returns now_ when some pollable has work due this cycle.
  Cycle fast_forward_target(Cycle end) const;
  void run_cycle();
  void maybe_compact();

  Cycle now_ = 0;
  std::vector<Component*> components_;
  EventQueue events_;
  std::size_t component_tombstones_ = 0;
  std::size_t active_count_ = 0;       ///< components with active() true
  std::size_t hard_active_count_ = 0;  ///< active and not ff-pollable
  bool activity_driven_ = true;
  bool busy_path_ = true;
  Cycle ff_cycles_ = 0;
  std::uint64_t ff_jumps_ = 0;
};

}  // namespace recosim::sim
