#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/smallfn.hpp"
#include "sim/types.hpp"

namespace recosim::sim {

class Component;
class Latch;

/// A/B switches for the busy-path machinery (see docs/performance.md).
/// All three default to on; each can be disabled independently to restore
/// the corresponding slow path, and results are bit-identical either way
/// (the same discipline as set_activity_driven()):
///  * router_gating   — DyNoC/CoNoChi iterate only routers/switches with
///                      queued or in-flight work instead of the whole mesh.
///  * burst_transfers — established RMBoC channels complete a packet as one
///                      deadline instead of one word per cycle, and BUS-COM
///                      treats mid-slot cycles as pure phase ticks; both
///                      fall back to per-cycle mode the moment a fault,
///                      replan or teardown interrupts the burst.
///  * arena_pooling   — packet queues and SmallFn heap spill allocate from
///                      the per-thread Arena freelists.
struct BusyPathTuning {
  bool router_gating = true;
  bool burst_transfers = true;
  bool arena_pooling = true;
};

/// Cycle-driven simulation kernel with activity-driven scheduling.
///
/// One executed cycle performs, in order:
///   1. fire all events scheduled for the current cycle,
///   2. eval() every *active* registered component,
///   3. commit() every active component, then latch() every dirty
///      two-phase primitive,
///   4. advance the cycle counter.
///
/// Components report idleness through Component::set_active() /
/// is_quiescent() (see component.hpp); the kernel skips idle components
/// and, when nothing at all is runnable — no hard-active component, no
/// staged latch, no event due — jumps the cycle counter straight to
/// min(next event, earliest pollable deadline, run end) instead of
/// spinning ("idle-cycle fast-forward"). Both optimizations preserve
/// bit-identical results; set_activity_driven(false) restores the
/// every-component-every-cycle schedule for A/B verification.
///
/// Components and latches register/deregister themselves via their
/// constructors/destructors; the kernel never owns them. Deregistration is
/// O(1) (the slot is tombstoned and compacted later), so tearing down
/// fabrics with thousands of components is linear, not quadratic.
class Kernel {
 public:
  Kernel();

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

  /// Schedule `fn` to run at the start of cycle `at` (>= now()).
  void schedule_at(Cycle at, SmallFn fn);

  /// Schedule `fn` to run `delay` cycles from now (0 = start of next step
  /// if the current cycle's events already fired).
  void schedule_in(Cycle delay, SmallFn fn);

  /// Live registered components (tombstoned slots excluded).
  std::size_t component_count() const {
    return components_.size() - component_tombstones_;
  }

  // -- activity-driven scheduling controls -----------------------------------

  /// Master switch for component skipping and idle-cycle fast-forward.
  /// Defaults to on; turning it off restores the seed kernel's
  /// every-component-every-cycle, latch-everything schedule (results are
  /// identical either way — that is tested, not assumed).
  void set_activity_driven(bool on) { activity_driven_ = on; }
  bool activity_driven() const { return activity_driven_; }

  /// In checked builds, verify every skipped component's is_quiescent()
  /// each cycle (rule SIM003). Defaults to on in checked builds.
  void set_paranoid_idle_checks(bool on) { paranoid_idle_checks_ = on; }
  bool paranoid_idle_checks() const { return paranoid_idle_checks_; }

  /// Busy-path machinery switches (router gating, burst transfers, arena
  /// pooling). Setting them also flips the thread arena's pooling switch.
  void set_busy_path_tuning(const BusyPathTuning& t);
  const BusyPathTuning& busy_path_tuning() const { return busy_path_; }
  /// Convenience: all three busy-path switches together (the chaos A/B).
  void set_busy_path_enabled(bool on) {
    set_busy_path_tuning(BusyPathTuning{on, on, on});
  }

  std::size_t active_components() const { return active_count_; }
  /// Cycles skipped by idle fast-forward since construction.
  Cycle fast_forwarded_cycles() const { return ff_cycles_; }
  /// Number of fast-forward jumps taken.
  std::uint64_t fast_forwards() const { return ff_jumps_; }

  // Registration hooks used by Component/Latch; not for end users.
  void register_component(Component* c);
  void deregister_component(Component* c);
  void register_latch(Latch* l);
  void deregister_latch(Latch* l);

 private:
  friend class Component;
  friend class Latch;

  // Activity bookkeeping, called from Component.
  void on_component_activity(bool now_active, bool pollable);
  void on_component_pollable_flip(bool now_pollable);
  void mark_latch_dirty(Latch* l) { dirty_latches_.push_back(l); }

  /// Execute one cycle, or take one fast-forward jump (bounded by `end`).
  void advance_once(Cycle end);
  /// All-quiescent jump target: min(next event, pollable deadlines, end);
  /// returns now_ when some pollable has work due this cycle.
  Cycle fast_forward_target(Cycle end) const;
  void run_cycle();
  void maybe_compact();

  Cycle now_ = 0;
  std::vector<Component*> components_;
  std::vector<Latch*> latches_;
  std::vector<Latch*> dirty_latches_;
  EventQueue events_;
  std::size_t component_tombstones_ = 0;
  std::size_t latch_tombstones_ = 0;
  std::size_t active_count_ = 0;       ///< components with active() true
  std::size_t hard_active_count_ = 0;  ///< active and not ff-pollable
  bool activity_driven_ = true;
  BusyPathTuning busy_path_{};
  bool paranoid_idle_checks_ = RECOSIM_CHECKS_ENABLED != 0;
  Cycle ff_cycles_ = 0;
  std::uint64_t ff_jumps_ = 0;
};

}  // namespace recosim::sim
