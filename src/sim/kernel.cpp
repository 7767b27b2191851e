#include "sim/kernel.hpp"

#include <algorithm>

#include "sim/check.hpp"
#include "sim/component.hpp"

namespace recosim::sim {

void Kernel::run(Cycle n) {
  const Cycle end = now_ + n;
  while (now_ < end) advance_once(end);
}

bool Kernel::run_until(const std::function<bool()>& pred, Cycle max_cycles) {
  if (pred()) return true;
  const Cycle end = now_ + max_cycles;
  while (now_ < end) {
    advance_once(end);
    if (pred()) return true;
  }
  return false;
}

void Kernel::schedule_at(Cycle at, std::function<void()> fn) {
  RECOSIM_CHECK_ALWAYS("SIM001", at >= now_,
                       "event scheduled in the simulated past");
  events_.push(at, std::move(fn));
}

void Kernel::schedule_in(Cycle delay, std::function<void()> fn) {
  events_.push(now_ + delay, std::move(fn));
}

void Kernel::advance_once(Cycle end) {
  maybe_compact();
  // Whether any event fires *this* cycle. Firing an event is activity (it
  // may wake components), so the cycle must execute normally — also
  // keeping run_until() end cycles identical with and without
  // fast-forward.
  const bool events_due = events_.next_cycle() <= now_;
  events_.fire_due(now_);
  if (activity_driven_ && !events_due && hard_active_count_ == 0) {
    const Cycle target = fast_forward_target(end);
    if (target > now_) {
      for (std::size_t i = 0; i < components_.size(); ++i) {
        Component* c = components_[i];
        if (c != nullptr && c->active_) c->on_fast_forward(now_, target);
      }
      ff_cycles_ += target - now_;
      ++ff_jumps_;
      now_ = target;
      return;
    }
  }
  run_cycle();
}

Cycle Kernel::fast_forward_target(Cycle end) const {
  Cycle target = std::min(end, events_.next_cycle());
  // Only ff-pollable components can be active here (hard_active_count_ is
  // zero); each either vetoes the jump or bounds it by its deadline.
  for (const Component* c : components_) {
    if (c == nullptr || !c->active_) continue;
    if (!c->is_quiescent()) return now_;
    target = std::min(target, c->quiescent_deadline());
  }
  return target < now_ ? now_ : target;
}

void Kernel::run_cycle() {
  for (std::size_t i = 0; i < components_.size(); ++i) {
    Component* c = components_[i];
    if (c == nullptr) continue;
    if (activity_driven_ && !c->active_) {
      RECOSIM_CHECK("SIM003", c->is_quiescent(),
                    "inactive component reports non-quiescent state");
      continue;
    }
    c->eval();
  }
  for (std::size_t i = 0; i < components_.size(); ++i) {
    Component* c = components_[i];
    if (c == nullptr || (activity_driven_ && !c->active_)) continue;
    c->commit();
  }
  ++now_;
}

void Kernel::register_component(Component* c) {
  c->kernel_index_ = components_.size();
  components_.push_back(c);
  // Components register active and non-pollable.
  ++active_count_;
  ++hard_active_count_;
}

void Kernel::deregister_component(Component* c) {
  components_[c->kernel_index_] = nullptr;
  ++component_tombstones_;
  if (c->active_) {
    --active_count_;
    if (!c->ff_pollable_) --hard_active_count_;
  }
}

void Kernel::on_component_activity(bool now_active, bool pollable) {
  if (now_active) {
    ++active_count_;
    if (!pollable) ++hard_active_count_;
  } else {
    --active_count_;
    if (!pollable) --hard_active_count_;
  }
}

void Kernel::on_component_pollable_flip(bool now_pollable) {
  // Called only for an *active* component whose pollable flag changed.
  if (now_pollable) {
    --hard_active_count_;
  } else {
    ++hard_active_count_;
  }
}

void Kernel::maybe_compact() {
  if (component_tombstones_ > 64 &&
      component_tombstones_ * 2 > components_.size()) {
    std::size_t w = 0;
    for (Component* c : components_) {
      if (c == nullptr) continue;
      c->kernel_index_ = w;
      components_[w++] = c;
    }
    components_.resize(w);
    component_tombstones_ = 0;
  }
}

}  // namespace recosim::sim
