#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace recosim::sim {

void EventQueue::push(Cycle at, std::function<void()> fn) {
  // Monotonicity: an event behind the fired-through point would never
  // run in time order (it still fires, but at a later cycle than it asked
  // for), so the simulation it drives is silently wrong.
  RECOSIM_CHECK_ALWAYS("SIM001", !fired_any_ || at >= fired_through_,
                       "event scheduled before an already-fired cycle");
  events_[std::max(at, base_)].push_back(std::move(fn));
}

Cycle EventQueue::next_cycle() const {
  return events_.empty() ? kNeverCycle : events_.begin()->first;
}

void EventQueue::fire_due(Cycle now) {
  RECOSIM_CHECK_ALWAYS("SIM001", !fired_any_ || now >= fired_through_,
                       "event queue fired for a cycle earlier than one "
                       "already executed");
  fired_through_ = now;
  fired_any_ = true;
  while (!events_.empty() && events_.begin()->first <= now) {
    // A callback that pushes for this same cycle opens a fresh entry for
    // it, which the next pass of this loop fires, after these.
    auto it = events_.begin();
    std::vector<std::function<void()>> due = std::move(it->second);
    events_.erase(it);
    for (auto& fn : due) fn();
  }
  base_ = std::max(base_, now + 1);
}

}  // namespace recosim::sim
