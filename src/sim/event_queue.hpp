#pragma once

#include <functional>
#include <map>
#include <vector>

#include "sim/types.hpp"

namespace recosim::sim {

/// Time-ordered queue of one-shot callbacks: one ordered map from cycle to
/// that cycle's callbacks, which run in push order so the simulation stays
/// deterministic.
class EventQueue {
 public:
  /// Queue `fn` for cycle `at`. A push for a cycle that already fired
  /// (schedule_in(0, ...) from an eval(), say) is queued as an event of
  /// the next cycle, behind the events already queued for it.
  void push(Cycle at, std::function<void()> fn);

  bool empty() const { return events_.empty(); }

  /// Earliest scheduled cycle; kNeverCycle when empty.
  Cycle next_cycle() const;

  /// Pop and run every event scheduled at or before `now`, then the ones
  /// those callbacks push for `now` itself.
  void fire_due(Cycle now);

 private:
  std::map<Cycle, std::vector<std::function<void()>>> events_;
  Cycle base_ = 0;  ///< earliest cycle not yet fired; later pushes clamp here
  Cycle fired_through_ = 0;
  bool fired_any_ = false;
};

}  // namespace recosim::sim
