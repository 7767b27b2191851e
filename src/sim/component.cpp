#include "sim/component.hpp"

#include <utility>

#include "sim/kernel.hpp"

namespace recosim::sim {

Component::Component(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {
  kernel_.register_component(this);
}

Component::~Component() { kernel_.deregister_component(this); }

void Component::set_active(bool a) {
  if (active_ == a) return;
  active_ = a;
  kernel_.on_component_activity(a, ff_pollable_);
}

void Component::set_ff_pollable(bool p) {
  if (ff_pollable_ == p) return;
  ff_pollable_ = p;
  if (active_) kernel_.on_component_pollable_flip(p);
}

}  // namespace recosim::sim
