#pragma once

// Minimal stand-ins for the simulator interfaces the recosim-tidy
// fixtures exercise. The fixtures are compiled (as an object-library
// corpus) to prove every seeded violation is real C++, so the stubs must
// be self-contained — and this header itself must scan clean.

#include <functional>
#include <memory>

namespace tidy_fixture {

class Kernel {
 public:
  void schedule_at(long cycle, std::function<void()> fn) {
    last_cycle_ = cycle;
    last_event_ = std::move(fn);
  }

 private:
  long last_cycle_ = 0;
  std::function<void()> last_event_;
};

class CallbackAnchor {
 public:
  CallbackAnchor() : token_(std::make_shared<char>(0)) {}
  std::function<void()> wrap(std::function<void()> fn) const {
    return [weak = std::weak_ptr<char>(token_), fn = std::move(fn)] {
      if (auto alive = weak.lock()) fn();
    };
  }

 private:
  std::shared_ptr<char> token_;
};

class Component {
 public:
  virtual ~Component() = default;
  virtual void eval() {}
  virtual bool is_quiescent() const { return !active_; }
  void set_active(bool a) { active_ = a; }
  void set_ff_pollable(bool p) { pollable_ = p; }

 private:
  bool active_ = true;
  bool pollable_ = false;
};

class CommArchitecture : public Component {
 protected:
  void wake_network() { set_active(true); }
  void debug_check_invariants() const {}
};

}  // namespace tidy_fixture
