// Seeded RCD004 violations: a Component subclass and a CommArchitecture
// subclass (the network base is itself a Component) that override eval()
// without ever engaging the activity protocol. The engaged twins must NOT
// be flagged; inheriting wake_network() does not count as engaging.

#include "support.hpp"

namespace tidy_fixture {

class BusyPoller final : public Component {  // seeded RCD004
 public:
  void eval() override { ++polls_; }
  int polls() const { return polls_; }

 private:
  int polls_ = 0;
};

class IdleAware final : public Component {
 public:
  void eval() override {
    ++polls_;
    set_active(false);  // engages the activity protocol: no finding
  }

 private:
  int polls_ = 0;
};

class BusyRing final : public CommArchitecture {  // seeded RCD004
 public:
  void eval() override { ++hops_; }
  int hops() const { return hops_; }

 private:
  int hops_ = 0;
};

class SleepyRing final : public CommArchitecture {
 public:
  void eval() override { ++hops_; }
  // Engages the activity protocol: no finding.
  bool is_quiescent() const override { return hops_ % 2 == 0; }

 private:
  int hops_ = 0;
};

}  // namespace tidy_fixture
