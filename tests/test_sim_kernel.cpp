#include <gtest/gtest.h>

#include "sim/clock.hpp"
#include "sim/component.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

#include <functional>
#include <sstream>
#include <string>
#include <vector>

namespace recosim::sim {
namespace {

TEST(Kernel, StartsAtCycleZero) {
  Kernel k;
  EXPECT_EQ(k.now(), 0u);
}

TEST(Kernel, RunAdvancesCycles) {
  Kernel k;
  k.run(10);
  EXPECT_EQ(k.now(), 10u);
  k.step();
  EXPECT_EQ(k.now(), 11u);
}

class CountingComponent final : public Component {
 public:
  using Component::Component;
  void eval() override { ++evals; }
  void commit() override { ++commits; }
  int evals = 0;
  int commits = 0;
};

TEST(Kernel, ComponentsEvalAndCommitOncePerCycle) {
  Kernel k;
  CountingComponent c(k, "c");
  k.run(5);
  EXPECT_EQ(c.evals, 5);
  EXPECT_EQ(c.commits, 5);
}

TEST(Kernel, DeregistrationOnDestruction) {
  Kernel k;
  {
    CountingComponent c(k, "c");
    k.run(1);
    EXPECT_EQ(k.component_count(), 1u);
  }
  EXPECT_EQ(k.component_count(), 0u);
  k.run(1);  // must not touch the destroyed component
}

TEST(Kernel, ScheduledEventFiresAtExactCycle) {
  Kernel k;
  Cycle fired_at = kNeverCycle;
  k.schedule_at(3, [&] { fired_at = k.now(); });
  k.run(10);
  EXPECT_EQ(fired_at, 3u);
}

TEST(Kernel, ScheduleInIsRelative) {
  Kernel k;
  k.run(5);
  Cycle fired_at = kNeverCycle;
  k.schedule_in(2, [&] { fired_at = k.now(); });
  k.run(10);
  EXPECT_EQ(fired_at, 7u);
}

TEST(Kernel, EventsAtSameCycleFireInInsertionOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule_at(1, [&] { order.push_back(1); });
  k.schedule_at(1, [&] { order.push_back(2); });
  k.schedule_at(1, [&] { order.push_back(3); });
  k.run(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, EventMayScheduleFurtherEvents) {
  Kernel k;
  int fired = 0;
  k.schedule_at(1, [&] {
    ++fired;
    k.schedule_in(2, [&] { ++fired; });
  });
  k.run(5);
  EXPECT_EQ(fired, 2);
}

/// Calls schedule_in(0, fn) from its eval() at cycle `at`, then sleeps.
class LateScheduler final : public Component {
 public:
  LateScheduler(Kernel& k, Cycle at, std::function<void()> fn)
      : Component(k, "late"), at_(at), fn_(std::move(fn)) {}
  void eval() override {
    if (kernel().now() == at_) kernel().schedule_in(0, fn_);
  }
  void commit() override {
    if (kernel().now() == at_) set_active(false);
  }

 private:
  Cycle at_;
  std::function<void()> fn_;
};

/// A callback that logs "<tag>@<cycle>" when it fires.
std::function<void()> logger(Kernel& k, std::vector<std::string>& log,
                             const char* tag) {
  return [&k, &log, tag] {
    log.push_back(std::string(tag) + "@" + std::to_string(k.now()));
  };
}

TEST(Kernel, PushForAFiredCycleRunsNextCycleAfterItsEvents) {
  // Cycle 5's events have fired when its eval() pushes B for cycle 5, so
  // B becomes an event of cycle 6, queued behind A, and cycle 6 executes.
  Kernel k;
  std::vector<std::string> log;
  k.schedule_at(6, logger(k, log, "A"));
  LateScheduler late(k, 5, logger(k, log, "B"));
  k.run(10);
  EXPECT_EQ(log, (std::vector<std::string>{"A@6", "B@6"}));
  EXPECT_EQ(k.fast_forwarded_cycles(), 3u);  // only 7 -> 10 is skipped
}

TEST(Kernel, CallbackPushesForItsOwnCycleAndTheNext) {
  Kernel k;
  std::vector<std::string> log;
  k.schedule_at(6, [&] {
    log.push_back("P@" + std::to_string(k.now()));
    k.schedule_at(6, logger(k, log, "X"));
    k.schedule_at(7, logger(k, log, "Y"));
  });
  k.schedule_at(6, logger(k, log, "A"));
  k.schedule_at(7, logger(k, log, "Z"));
  k.run(10);
  // X runs in the same pass, after every event already queued for cycle
  // 6; Y joins cycle 7 behind Z.
  EXPECT_EQ(log,
            (std::vector<std::string>{"P@6", "A@6", "X@6", "Z@7", "Y@7"}));
  EXPECT_EQ(k.fast_forwarded_cycles(), 8u);  // 0 -> 6 and 8 -> 10
}

TEST(Kernel, RunUntilStopsWhenPredicateHolds) {
  Kernel k;
  bool flag = false;
  k.schedule_at(4, [&] { flag = true; });
  EXPECT_TRUE(k.run_until([&] { return flag; }, 100));
  EXPECT_EQ(k.now(), 5u);
}

TEST(Kernel, RunUntilGivesUpAfterBudget) {
  Kernel k;
  EXPECT_FALSE(k.run_until([] { return false; }, 7));
  EXPECT_EQ(k.now(), 7u);
}

TEST(EventQueue, NextCycleReportsEarliest) {
  EventQueue q;
  EXPECT_EQ(q.next_cycle(), kNeverCycle);
  q.push(9, [] {});
  q.push(3, [] {});
  EXPECT_EQ(q.next_cycle(), 3u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(Rng, ForkStreamsDiffer) {
  Rng parent(7);
  Rng a = parent.fork();
  Rng b = parent.fork();
  int differences = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform(0, 1'000'000) != b.uniform(0, 1'000'000)) ++differences;
  EXPECT_GT(differences, 40);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(7), p2(7);
  Rng a = p1.fork();
  Rng b = p2.fork();
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(Rng, UniformStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, GeometricGapAtLeastOne) {
  Rng r(3);
  for (int i = 0; i < 200; ++i) EXPECT_GE(r.geometric_gap(0.3), 1u);
}

TEST(Stats, RunningStatMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Stats, EmptyRunningStatIsZero) {
  RunningStat s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, HistogramBucketsAndOverflow) {
  Histogram h(10, 4);  // [0,10) [10,20) [20,30) [30,40)
  h.add(0);
  h.add(9);
  h.add(10);
  h.add(39);
  h.add(40);
  h.add(1000);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.max_seen(), 1000u);
}

TEST(Stats, HistogramQuantile) {
  Histogram h(1, 100);
  for (std::uint64_t i = 0; i < 100; ++i) h.add(i);
  EXPECT_EQ(h.quantile(0.5), 49u);
  EXPECT_EQ(h.quantile(1.0), 99u);
}

TEST(Stats, CounterValueAccumulates) {
  StatSet s;
  s.counter("x").add();
  s.counter("x").add(4);
  EXPECT_EQ(s.counter_value("x"), 5u);
  EXPECT_EQ(s.counter_value("missing"), 0u);
}

TEST(Clock, ConvertsCyclesToTime) {
  ClockDomain c(100.0);  // 100 MHz -> 10 ns period
  EXPECT_DOUBLE_EQ(c.period_ns(), 10.0);
  EXPECT_DOUBLE_EQ(c.cycles_to_ns(5), 50.0);
  EXPECT_DOUBLE_EQ(c.cycles_to_us(1000), 10.0);
}

TEST(Clock, LinkBandwidth) {
  ClockDomain c(100.0);
  EXPECT_DOUBLE_EQ(c.link_bandwidth_mbit_s(32), 3200.0);
  EXPECT_DOUBLE_EQ(c.link_bandwidth_mbyte_s(32), 400.0);
}

TEST(Trace, SilentWhenDisabled) {
  Kernel k;
  Trace t(k);
  t.log("who", "what");  // must not crash
  EXPECT_FALSE(t.enabled());
}

TEST(Trace, EmitsCycleStampedLines) {
  Kernel k;
  Trace t(k);
  std::ostringstream os;
  t.enable(os);
  k.run(3);
  t.log("unit", "hello");
  EXPECT_NE(os.str().find("unit: hello"), std::string::npos);
  EXPECT_NE(os.str().find("3"), std::string::npos);
}

}  // namespace
}  // namespace recosim::sim
