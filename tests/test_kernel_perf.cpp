// Activity-driven kernel: quiescence tracking, idle-cycle fast-forward,
// the event queue and the router work set. The headline property
// throughout is that the optimizations are *observationally invisible*:
// every run must be bit-identical to the cycle-by-cycle schedule it
// replaces.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/comparison.hpp"
#include "core/traffic.hpp"
#include "sim/check.hpp"
#include "sim/component.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/work_set.hpp"

namespace recosim::sim {
namespace {

// ---------------------------------------------------------------------------
// Idle-cycle fast-forward mechanics
// ---------------------------------------------------------------------------

TEST(FastForward, EmptyKernelJumpsToRunEnd) {
  Kernel k;
  k.run(100'000);
  EXPECT_EQ(k.now(), 100'000u);
  EXPECT_GE(k.fast_forwards(), 1u);
  EXPECT_GE(k.fast_forwarded_cycles(), 99'000u);
}

TEST(FastForward, DisabledKernelNeverJumps) {
  Kernel k;
  k.set_activity_driven(false);
  k.run(10'000);
  EXPECT_EQ(k.now(), 10'000u);
  EXPECT_EQ(k.fast_forwards(), 0u);
  EXPECT_EQ(k.fast_forwarded_cycles(), 0u);
}

TEST(FastForward, EventsFireAtExactCyclesAcrossJumps) {
  Kernel k;
  std::vector<Cycle> fired;
  k.schedule_at(10, [&] { fired.push_back(k.now()); });
  k.schedule_at(5'000, [&] { fired.push_back(k.now()); });
  k.run(100'000);
  EXPECT_EQ(fired, (std::vector<Cycle>{10, 5'000}));
  EXPECT_GE(k.fast_forwards(), 2u);
}

/// Runs one cycle after each wake, then goes back to sleep.
class Sleeper final : public Component {
 public:
  using Component::Component;
  void eval() override { ++evals; }
  void commit() override { set_active(false); }
  int evals = 0;
};

TEST(FastForward, SleepingComponentIsSkippedAndWakeable) {
  Kernel k;
  Sleeper s(k, "s");
  k.run(10'000);
  EXPECT_EQ(s.evals, 1);  // slept after its first cycle
  EXPECT_GE(k.fast_forwarded_cycles(), 9'000u);
  s.set_active(true);
  k.run(10'000);
  EXPECT_EQ(s.evals, 2);
}

/// Pollable component with purely time-driven work: fires every `period`
/// cycles, sleeps (without deactivating) in between.
class Ticker final : public Component {
 public:
  Ticker(Kernel& k, Cycle period)
      : Component(k, "ticker"), period_(period), next_(period) {
    set_ff_pollable(true);
  }
  void eval() override {
    if (kernel().now() == next_) {
      ticks.push_back(kernel().now());
      next_ += period_;
    }
  }
  bool is_quiescent() const override { return kernel().now() < next_; }
  Cycle quiescent_deadline() const override { return next_; }
  void on_fast_forward(Cycle from, Cycle to) override {
    skipped += to - from;
  }
  std::vector<Cycle> ticks;
  Cycle skipped = 0;

 private:
  Cycle period_;
  Cycle next_;
};

TEST(FastForward, PollableDeadlineBoundsEveryJump) {
  Kernel k;
  Ticker t(k, 100);
  k.run(1'000);
  std::vector<Cycle> expected;
  for (Cycle c = 100; c < 1'000; c += 100) expected.push_back(c);
  EXPECT_EQ(t.ticks, expected);  // never early, never late, none missed
  EXPECT_GE(k.fast_forwards(), 9u);
  EXPECT_GT(t.skipped, 0u);
  EXPECT_EQ(t.skipped, k.fast_forwarded_cycles());
}

TEST(FastForward, ActiveComponentBlocksJumping) {
  Kernel k;
  struct Busy final : Component {
    using Component::Component;
    void eval() override { ++evals; }
    int evals = 0;
  } busy(k, "busy");
  k.run(1'000);
  EXPECT_EQ(busy.evals, 1'000);
  EXPECT_EQ(k.fast_forwards(), 0u);
}

// ---------------------------------------------------------------------------
// run_until semantics
// ---------------------------------------------------------------------------

TEST(RunUntil, TrueImmediatelyDoesNotAdvance) {
  Kernel k;
  EXPECT_TRUE(k.run_until([] { return true; }, 10));
  EXPECT_EQ(k.now(), 0u);
}

TEST(RunUntil, PredicateEvaluatedOncePerCycle) {
  // Regression: the pre-rework loop evaluated the predicate twice on the
  // final cycle of the budget.
  Kernel k;
  k.set_activity_driven(false);
  int calls = 0;
  EXPECT_FALSE(k.run_until(
      [&] {
        ++calls;
        return false;
      },
      10));
  EXPECT_EQ(calls, 11);  // once up front + once after each executed cycle
  EXPECT_EQ(k.now(), 10u);
}

TEST(RunUntil, WakesOnEventThroughFastForward) {
  Kernel k;
  bool flag = false;
  k.schedule_at(4'000, [&] { flag = true; });
  EXPECT_TRUE(k.run_until([&] { return flag; }, 1'000'000));
  EXPECT_EQ(k.now(), 4'001u);  // the firing cycle executed, then stop
  EXPECT_GE(k.fast_forwards(), 1u);
}

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

TEST(EventQueue, OverflowBeyondRingWindowFiresInOrder) {
  Kernel k;
  std::vector<int> order;
  // Far-future events pushed out of cycle order fire in cycle order, and
  // two at one cycle in push order.
  k.schedule_at(1'000, [&] { order.push_back(3); });
  k.schedule_at(10, [&] { order.push_back(1); });
  k.schedule_at(1'000, [&] { order.push_back(4); });
  k.schedule_at(300, [&] { order.push_back(2); });
  k.run(2'000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, DirectOverflowMigration) {
  EventQueue q;
  std::vector<Cycle> fired;
  q.push(300, [&] { fired.push_back(300); });
  q.push(2, [&] { fired.push_back(2); });
  EXPECT_EQ(q.next_cycle(), 2u);
  q.fire_due(2);
  EXPECT_EQ(q.next_cycle(), 300u);
  q.fire_due(299);
  EXPECT_EQ(fired.size(), 1u);
  q.fire_due(300);
  EXPECT_EQ(fired, (std::vector<Cycle>{2, 300}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, SameCyclePushDuringFireRunsInSamePass) {
  Kernel k;
  int fired = 0;
  k.schedule_at(3, [&] { k.schedule_at(3, [&] { ++fired; }); });
  k.run(4);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ManyEventsAcrossManyRingWraps) {
  Kernel k;
  std::vector<Cycle> fired;
  for (Cycle c = 1; c <= 4'000; c += 37)
    k.schedule_at(c, [&fired, &k] { fired.push_back(k.now()); });
  k.run(5'000);
  ASSERT_EQ(fired.size(), 4'000u / 37 + 1);
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], 1 + 37 * static_cast<Cycle>(i));
}

TEST(EventQueue, LargeCallbacksFallBackToHeap) {
  // A capture larger than std::function's inline storage is heap-held; it
  // must still fire intact.
  Kernel k;
  std::array<std::uint64_t, 16> payload{};
  payload.fill(42);
  std::uint64_t sum = 0;
  k.schedule_at(1, [payload, &sum] {
    for (auto v : payload) sum += v;
  });
  k.run(2);
  EXPECT_EQ(sum, 16u * 42u);
}

// ---------------------------------------------------------------------------
// O(1) deregistration: order preservation across tombstone compaction
// ---------------------------------------------------------------------------

class OrderProbe final : public Component {
 public:
  OrderProbe(Kernel& k, int id, std::vector<int>& log)
      : Component(k, std::string("p").append(std::to_string(id))),
        id_(id),
        log_(log) {}
  void eval() override { log_.push_back(id_); }

 private:
  int id_;
  std::vector<int>& log_;
};

TEST(Kernel, DeregistrationPreservesEvalOrderAcrossCompaction) {
  Kernel k;
  std::vector<int> log;
  std::vector<std::unique_ptr<OrderProbe>> probes;
  for (int i = 0; i < 200; ++i)
    probes.push_back(std::make_unique<OrderProbe>(k, i, log));
  // Destroy 150 of 200 (every id not divisible by 4): enough tombstones to
  // trigger compaction at the next cycle boundary.
  std::vector<int> expected;
  for (int i = 0; i < 200; ++i) {
    if (i % 4 == 0) {
      expected.push_back(i);
    } else {
      probes[static_cast<std::size_t>(i)].reset();
    }
  }
  EXPECT_EQ(k.component_count(), 50u);
  k.step();  // compacts, then evals
  EXPECT_EQ(log, expected);
  log.clear();
  k.step();  // and the compacted order is stable
  EXPECT_EQ(log, expected);
  // Registration after compaction appends at the end.
  OrderProbe late(k, 999, log);
  log.clear();
  expected.push_back(999);
  k.step();
  EXPECT_EQ(log, expected);
}

TEST(Kernel, InterleavedRegisterDeregisterKeepsCountsConsistent) {
  Kernel k;
  std::vector<int> log;
  std::vector<std::unique_ptr<OrderProbe>> probes;
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    probes.push_back(std::make_unique<OrderProbe>(k, round, log));
    if (rng.chance(0.5) && probes.size() > 1)
      probes[rng.uniform(0, probes.size() - 2)].reset();
    k.step();
  }
  std::size_t live = 0;
  for (const auto& p : probes)
    if (p) ++live;
  EXPECT_EQ(k.component_count(), live);
}

// ---------------------------------------------------------------------------
// WorkSet: the router/switch work set behind DyNoC and CoNoChi gating
// ---------------------------------------------------------------------------

std::vector<int> members(const WorkSet& w) {
  std::vector<int> out;
  w.for_each([&](int i) { out.push_back(i); });
  return out;
}

TEST(WorkSet, MarkTwiceCountsOnceAndClearingAnUnsetBitIsANoop) {
  WorkSet w;
  w.reset(10);
  w.mark(3);
  w.mark(3);
  w.set(3, false);  // one clear undoes both marks
  EXPECT_TRUE(w.empty());
  w.set(5, false);  // never set: nothing to undo
  EXPECT_TRUE(w.empty());
  w.mark(5);
  w.set(7, false);
  EXPECT_FALSE(w.empty());
  EXPECT_EQ(members(w), (std::vector<int>{5}));
}

TEST(WorkSet, EmptyFollowsMarkSetAndReset) {
  WorkSet w;
  w.reset(64);
  EXPECT_TRUE(w.empty());
  w.mark(0);
  EXPECT_FALSE(w.empty());
  w.set(63, true);
  w.set(0, false);
  EXPECT_FALSE(w.empty());
  w.set(63, false);
  EXPECT_TRUE(w.empty());
  w.mark(10);
  w.reset(64);
  EXPECT_TRUE(w.empty());
  EXPECT_TRUE(members(w).empty());
}

TEST(WorkSet, ResetSpansEveryWordAndVisitsInAscendingOrder) {
  WorkSet w;
  w.reset(130);  // three 64-bit words, the last one partly used
  for (int i : {129, 64, 0, 127, 63, 65, 128}) w.mark(i);
  EXPECT_EQ(members(w), (std::vector<int>{0, 63, 64, 65, 127, 128, 129}));
}

TEST(WorkSet, MarksDuringForEachAreSeenAheadOfTheCursorOnly) {
  WorkSet w;
  w.reset(200);
  w.mark(10);
  w.mark(100);
  std::vector<int> visited;
  w.for_each([&](int i) {
    visited.push_back(i);
    if (i == 10) {
      w.mark(12);   // same word, ahead: visited this pass
      w.mark(150);  // later word, ahead: visited this pass
    }
    if (i == 100) {
      w.mark(5);   // earlier word, behind: waits for the next pass
      w.mark(99);  // same word, behind: waits for the next pass
    }
  });
  EXPECT_EQ(visited, (std::vector<int>{10, 12, 100, 150}));
  EXPECT_EQ(members(w), (std::vector<int>{5, 10, 12, 99, 100, 150}));
}

// ---------------------------------------------------------------------------
// SIM003: a component that lies about quiescence is caught
// ---------------------------------------------------------------------------

#if RECOSIM_CHECKS_ENABLED
[[noreturn]] void throwing_handler(const char* rule, const char*,
                                   const char*, const char*, int) {
  throw std::runtime_error(rule);
}

/// Deactivates itself but claims it is NOT quiescent — a protocol
/// violation the paranoid skip check must flag.
class Liar final : public Component {
 public:
  using Component::Component;
  void eval() override {}
  void commit() override { set_active(false); }
  bool is_quiescent() const override { return false; }
};

TEST(Kernel, ParanoidCheckCatchesFalselyIdleComponent) {
  Kernel k;
  Liar liar(k, "liar");
  Ticker keep_alive(k, 1);  // forces per-cycle execution so skips happen
  k.step();                 // liar runs, then deactivates
  CheckHandler prev = set_check_handler(&throwing_handler);
  try {
    k.step();  // liar is skipped while claiming non-quiescence
    set_check_handler(prev);
    FAIL() << "SIM003 did not fire";
  } catch (const std::runtime_error& e) {
    set_check_handler(prev);
    EXPECT_STREQ(e.what(), "SIM003");
  }
  liar.set_active(true);  // let teardown proceed with a sane state
}
#endif

// ---------------------------------------------------------------------------
// End-to-end determinism: fast-forward on vs off over a real architecture
// ---------------------------------------------------------------------------

struct TrafficOutcome {
  std::uint64_t accepted = 0;
  std::uint64_t received = 0;
  std::uint64_t p99 = 0;
  double mean_latency = 0.0;
  Cycle end = 0;

  bool operator==(const TrafficOutcome&) const = default;
};

/// A minimal-system factory with a name: PrintTo makes the test names
/// end in the architecture rather than in a function address, which
/// changes with every build.
struct NamedSystem {
  const char* name;
  core::MinimalSystem (*make)();
};

void PrintTo(const NamedSystem& s, std::ostream* os) { *os << s.name; }

TrafficOutcome run_minimal(const NamedSystem& system, bool ff) {
  auto sys = system.make();
  sys.kernel->set_activity_driven(ff);
  core::TrafficSource periodic(
      *sys.kernel, *sys.arch, sys.modules[0],
      core::DestinationPolicy::fixed(sys.modules[1]),
      core::SizePolicy::fixed(64), core::InjectionPolicy::periodic(24),
      Rng(11), "periodic");
  core::TrafficSource bursty(
      *sys.kernel, *sys.arch, sys.modules[2],
      core::DestinationPolicy::uniform({sys.modules[1], sys.modules[3]}),
      core::SizePolicy::bimodal(16, 256, 0.2),
      core::InjectionPolicy::bernoulli(0.05), Rng(12), "bursty");
  core::TrafficSink sink(*sys.kernel, *sys.arch,
                         {sys.modules[1], sys.modules[3]}, "sink");
  sys.kernel->run(6'000);
  periodic.stop();
  bursty.stop();
  sys.kernel->run(6'000);
  TrafficOutcome out;
  out.accepted = periodic.accepted() + bursty.accepted();
  out.received = sink.received_total();
  out.p99 = sink.latency_histogram().quantile(0.99);
  out.mean_latency = sys.arch->mean_latency_cycles();
  out.end = sys.kernel->now();
  return out;
}

class ArchDeterminism : public ::testing::TestWithParam<NamedSystem> {};

TEST_P(ArchDeterminism, FastForwardOnAndOffAgreeExactly) {
  const TrafficOutcome with_ff = run_minimal(GetParam(), true);
  const TrafficOutcome without = run_minimal(GetParam(), false);
  EXPECT_GT(with_ff.accepted, 0u);
  EXPECT_GT(with_ff.received, 0u);
  EXPECT_EQ(with_ff, without);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ArchDeterminism,
    ::testing::Values(
        NamedSystem{"rmboc", [] { return core::make_minimal_rmboc(); }},
        NamedSystem{"buscom", [] { return core::make_minimal_buscom(); }},
        NamedSystem{"dynoc", [] { return core::make_minimal_dynoc(); }},
        NamedSystem{"conochi", [] { return core::make_minimal_conochi(); }},
        NamedSystem{"hierbus", [] { return core::make_minimal_hierbus(); }}));

TEST(ArchFastForward, IdleTailIsActuallySkipped) {
  // After traffic stops and the network drains, the kernel must be
  // jumping, not spinning — the perf claim behind the whole PR.
  auto sys = core::make_minimal_rmboc();
  core::TrafficSource src(*sys.kernel, *sys.arch, sys.modules[0],
                          core::DestinationPolicy::fixed(sys.modules[1]),
                          core::SizePolicy::fixed(32),
                          core::InjectionPolicy::periodic(16), Rng(3),
                          "src");
  core::TrafficSink sink(*sys.kernel, *sys.arch, {sys.modules[1]}, "sink");
  sys.kernel->run(2'000);
  src.stop();
  const Cycle ff_before = sys.kernel->fast_forwarded_cycles();
  sys.kernel->run(100'000);
  EXPECT_GT(sink.received_total(), 0u);
  // The drain takes a bounded number of live cycles; almost the whole
  // 100k-cycle tail must have been fast-forwarded.
  EXPECT_GE(sys.kernel->fast_forwarded_cycles() - ff_before, 90'000u);
}

}  // namespace
}  // namespace recosim::sim
