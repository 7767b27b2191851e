// Chaos-harness tests: seed determinism (same schedule twice is
// bit-for-bit identical), serialize/parse round-tripping, shrink leaving
// passing schedules untouched, and a small all-architecture sweep that
// must come up green.

#include <gtest/gtest.h>

#include <sstream>

#include "fault/chaos.hpp"

namespace recosim::fault {
namespace {

TEST(ChaosSchedule, SameSeedSameSchedule) {
  for (ChaosArch arch : kAllChaosArchs) {
    const ChaosSchedule a = make_schedule(arch, 11);
    const ChaosSchedule b = make_schedule(arch, 11);
    EXPECT_EQ(serialize_schedule(a), serialize_schedule(b));
  }
  // Different seeds must not collapse onto one schedule.
  EXPECT_NE(serialize_schedule(make_schedule(ChaosArch::kDynoc, 1)),
            serialize_schedule(make_schedule(ChaosArch::kDynoc, 2)));
}

TEST(ChaosSchedule, SerializeParseRoundTrip) {
  for (ChaosArch arch : kAllChaosArchs) {
    const ChaosSchedule s = make_schedule(arch, 37);
    const std::string text = serialize_schedule(s);
    std::string error;
    auto parsed = parse_schedule(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(serialize_schedule(*parsed), text);
  }
}

TEST(ChaosSchedule, ParseRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(parse_schedule("not a schedule", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_schedule("arch nosucharch\nseed 1\n", &error));
}

TEST(ChaosRun, RunIsDeterministic) {
  const ChaosSchedule s = make_schedule(ChaosArch::kDynoc, 23);
  const ChaosResult a = run_schedule(s);
  const ChaosResult b = run_schedule(s);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.txns_committed, b.txns_committed);
  EXPECT_EQ(a.txns_rolled_back, b.txns_rolled_back);
  EXPECT_EQ(a.forced_drains, b.forced_drains);
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(ChaosRun, FastForwardOnAndOffAgreeExactly) {
  // The activity-driven kernel must be observationally invisible: the
  // same schedule with idle-cycle fast-forward disabled is the seed
  // kernel's cycle-by-cycle run, and every number must match it.
  for (ChaosArch arch : kAllChaosArchs) {
    for (std::uint64_t seed = 40; seed < 43; ++seed) {
      const ChaosSchedule s = make_schedule(arch, seed);
      const ChaosResult a = run_schedule(s, /*activity_driven=*/true);
      const ChaosResult b = run_schedule(s, /*activity_driven=*/false);
      EXPECT_EQ(a.ok, b.ok) << "arch=" << to_string(arch) << " seed=" << seed;
      EXPECT_EQ(a.delivered, b.delivered);
      EXPECT_EQ(a.accepted, b.accepted);
      EXPECT_EQ(a.txns_committed, b.txns_committed);
      EXPECT_EQ(a.txns_rolled_back, b.txns_rolled_back);
      EXPECT_EQ(a.forced_drains, b.forced_drains);
      EXPECT_EQ(a.end_cycle, b.end_cycle);
      EXPECT_EQ(a.violations.size(), b.violations.size());
    }
  }
}

TEST(ChaosRun, SmallSweepIsGreen) {
  for (ChaosArch arch : kAllChaosArchs) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      const ChaosResult r = run_schedule(make_schedule(arch, seed));
      std::ostringstream why;
      for (const auto& v : r.violations)
        why << v.invariant << ": " << v.detail << "\n";
      EXPECT_TRUE(r.ok) << "arch=" << to_string(arch) << " seed=" << seed
                        << "\n" << why.str();
    }
  }
}

TEST(ChaosRun, ConochiHealReparkKeepsCheckedBuildsRunning) {
  // Seed 36 heals a switch whose repark moves an interface to another
  // switch; checked builds used to abort (CON002) inside that move,
  // before the repark had rebuilt links and tables.
  const ChaosResult r = run_schedule(make_schedule(ChaosArch::kConochi, 36));
  EXPECT_TRUE(r.ok);
}

TEST(ChaosRun, TransactionsExerciseBothOutcomes) {
  // Across a handful of seeds the harness must produce commits AND
  // rollbacks — a harness that only ever commits is not testing recovery.
  std::uint64_t committed = 0, rolled_back = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const ChaosResult r = run_schedule(make_schedule(ChaosArch::kRmboc, seed));
    committed += r.txns_committed;
    rolled_back += r.txns_rolled_back;
  }
  EXPECT_GT(committed, 0u);
  EXPECT_GT(rolled_back, 0u);
}

TEST(ChaosShrink, PassingScheduleIsReturnedUnchanged) {
  const ChaosSchedule s = make_schedule(ChaosArch::kConochi, 3);
  ASSERT_TRUE(run_schedule(s).ok);
  EXPECT_EQ(serialize_schedule(shrink_schedule(s)), serialize_schedule(s));
}

}  // namespace
}  // namespace recosim::fault
