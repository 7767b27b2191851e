#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "fault/chaos.hpp"
#include "verify/baseline.hpp"
#include "verify/diagnostic.hpp"
#include "verify/envelope.hpp"
#include "verify/fault_plan.hpp"
#include "verify/lint_driver.hpp"
#include "verify/scenario.hpp"
#include "verify/timeline.hpp"

namespace recosim::verify {
namespace {

// Fixture directory injected by tests/CMakeLists.txt.
#ifndef RECOSIM_LINT_FIXTURES
#define RECOSIM_LINT_FIXTURES "tests/fixtures/lint"
#endif

DiagnosticSink timeline_file(const std::string& stem,
                             bool with_plan = false,
                             const EnvelopeParams* params = nullptr) {
  DiagnosticSink sink;
  const std::string base = std::string(RECOSIM_LINT_FIXTURES) + "/" + stem;
  auto s = parse_scenario_file(base + ".rcs", sink);
  EXPECT_TRUE(s.has_value()) << stem;
  if (!s) return sink;
  if (with_plan) {
    auto plan = parse_fault_plan_file(base + ".fplan", sink);
    EXPECT_TRUE(plan.has_value()) << stem;
    if (plan) {
      check_fault_plan(*plan, &*s, sink);
      Timeline::check(*s, &*plan, sink, params);
      return sink;
    }
  }
  Timeline::check(*s, nullptr, sink, params);
  return sink;
}

DiagnosticSink timeline_text(const std::string& scenario,
                             const std::string& plan_text = {},
                             const EnvelopeParams* params = nullptr) {
  DiagnosticSink sink;
  auto s = parse_scenario(scenario, "inline.rcs", sink);
  EXPECT_TRUE(s.has_value());
  if (!s) return sink;
  if (plan_text.empty()) {
    Timeline::check(*s, nullptr, sink, params);
  } else {
    auto plan = parse_fault_plan(plan_text, "inline.fplan", sink);
    Timeline::check(*s, &plan, sink, params);
  }
  return sink;
}

const Diagnostic* find_rule(const DiagnosticSink& sink,
                            const std::string& rule,
                            const std::string& object = {}) {
  for (const auto& d : sink.diagnostics())
    if (d.rule == rule && (object.empty() || d.location.object == object))
      return &d;
  return nullptr;
}

void expect_window(const DiagnosticSink& sink, const std::string& rule,
                   long long begin, long long end,
                   const std::string& object = {}) {
  const Diagnostic* d = find_rule(sink, rule, object);
  ASSERT_NE(d, nullptr) << rule << " " << object << " missing:\n"
                        << sink.to_text();
  EXPECT_EQ(d->window_begin, begin) << sink.to_text();
  EXPECT_EQ(d->window_end, end) << sink.to_text();
}

// ---- Seeded-invalid envelope fixtures. ---------------------------------

TEST(EnvelopeFixtures, RmbocOverrequestIsENV001WarningPerSegment) {
  auto sink = timeline_file("envelope_rmboc_overrequest");
  // The 6-lane request crosses segments 0 and 1; both report the
  // worst-case overshoot, but the clamped demand still fits, so this is
  // a warning, not an error.
  expect_window(sink, "ENV001", 0, -1, "segment 0");
  expect_window(sink, "ENV001", 0, -1, "segment 1");
  EXPECT_EQ(sink.count_rule("ENV001"), 2u) << sink.to_text();
  EXPECT_EQ(sink.error_count(), 0u) << sink.to_text();
}

TEST(EnvelopeFixtures, BuscomOvercommitIsENV001Error) {
  auto sink = timeline_file("envelope_buscom_overcommit");
  expect_window(sink, "ENV001", 500, 1500, "round");
  const Diagnostic* d = find_rule(sink, "ENV001");
  ASSERT_NE(d, nullptr);
  // All 300 bytes of demand are guaranteed (slot-backed), so the round
  // envelope is provably violated: error severity, SCH001 concurring.
  EXPECT_EQ(d->severity, Severity::kError) << sink.to_text();
  EXPECT_TRUE(sink.has_rule("SCH001")) << sink.to_text();
}

TEST(EnvelopeFixtures, BuscomDegradedIsPureENV003) {
  auto sink = timeline_file("envelope_buscom_degraded", /*with_plan=*/true);
  expect_window(sink, "ENV003", 1000, 2000, "module 1");
  // Fault-aware infeasibility is the envelope's alone: the static
  // schedule rules see a feasible fault-free schedule.
  EXPECT_EQ(sink.size(), 1u) << sink.to_text();
  EXPECT_EQ(sink.error_count(), 1u) << sink.to_text();
}

TEST(EnvelopeFixtures, RmbocDegradedIsENV003PlusTMP004) {
  auto sink = timeline_file("envelope_rmboc_degraded", /*with_plan=*/true);
  expect_window(sink, "ENV003", 800, 1600, "segment 1");
  expect_window(sink, "TMP004", 800, 1600, "segment 1");
  EXPECT_GT(sink.error_count(), 0u);
}

TEST(EnvelopeFixtures, DynocSeveredCorridorIsENV003Warning) {
  auto sink = timeline_file("envelope_dynoc_corridor", /*with_plan=*/true);
  expect_window(sink, "ENV003", 1200, 2400, "flow 1->2");
  // The snapshot checkers cannot see faults, so nothing else fires; and
  // since delivery merely stalls until the heal, this stays a warning.
  EXPECT_EQ(sink.error_count(), 0u) << sink.to_text();
}

TEST(EnvelopeFixtures, ConochiDeadlineDetourIsENV002) {
  auto sink = timeline_file("envelope_conochi_deadline", /*with_plan=*/true);
  expect_window(sink, "ENV002", 1000, 2000, "flow 1->2");
  EXPECT_EQ(sink.error_count(), 1u) << sink.to_text();
}

TEST(EnvelopeFixtures, BuscomRoundWaitBreaksDeadlineOverWholeSchedule) {
  auto sink = timeline_file("envelope_buscom_deadline");
  expect_window(sink, "ENV002", 0, -1, "flow 1->2");
  EXPECT_NE(sink.to_text().find("@[0,end)"), std::string::npos)
      << sink.to_text();
}

// ---- ENV004 headroom is opt-in. ----------------------------------------

TEST(EnvelopeHeadroom, ENV004FiresOnlyWithHeadroomThreshold) {
  const std::string scenario =
      "arch buscom\n"
      "set buses 1\n"
      "set slots_per_round 4\n"
      "module 1\n"
      "slot 0 0 1\n"
      "slot 0 1 1\n"
      "slot 0 2 1\n"
      "slot 0 3 1\n"
      "demand 1 230\n";
  // 230 of 246 bytes/round used: ~6.5% headroom.
  auto quiet = timeline_text(scenario);
  EXPECT_FALSE(quiet.has_rule("ENV004")) << quiet.to_text();
  EXPECT_TRUE(quiet.empty()) << quiet.to_text();

  EnvelopeParams params;
  params.headroom_pct = 20.0;
  auto sink = timeline_text(scenario, {}, &params);
  const Diagnostic* d = find_rule(sink, "ENV004");
  ASSERT_NE(d, nullptr) << sink.to_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
}

// ---- envelope_feasible pruning oracle. ---------------------------------

TEST(EnvelopeOracle, FeasibleScheduleIsFeasible) {
  DiagnosticSink parse;
  auto s = parse_scenario_file(
      std::string(RECOSIM_LINT_FIXTURES) + "/valid/timeline_buscom.rcs",
      parse);
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(envelope_feasible(*s, nullptr, EnvelopeParams{}));
}

TEST(EnvelopeOracle, DegradedInfeasibleScheduleIsRejectedAndCollected) {
  const std::string base =
      std::string(RECOSIM_LINT_FIXTURES) + "/envelope_buscom_degraded";
  DiagnosticSink parse;
  auto s = parse_scenario_file(base + ".rcs", parse);
  auto plan = parse_fault_plan_file(base + ".fplan", parse);
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(plan.has_value());

  std::vector<ResourceEnvelope> envelopes;
  EnvelopeParams params;
  params.collect = &envelopes;
  EXPECT_FALSE(envelope_feasible(*s, &*plan, params));
  ASSERT_FALSE(envelopes.empty());
  for (const auto& e : envelopes) {
    EXPECT_LE(e.demand_min, e.demand_max) << e.resource;
    EXPECT_LE(e.capacity_min, e.capacity_max) << e.resource;
    if (e.window_end >= 0) {
      EXPECT_LE(e.window_begin, e.window_end);
    }
  }
}

// ---- Interval-merge edge cases. ----------------------------------------

TEST(EnvelopeMerge, FindingSpansUnrelatedHealEvent) {
  // Bus 0 (module 1's only capacity) is down for [1000,3000); bus 1
  // fails and heals inside that span, cutting the timeline at 1500 and
  // 2000. Module 1's ENV003 is identical in all three windows and must
  // merge back into one diagnostic spanning the heal.
  auto sink = timeline_text(
      "arch buscom\n"
      "set buses 3\n"
      "module 1\n"
      "module 2\n"
      "slot 0 0 1\n"
      "slot 0 1 1\n"
      "slot 1 0 2\n"
      "demand 1 100\n"
      "demand 2 50\n",
      "fault fail_node 1000 0\n"
      "fault fail_node 1500 1\n"
      "fault heal_node 2000 1\n"
      "fault heal_node 3000 0\n");
  expect_window(sink, "ENV003", 1000, 3000, "module 1");
  expect_window(sink, "ENV003", 1500, 2000, "module 2");
  EXPECT_EQ(sink.count_rule("ENV003"), 2u) << sink.to_text();
}

TEST(EnvelopeMerge, UnhealedFaultYieldsOpenInterval) {
  auto sink = timeline_text(
      "arch buscom\n"
      "set buses 2\n"
      "module 1\n"
      "module 2\n"
      "slot 0 0 1\n"
      "slot 0 1 1\n"
      "slot 1 0 2\n"
      "demand 1 100\n",
      "fault fail_node 1000 0\n");
  const Diagnostic* d = find_rule(sink, "ENV003", "module 1");
  ASSERT_NE(d, nullptr) << sink.to_text();
  EXPECT_EQ(d->window_begin, 1000);
  EXPECT_EQ(d->window_end, -1);
  EXPECT_NE(sink.to_text().find("@[1000,end)"), std::string::npos)
      << sink.to_text();
}

TEST(EnvelopeMerge, AdjacentWindowsMergeAcrossFaultPlanBoundary) {
  // Module 1 holds one slot on each bus; the plan fails bus 0 for
  // [1000,2000) and bus 1 for [2000,3000). The surviving capacity is the
  // same (one slot) either side of the 2000 boundary, so the two
  // adjacent ENV003 windows must merge into [1000,3000).
  auto sink = timeline_text(
      "arch buscom\n"
      "set buses 2\n"
      "module 1\n"
      "slot 0 0 1\n"
      "slot 1 0 1\n"
      "demand 1 100\n",
      "fault fail_node 1000 0\n"
      "fault heal_node 2000 0\n"
      "fault fail_node 2000 1\n"
      "fault heal_node 3000 1\n");
  expect_window(sink, "ENV003", 1000, 3000, "module 1");
  EXPECT_EQ(sink.count_rule("ENV003"), 1u) << sink.to_text();
}

// ---- Lint-hint-seeded shrinking. ---------------------------------------

fault::ChaosSchedule hint_test_schedule() {
  fault::ChaosSchedule s;
  s.arch = fault::ChaosArch::kRmboc;
  s.horizon = 10'000;
  for (int i = 1; i <= 8; ++i) {
    fault::ChaosOp op;
    op.at = static_cast<sim::Cycle>(i * 1000);
    op.kind = fault::ChaosOp::Kind::kLoad;
    op.id = static_cast<std::uint32_t>(20 + i);
    s.ops.push_back(op);
  }
  s.faults.fail_link_at(2000, 0, 1).heal_link_at(3000, 0, 1);
  s.faults.fail_link_at(5500, 1, 2).heal_link_at(5600, 1, 2);
  return s;
}

TEST(EnvelopeShrink, HintWindowsCutProbesAndConfineTheResult) {
  const auto schedule = hint_test_schedule();
  // Synthetic failure: the schedule fails iff it still contains an op in
  // [5000, 6000) — exactly the window a lint finding would flag.
  int hinted_probes = 0;
  int blind_probes = 0;
  const auto fails_with = [&](int* counter) {
    return [counter](const fault::ChaosSchedule& c) {
      ++*counter;
      for (const auto& op : c.ops)
        if (op.at >= 5000 && op.at < 6000) return true;
      return false;
    };
  };

  const auto hinted = fault::shrink_schedule(schedule, fails_with(&hinted_probes),
                                             {{5000, 6000}});
  const auto blind =
      fault::shrink_schedule(schedule, fails_with(&blind_probes), {});

  ASSERT_EQ(hinted.ops.size(), 1u);
  EXPECT_EQ(hinted.ops[0].at, 5000u);
  // The hint probe drops everything outside the window up front, so only
  // the in-window fault pair survives and the greedy loop starts small.
  EXPECT_TRUE(hinted.faults.scheduled.empty());
  EXPECT_EQ(blind.ops.size(), 1u);
  EXPECT_LT(hinted_probes, blind_probes)
      << "hinted=" << hinted_probes << " blind=" << blind_probes;
}

TEST(EnvelopeShrink, NonFailingScheduleIsReturnedUnchanged) {
  const auto schedule = hint_test_schedule();
  int probes = 0;
  const auto never = [&](const fault::ChaosSchedule&) {
    ++probes;
    return false;
  };
  const auto out = fault::shrink_schedule(schedule, never, {{5000, 6000}});
  EXPECT_EQ(out.ops.size(), schedule.ops.size());
  EXPECT_EQ(out.faults.scheduled.size(), schedule.faults.scheduled.size());
}

// ---- SARIF export. -----------------------------------------------------

Diagnostic sample_diag() {
  Diagnostic d;
  d.rule = "ENV001";
  d.severity = Severity::kWarning;
  d.location = {"rmboc", "segment 0"};
  d.message = "worst-case demand of 6 lane(s) exceeds the capacity of 4";
  d.fixit = "lower the demand in this window or add capacity";
  d.window_begin = 0;
  d.window_end = -1;
  return d;
}

TEST(Sarif, DocumentCarriesSchemaRulesAndResults) {
  FileFindings file;
  file.path = "tests/fixtures/lint/envelope_rmboc_overrequest.rcs";
  file.diags.push_back(sample_diag());
  Diagnostic line = sample_diag();
  line.rule = "LNT001";
  line.severity = Severity::kError;
  line.location = {"scenario", "line 3:7"};
  line.window_begin = line.window_end = -1;
  file.diags.push_back(line);

  const std::string doc = to_sarif({file});
  EXPECT_NE(doc.find("sarif-2.1.0"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("recosim-lint"), std::string::npos);
  EXPECT_NE(doc.find("\"ENV001\""), std::string::npos);
  EXPECT_NE(doc.find("envelope_rmboc_overrequest.rcs"), std::string::npos);
  // "line 3:7" objects become physical regions; others logical locations.
  EXPECT_NE(doc.find("\"startLine\": 3"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"startColumn\": 7"), std::string::npos) << doc;
  EXPECT_NE(doc.find("segment 0"), std::string::npos);
}

TEST(Sarif, EmptyRunIsStillAValidDocument) {
  const std::string doc = to_sarif({});
  EXPECT_NE(doc.find("\"results\": ["), std::string::npos) << doc;
  EXPECT_EQ(doc.find("\"ruleIndex\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
}

// ---- Baseline round-trip. ----------------------------------------------

TEST(BaselineSuppression, RoundTripSuppressesOnlyTheRecordedFindings) {
  FileFindings file;
  file.path = "a.rcs";
  file.diags.push_back(sample_diag());

  const std::string text = Baseline::write({file});
  Baseline baseline;
  ASSERT_TRUE(baseline.parse(text)) << text;
  EXPECT_EQ(baseline.size(), 1u);
  EXPECT_TRUE(baseline.suppressed("a.rcs", sample_diag()));

  // The message is deliberately not part of the key: reworded findings
  // at the same place stay suppressed.
  Diagnostic reworded = sample_diag();
  reworded.message = "different wording, same finding";
  EXPECT_TRUE(baseline.suppressed("a.rcs", reworded));

  // Same finding at a shifted window, a different path or a different
  // rule is new again.
  Diagnostic moved = sample_diag();
  moved.window_begin = 500;
  EXPECT_FALSE(baseline.suppressed("a.rcs", moved));
  EXPECT_FALSE(baseline.suppressed("b.rcs", sample_diag()));
  Diagnostic other = sample_diag();
  other.rule = "ENV003";
  EXPECT_FALSE(baseline.suppressed("a.rcs", other));
}

TEST(BaselineSuppression, GarbageDoesNotParse) {
  Baseline b;
  EXPECT_FALSE(b.parse("not a baseline"));
  EXPECT_TRUE(b.parse("{\"version\": 1, \"findings\": []}"));
  EXPECT_EQ(b.size(), 0u);
}

}  // namespace
}  // namespace recosim::verify
