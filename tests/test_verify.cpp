#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "buscom/buscom.hpp"
#include "conochi/conochi.hpp"
#include "dynoc/dynoc.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/check.hpp"
#include "sim/kernel.hpp"
#include "verify/baseline.hpp"
#include "verify/fault_plan.hpp"
#include "verify/line_reader.hpp"
#include "verify/lint_driver.hpp"
#include "verify/rules.hpp"
#include "verify/scenario.hpp"
#include "verify/topology.hpp"
#include "verify/verifier.hpp"

namespace recosim::verify {
namespace {

// Fixture directories injected by tests/CMakeLists.txt.
#ifndef RECOSIM_LINT_FIXTURES
#define RECOSIM_LINT_FIXTURES "tests/fixtures/lint"
#endif
#ifndef RECOSIM_SCENARIOS
#define RECOSIM_SCENARIOS "examples/scenarios"
#endif

DiagnosticSink lint_file(const std::string& name) {
  DiagnosticSink sink;
  auto s = parse_scenario_file(std::string(RECOSIM_LINT_FIXTURES) + "/" +
                                   name,
                               sink);
  EXPECT_TRUE(s.has_value()) << name;
  if (s) Verifier::check_all(*s, sink);
  return sink;
}

DiagnosticSink lint_text(const std::string& text) {
  DiagnosticSink sink;
  auto s = parse_scenario(text, "inline.rcs", sink);
  if (s) Verifier::check_all(*s, sink);
  return sink;
}

// ---- Seeded-invalid fixtures must trip exactly the seeded rule. ---------

TEST(LintFixtures, BuscomSlotConflictIsBUS002) {
  auto sink = lint_file("buscom_slot_conflict.rcs");
  EXPECT_TRUE(sink.has_rule("BUS002")) << sink.to_text();
  EXPECT_GT(sink.error_count(), 0u);
}

TEST(LintFixtures, BuscomOverlongRoundIsBUS003) {
  auto sink = lint_file("buscom_overslots.rcs");
  EXPECT_TRUE(sink.has_rule("BUS003")) << sink.to_text();
}

TEST(LintFixtures, DynocBorderPlacementIsDYN001) {
  auto sink = lint_file("dynoc_border.rcs");
  EXPECT_TRUE(sink.has_rule("DYN001")) << sink.to_text();
  EXPECT_FALSE(sink.has_rule("DYN005"));
}

TEST(LintFixtures, ConochiRouteLoopIsCON001) {
  auto sink = lint_file("conochi_table_loop.rcs");
  EXPECT_TRUE(sink.has_rule("CON001")) << sink.to_text();
}

TEST(LintFixtures, RmbocOversubscribedSegmentIsRMB003) {
  auto sink = lint_file("rmboc_oversubscribed.rcs");
  EXPECT_TRUE(sink.has_rule("RMB003")) << sink.to_text();
  // Only segment 1 is oversubscribed (6 of 4 lanes).
  EXPECT_EQ(sink.count_rule("RMB003"), 1u);
}

TEST(LintFixtures, FloorplanOverlapIsFLP001) {
  auto sink = lint_file("floorplan_overlap.rcs");
  EXPECT_TRUE(sink.has_rule("FLP001")) << sink.to_text();
  EXPECT_TRUE(sink.has_rule("FLP004"));
}

// ---- The shipped example scenarios must be perfectly clean. -------------

TEST(LintExamples, ShippedScenariosProduceZeroDiagnostics) {
  for (const char* name :
       {"buscom_prototype.rcs", "rmboc_prototype.rcs", "dynoc_5x5.rcs",
        "conochi_mesh.rcs"}) {
    DiagnosticSink sink;
    auto s = parse_scenario_file(std::string(RECOSIM_SCENARIOS) + "/" +
                                     name,
                                 sink);
    ASSERT_TRUE(s.has_value()) << name;
    Verifier::check_all(*s, sink);
    EXPECT_TRUE(sink.empty()) << name << ":\n" << sink.to_text();
  }
}

// ---- Parser diagnostics. ------------------------------------------------

TEST(ScenarioParser, UnknownDirectiveIsLNT001) {
  auto sink = lint_text("arch buscom\nmodule 1\nfrobnicate 3\n");
  EXPECT_TRUE(sink.has_rule("LNT001")) << sink.to_text();
}

TEST(ScenarioParser, MissingArchIsFatal) {
  DiagnosticSink sink;
  EXPECT_FALSE(parse_scenario("module 1\n", "x.rcs", sink).has_value());
  EXPECT_TRUE(sink.has_rule("LNT001"));
}

TEST(ScenarioParser, UndeclaredModuleIsLNT002) {
  auto sink = lint_text("arch rmboc\nplace 7 0\n");
  EXPECT_TRUE(sink.has_rule("LNT002")) << sink.to_text();
}

TEST(ScenarioParser, DirectiveForWrongArchIsLNT002) {
  auto sink = lint_text("arch dynoc\nmodule 1\nslot 0 0 1\n");
  EXPECT_TRUE(sink.has_rule("LNT002")) << sink.to_text();
}

TEST(ScenarioParser, OneBadLineDoesNotHideTheRest) {
  auto sink = lint_text(
      "arch buscom\nset slots_per_round 48\nbogus\nmodule 1\nslot 0 0 1\n");
  EXPECT_TRUE(sink.has_rule("LNT001"));
  EXPECT_TRUE(sink.has_rule("BUS003"));  // checks still ran
}

// Every parser diagnostic pinpoints line AND column so an editor can jump
// straight to the offending token, not just the offending line.
TEST(ScenarioParser, DiagnosticsCarryLineAndColumn) {
  auto sink = lint_text("arch buscom\nfrobnicate 3\nslot 0 0 1\nslot x 0 1\n");
  ASSERT_TRUE(sink.has_rule("LNT001")) << sink.to_text();
  bool saw_token_column = false;
  for (const auto& d : sink.diagnostics()) {
    if (d.rule != "LNT001" && d.rule != "LNT002") continue;
    EXPECT_EQ(d.location.object.rfind("line ", 0), 0u) << sink.to_text();
    EXPECT_NE(d.location.object.find(':'), std::string::npos)
        << d.location.object;
    // The bad token 'x' sits at column 6 of line 4 — the column must
    // point at it, not at the directive.
    if (d.location.object == "line 4:6") saw_token_column = true;
  }
  EXPECT_TRUE(saw_token_column) << sink.to_text();
}

TEST(FaultPlanLint, DiagnosticsCarryLineAndColumn) {
  DiagnosticSink sink;
  auto plan = parse_fault_plan(
      "fault fail_node 100 1\nfault heal_node 50 1\nrate bit_flip 2.0\n"
      "bogus line\n",
      "inline.fplan", sink);
  check_fault_plan(plan, nullptr, sink);
  EXPECT_TRUE(sink.has_rule("LNT001")) << sink.to_text();
  EXPECT_TRUE(sink.has_rule("FLT001")) << sink.to_text();
  EXPECT_TRUE(sink.has_rule("FLT004")) << sink.to_text();
  for (const auto& d : sink.diagnostics()) {
    EXPECT_EQ(d.location.object.rfind("line ", 0), 0u) << sink.to_text();
    EXPECT_NE(d.location.object.find(':'), std::string::npos)
        << d.location.object;
  }
}

// ---- The line reader: whole tokens, nothing trailing, one LNT001. -------

/// The "line L:C" objects of the sink's findings of `rule`, in order.
std::vector<std::string> objects_of(const DiagnosticSink& sink,
                                    const std::string& rule = "LNT001") {
  std::vector<std::string> out;
  for (const auto& d : sink.diagnostics())
    if (d.rule == rule) out.push_back(d.location.object);
  return out;
}

TEST(LineReader, ArgumentsParseWholeTokensInRangeWithNothingAfter) {
  DiagnosticSink sink;
  std::vector<int> kept;
  const Directive table[] = {{"n", "n <value> [<more>]", [&](Args& a) {
                                const int v = a.integer<int>("value", 0, 9);
                                if (a.more()) a.integer<int>("more", 0, 9);
                                if (a.end()) kept.push_back(v);
                              }}};
  read_lines(
      "n 3\nn 1e3\nn 12abc\nn -1\nn 10\nn 4 5 6\nn\n"
      "  n 7 # comment\r\n\n# n x\nm 1\nn 99999999999999999999\n",
      "t", table, sink);
  EXPECT_EQ(kept, (std::vector<int>{3, 7}));
  // One finding per bad line, at the offending token (a missing one
  // points just past the line).
  EXPECT_EQ(objects_of(sink),
            (std::vector<std::string>{"line 2:3", "line 3:3", "line 4:3",
                                      "line 5:3", "line 6:7", "line 7:2",
                                      "line 11:1", "line 12:3"}))
      << sink.to_text();
}

TEST(LineReader, WordsAndRealsAreCheckedWhole) {
  DiagnosticSink sink;
  constexpr std::string_view kNames[] = {"low", "high"};
  std::vector<std::pair<std::size_t, double>> kept;
  const Directive table[] = {{"w", "w <name> <real>", [&](Args& a) {
                                const std::size_t i = a.word("name", kNames);
                                const double r = a.real("real");
                                if (a.end()) kept.push_back({i, r});
                              }}};
  read_lines("w high 0.25\nw mid 1\nw low 1.5x\nw low nan\nw low -2e3\n",
             "t", table, sink);
  EXPECT_EQ(kept, (std::vector<std::pair<std::size_t, double>>{
                      {1, 0.25}, {0, -2000.0}}));
  EXPECT_EQ(objects_of(sink), (std::vector<std::string>{
                                  "line 2:3", "line 3:7", "line 4:7"}))
      << sink.to_text();
  EXPECT_NE(sink.to_text().find("one of: low, high"), std::string::npos);
}

TEST(FaultPlanLint, MalformedNumbersAreLNT001AtTheTokenAndNotPlanned) {
  DiagnosticSink sink;
  // "1e3" used to read as cycle 1 with both coordinates 0, a negative
  // cycle was accepted and a trailing token ignored.
  const auto doc = parse_fault_plan(
      "fault fail_node 1e3 3 3\nfault fail_node -5 1 1\n"
      "fault fail_node 5 1 1 9\nrate drop 0.5 x\nfault heal_node 2000 3 3\n",
      "inline.fplan", sink);
  EXPECT_EQ(objects_of(sink),
            (std::vector<std::string>{"line 1:17", "line 2:17", "line 3:23",
                                      "line 4:15"}))
      << sink.to_text();
  ASSERT_EQ(doc.plan.scheduled.size(), 1u);
  EXPECT_EQ(doc.plan.scheduled[0].kind, fault::FaultKind::kNodeHeal);
  EXPECT_EQ(doc.event_pos[0].line, 5);
  EXPECT_EQ(doc.plan.drop_rate, 0.0);
}

TEST(ScenarioParser, MalformedOptionalArgumentsAreLNT001) {
  // `module 1 2 x` used to declare a 2x0 module, `channel 1 2 junk` a
  // channel of 0 lanes.
  DiagnosticSink sink;
  auto s = parse_scenario(
      "arch rmboc\nmodule 1 2 x\nmodule 2\nchannel 2 2 junk\n"
      "module 3 2\n",
      "inline.rcs", sink);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(objects_of(sink),
            (std::vector<std::string>{"line 2:12", "line 4:13"}))
      << sink.to_text();
  EXPECT_FALSE(s->has_module(1));
  EXPECT_TRUE(s->channels.empty());
  ASSERT_EQ(s->modules.size(), 2u);
  EXPECT_EQ(s->modules[1].width, 2);  // `module <id> [<w> [<h>]]`
  EXPECT_EQ(s->modules[1].height, 1);
}

TEST(ScenarioSettings, KeysAndValuesAreCheckedAgainstTheDeclaration) {
  DiagnosticSink sink;
  auto s = parse_scenario(
      "arch dynoc\nset widht 7\nset width 1e12\nset height 5.5\n"
      "set width -1\nset full_column 2\nset width 7\nset hop_cycles 2.5\n",
      "inline.rcs", sink);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(objects_of(sink),
            (std::vector<std::string>{"line 2:5", "line 3:11", "line 4:12",
                                      "line 5:11", "line 6:17"}))
      << sink.to_text();
  EXPECT_NE(sink.to_text().find("one of: buses, slots_per_round"),
            std::string::npos);
  const Topology t(*s);
  EXPECT_EQ(t.width, 7);
  EXPECT_EQ(t.height, 5);  // the declared default
  EXPECT_EQ(t.hop_cycles, 2.5);
  EXPECT_TRUE(t.full_column);
}

TEST(ScenarioSettings, TopologyDefaultsComeFromTheDeclaration) {
  Scenario empty;
  const Topology t(empty);
  for (const SettingDecl& d : kSettings) {
    EXPECT_LE(d.integral ? d.fallback : 0.0, d.max) << d.key;
    EXPECT_EQ(empty.setting(d.key), d.fallback);
  }
  EXPECT_EQ(t.buses, 4);
  EXPECT_EQ(t.slots_per_round, 32);
  EXPECT_EQ(t.width, 5);
  EXPECT_EQ(t.grid_height, 8);
  EXPECT_EQ(t.drain_timeout, 20000);
  EXPECT_EQ(t.dynamic_fraction, 0.25);
}

// ---- Additional static rules exercised in-memory. -----------------------

TEST(StaticChecks, BuscomDemandBeyondStaticSlotsIsBUS005) {
  auto sink = lint_text(
      "arch buscom\nmodule 1\nslot 0 0 1\ndemand 1 100000\n");
  EXPECT_TRUE(sink.has_rule("BUS005")) << sink.to_text();
}

TEST(StaticChecks, BuscomModuleWithoutStaticSlotWarnsBUS004) {
  auto sink = lint_text("arch buscom\nmodule 1\nmodule 2\nslot 0 0 1\n");
  EXPECT_TRUE(sink.has_rule("BUS004"));
  EXPECT_EQ(sink.error_count(), 0u);  // a warning, not an error
}

TEST(StaticChecks, RmbocUnplacedEndpointIsRMB002) {
  auto sink = lint_text(
      "arch rmboc\nmodule 1\nmodule 2\nplace 1 0\nchannel 1 2\n");
  EXPECT_TRUE(sink.has_rule("RMB002")) << sink.to_text();
}

TEST(StaticChecks, RmbocLaneOverrequestWarnsRMB005) {
  auto sink = lint_text(
      "arch rmboc\nmodule 1\nmodule 2\nplace 1 0\nplace 2 1\n"
      "channel 1 2 9\n");
  EXPECT_TRUE(sink.has_rule("RMB005"));
  EXPECT_EQ(sink.error_count(), 0u);
}

TEST(StaticChecks, DynocOversizedModuleIsDYN005) {
  auto sink = lint_text(
      "arch dynoc\nset width 5\nset height 5\nmodule 1 4 4\nplace 1 0 0\n");
  EXPECT_TRUE(sink.has_rule("DYN005")) << sink.to_text();
}

TEST(StaticChecks, DynocWalledOffPairIsDYN003) {
  // Modules 2-5 form a closed wall around module 1 (the border corridor
  // cannot help: the pocket is sealed), so module 6 outside the pocket is
  // unreachable from module 1.
  auto sink = lint_text(
      "arch dynoc\nset width 9\nset height 9\n"
      "module 1 1 1\nmodule 2 3 1\nmodule 3 3 1\n"
      "module 4 1 3\nmodule 5 1 3\nmodule 6 1 1\n"
      "place 1 4 4\nplace 2 3 2\nplace 3 3 6\n"
      "place 4 2 3\nplace 5 6 3\nplace 6 7 7\n");
  EXPECT_TRUE(sink.has_rule("DYN003")) << sink.to_text();
}

TEST(StaticChecks, ConochiRoutePortWithoutLinkIsCON003) {
  auto sink = lint_text(
      "arch conochi\nswitch 1 1\nswitch 5 1\nwire 2 1 4 1\n"
      "route 1 1 1 0\n");  // north port of (1,1) has no link
  EXPECT_TRUE(sink.has_rule("CON003")) << sink.to_text();
}

TEST(StaticChecks, ConochiDisconnectedAttachmentsAreCON002) {
  auto sink = lint_text(
      "arch conochi\nswitch 1 1\nswitch 5 5\n"  // no wires at all
      "module 1\nmodule 2\nattach 1 1 1\nattach 2 5 5\n");
  EXPECT_TRUE(sink.has_rule("CON002")) << sink.to_text();
}

TEST(StaticChecks, FloorplanRegionOutsideDeviceIsFLP002) {
  auto sink = lint_text(
      "arch buscom\nmodule 1\nslot 0 0 1\ndevice 16 16\n"
      "region 1 8 0 16 8\n");
  EXPECT_TRUE(sink.has_rule("FLP002")) << sink.to_text();
}

TEST(StaticChecks, FullColumnSharingWarnsFLP003) {
  auto sink = lint_text(
      "arch buscom\nmodule 1\nmodule 2\nslot 0 0 1\nslot 0 1 2\n"
      "device 48 32\nregion 1 0 0 16 8\nregion 2 0 16 16 8\n");
  EXPECT_TRUE(sink.has_rule("FLP003"));
  EXPECT_EQ(sink.error_count(), 0u);
}

// ---- Runtime invariants of live architectures. --------------------------

fpga::HardwareModule mod() { return {.name = "m"}; }

TEST(RuntimeVerify, HealthyBuscomHasNoDiagnostics) {
  sim::Kernel kernel;
  buscom::Buscom bus(kernel, buscom::BuscomConfig{});
  for (fpga::ModuleId id = 1; id <= 4; ++id)
    ASSERT_TRUE(bus.attach(id, mod()));
  DiagnosticSink sink;
  Verifier::check_all(bus, sink);
  EXPECT_TRUE(sink.empty()) << sink.to_text();
}

TEST(RuntimeVerify, HealthyRmbocWithChannelHasNoDiagnostics) {
  sim::Kernel kernel;
  rmboc::Rmboc rm(kernel, rmboc::RmbocConfig{});
  ASSERT_TRUE(rm.attach(1, mod()));
  ASSERT_TRUE(rm.attach(2, mod()));
  DiagnosticSink sink;
  Verifier::check_all(rm, sink);
  EXPECT_EQ(sink.error_count(), 0u) << sink.to_text();
}

TEST(RuntimeVerify, HealthyDynocHasNoDiagnostics) {
  sim::Kernel kernel;
  dynoc::Dynoc dy(kernel, dynoc::DynocConfig{});
  ASSERT_TRUE(dy.attach(1, mod()));
  ASSERT_TRUE(dy.attach(2, mod()));
  DiagnosticSink sink;
  Verifier::check_all(dy, sink);
  EXPECT_TRUE(sink.empty()) << sink.to_text();
}

TEST(RuntimeVerify, HealthyConochiHasNoDiagnostics) {
  sim::Kernel kernel;
  conochi::ConochiConfig cfg;
  cfg.grid_width = 7;
  cfg.grid_height = 4;
  conochi::Conochi cn(kernel, cfg);
  ASSERT_TRUE(cn.add_switch({1, 1}));
  ASSERT_TRUE(cn.add_switch({4, 1}));
  ASSERT_TRUE(cn.lay_wire({2, 1}, {3, 1}));
  ASSERT_TRUE(cn.attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(cn.attach_at(2, mod(), {4, 1}));
  DiagnosticSink sink;
  Verifier::check_all(cn, sink);
  EXPECT_EQ(sink.error_count(), 0u) << sink.to_text();
}

// ---- Kernel runtime checks (RECOSIM_CHECK) are interceptable. -----------

struct CheckFired : std::runtime_error {
  explicit CheckFired(const char* rule) : std::runtime_error(rule) {}
};

void throwing_handler(const char* rule, const char*, const char*,
                      const char*, int) {
  throw CheckFired(rule);
}

TEST(KernelChecks, SchedulingInThePastFiresSIM001) {
  sim::Kernel kernel;
  kernel.run(5);
  auto* previous = sim::set_check_handler(&throwing_handler);
  EXPECT_THROW(
      {
        try {
          kernel.schedule_at(2, [] {});
        } catch (const CheckFired& e) {
          EXPECT_STREQ(e.what(), "SIM001");
          throw;
        }
      },
      CheckFired);
  sim::set_check_handler(previous);
}

TEST(KernelChecks, SchedulingAtNowIsAllowed) {
  sim::Kernel kernel;
  kernel.run(5);
  bool ran = false;
  kernel.schedule_at(5, [&] { ran = true; });
  kernel.step();
  EXPECT_TRUE(ran);
}

// ---- Fault-plan lint (FLT rules). ---------------------------------------

DiagnosticSink lint_plan(const std::string& plan_text,
                         const std::string& topo_text = {}) {
  DiagnosticSink sink;
  std::optional<Scenario> topo;
  if (!topo_text.empty()) {
    topo = parse_scenario(topo_text, "topo.rcs", sink);
    EXPECT_TRUE(topo.has_value());
  }
  auto plan = parse_fault_plan(plan_text, "inline.fplan", sink);
  check_fault_plan(plan, topo ? &*topo : nullptr, sink);
  return sink;
}

TEST(FaultPlanLint, HealWithoutPriorFailIsFLT001) {
  auto sink = lint_plan("fault heal_node 100 3 3\n");
  EXPECT_TRUE(sink.has_rule("FLT001")) << sink.to_text();
}

TEST(FaultPlanLint, HealAfterFailIsClean) {
  auto sink =
      lint_plan("fault fail_node 100 3 3\nfault heal_node 200 3 3\n");
  EXPECT_TRUE(sink.empty()) << sink.to_text();
}

TEST(FaultPlanLint, HealOrderingFollowsTimeNotDeclarationOrder) {
  // Declared heal-first, but the cycle stamps put the fail first.
  auto sink =
      lint_plan("fault heal_node 900 3 3\nfault fail_node 100 3 3\n");
  EXPECT_TRUE(sink.empty()) << sink.to_text();
}

TEST(FaultPlanLint, UnknownSwitchIsFLT002) {
  const std::string topo =
      "arch conochi\nswitch 1 1\nswitch 5 1\n";
  auto sink = lint_plan("fault fail_node 100 3 3\n", topo);
  EXPECT_TRUE(sink.has_rule("FLT002")) << sink.to_text();
}

TEST(FaultPlanLint, LinkFaultOnLinklessArchIsFLT002) {
  auto sink = lint_plan("fault fail_link 100 0 0\n", "arch buscom\n");
  EXPECT_TRUE(sink.has_rule("FLT002")) << sink.to_text();
}

TEST(FaultPlanLint, RmbocLinkInRangeIsClean) {
  const std::string topo = "arch rmboc\nset slots 4\nset buses 4\n";
  auto sink = lint_plan(
      "fault fail_link 100 2 3\nfault heal_link 200 2 3\n", topo);
  EXPECT_TRUE(sink.empty()) << sink.to_text();
  auto bad = lint_plan("fault fail_link 100 3 0\n", topo);  // 3 segments
  EXPECT_TRUE(bad.has_rule("FLT002")) << bad.to_text();
}

TEST(FaultPlanLint, AllBusesDownAtOnceIsFLT003) {
  const std::string topo = "arch buscom\nset buses 2\n";
  auto sink = lint_plan(
      "fault fail_node 100 0\nfault fail_node 200 1\n", topo);
  EXPECT_TRUE(sink.has_rule("FLT003")) << sink.to_text();
  // A heal in between keeps one bus alive throughout.
  auto ok = lint_plan(
      "fault fail_node 100 0\nfault heal_node 150 0\n"
      "fault fail_node 200 1\n",
      topo);
  EXPECT_FALSE(ok.has_rule("FLT003")) << ok.to_text();
}

TEST(FaultPlanLint, RateOutsideUnitIntervalIsFLT004) {
  auto sink = lint_plan("rate bit_flip 1.5\n");
  EXPECT_TRUE(sink.has_rule("FLT004")) << sink.to_text();
  EXPECT_TRUE(lint_plan("rate drop 0.5\n").empty());
}

TEST(LintMessages, DemandAndRateNumbersPrintLikeTheEnvelopeRules) {
  // BUS005, SCH001 and FLT004 print numbers through num(), as the ENV
  // rules do: "100000", not "100000.000000".
  auto sink = lint_text("arch buscom\nmodule 1\nslot 0 0 1\ndemand 1 100000\n");
  EXPECT_NE(sink.to_text().find("declared demand of 100000 bytes/round "
                                "exceeds the 61.500000 bytes its 1 static"),
            std::string::npos)
      << sink.to_text();
  auto rate = lint_plan("rate bit_flip 2\n");
  EXPECT_NE(rate.to_text().find("rate bit_flip = 2 lies outside [0, 1]"),
            std::string::npos)
      << rate.to_text();
}

TEST(FaultPlanLint, MalformedLinesAreLNT001) {
  auto sink = lint_plan("fault explode 100 1 1\nrate nosuch 0.1\nbogus\n");
  EXPECT_EQ(sink.count_rule("LNT001"), 3u) << sink.to_text();
}

TEST(FaultPlanLint, ChaosScheduleLinesAreAccepted) {
  // A shrunk recosim-chaos schedule must lint without editing.
  auto sink = lint_plan(
      "# recosim chaos schedule\narch dynoc\nseed 42\nhorizon 30000\n"
      "rate icap_abort 0.8\nfault fail_node 6622 3 3\n"
      "fault heal_node 9000 3 3\nop load 2228 11 0 2 2\n");
  EXPECT_TRUE(sink.empty()) << sink.to_text();
}

TEST(FaultPlanLint, ShippedFixturesBehave) {
  DiagnosticSink sink;
  auto valid = parse_fault_plan_file(
      std::string(RECOSIM_LINT_FIXTURES) + "/fault_valid.fplan", sink);
  ASSERT_TRUE(valid.has_value());
  DiagnosticSink topo_sink;
  auto topo = parse_scenario_file(
      std::string(RECOSIM_SCENARIOS) + "/conochi_mesh.rcs", topo_sink);
  ASSERT_TRUE(topo.has_value());
  check_fault_plan(*valid, &*topo, sink);
  EXPECT_TRUE(sink.empty()) << sink.to_text();

  DiagnosticSink heal_sink;
  auto heal = parse_fault_plan_file(
      std::string(RECOSIM_LINT_FIXTURES) + "/fault_heal_without_fail.fplan",
      heal_sink);
  ASSERT_TRUE(heal.has_value());
  check_fault_plan(*heal, nullptr, heal_sink);
  EXPECT_TRUE(heal_sink.has_rule("FLT001")) << heal_sink.to_text();
}

// ---- Rule registry sanity. ----------------------------------------------

TEST(RuleRegistry, EveryEmittedRuleIsRegistered) {
  for (const char* id :
       {"BUS001", "BUS002", "BUS003", "BUS004", "BUS005", "BUS006",
        "RMB001", "RMB002", "RMB003", "RMB004", "RMB005", "RMB006",
        "DYN001", "DYN002", "DYN003", "DYN004", "DYN005", "CON001",
        "CON002", "CON003", "CON004", "CON005", "CON006", "FLP001",
        "FLP002", "FLP003", "FLP004", "SIM001", "SIM003", "LNT001",
        "LNT002", "FLT001", "FLT002", "FLT003", "FLT004"})
    EXPECT_NE(find_rule(id), nullptr) << id;
  EXPECT_EQ(find_rule("XXX999"), nullptr);
}

// ---- Lint driver: exit-code contract, baseline × --werror. --------------

/// Write `text` to a temp file and return its path.
std::string temp_scenario(const std::string& name,
                          const std::string& text) {
  const std::string path =
      testing::TempDir() + "lint_driver_" + name + ".rcs";
  std::ofstream out(path);
  out << text;
  EXPECT_TRUE(out.good());
  return path;
}

TEST(LintDriver, ErrorFindingsFailTheRunUntilBaselined) {
  LintOptions opt;
  opt.files = {std::string(RECOSIM_LINT_FIXTURES) +
               "/buscom_slot_conflict.rcs"};
  const LintOutcome direct = run_lint(opt);
  ASSERT_FALSE(direct.parse_failed);
  ASSERT_GT(direct.sink.error_count(), 0u);
  EXPECT_EQ(direct.exit_code(/*werror=*/false), 1);

  // Baseline everything the run found; the rerun reports nothing and
  // exits clean.
  Baseline baseline;
  ASSERT_TRUE(baseline.parse(Baseline::write(direct.per_file)));
  opt.baseline = &baseline;
  const LintOutcome rerun = run_lint(opt);
  EXPECT_EQ(rerun.sink.size(), 0u);
  EXPECT_EQ(rerun.suppressed, direct.sink.size());
  EXPECT_EQ(rerun.exit_code(/*werror=*/false), 0);
}

TEST(LintDriver, BaselineSuppressedWarningsDoNotTripWerror) {
  // BUS004 (module without a static slot) is warning severity: clean
  // without --werror, exit 1 with it — unless the baseline covers it.
  const std::string path = temp_scenario(
      "warn_only", "arch buscom\nmodule 1\nmodule 2\nslot 0 0 1\n");
  LintOptions opt;
  opt.files = {path};
  const LintOutcome direct = run_lint(opt);
  ASSERT_FALSE(direct.parse_failed);
  ASSERT_EQ(direct.sink.error_count(), 0u);
  ASSERT_GT(direct.sink.count(Severity::kWarning), 0u);
  EXPECT_EQ(direct.exit_code(/*werror=*/false), 0);
  EXPECT_EQ(direct.exit_code(/*werror=*/true), 1);

  Baseline baseline;
  ASSERT_TRUE(baseline.parse(Baseline::write(direct.per_file)));
  opt.baseline = &baseline;
  const LintOutcome rerun = run_lint(opt);
  EXPECT_GT(rerun.suppressed, 0u);
  // The regression this guards: a suppressed warning must influence
  // neither the werror path nor any other exit-code branch.
  EXPECT_EQ(rerun.exit_code(/*werror=*/true), 0);
}

TEST(LintDriver, ParseFailureStaysExitTwoDespiteBaseline) {
  const std::string path =
      temp_scenario("garbage", "arch nonsense_arch\n%%%\n");
  LintOptions opt;
  opt.files = {path};
  const LintOutcome direct = run_lint(opt);
  ASSERT_TRUE(direct.parse_failed);
  EXPECT_EQ(direct.exit_code(/*werror=*/false), 2);

  // Even a baseline recording every finding cannot mask a file that did
  // not parse.
  Baseline baseline;
  ASSERT_TRUE(baseline.parse(Baseline::write(direct.per_file)));
  opt.baseline = &baseline;
  EXPECT_EQ(run_lint(opt).exit_code(/*werror=*/true), 2);
}

TEST(LintDriver, FreshBaselineWriteAcknowledgesItsFindings) {
  LintOptions opt;
  opt.files = {std::string(RECOSIM_LINT_FIXTURES) +
               "/buscom_slot_conflict.rcs"};
  const LintOutcome outcome = run_lint(opt);
  ASSERT_GT(outcome.sink.error_count(), 0u);
  EXPECT_EQ(outcome.exit_code(/*werror=*/true, /*baseline_written=*/true),
            0);
}

// ---- The scenario model, on cases no fixture reaches. ------------------

Scenario parse_ok(const std::string& text) {
  DiagnosticSink sink;
  auto s = parse_scenario(text, "inline.rcs", sink);
  EXPECT_TRUE(s.has_value() && sink.empty()) << sink.to_text();
  return s ? *s : Scenario{};
}

TEST(TopologyModel, AdjacentConochiSwitchesLinkWithoutAWire) {
  const Scenario s = parse_ok("arch conochi\nswitch 1 1\nswitch 2 1\n");
  const Topology t(s);
  EXPECT_EQ(t.port_peer(0, 1), 1);  // east
  EXPECT_EQ(t.port_peer(1, 3), 0);  // west
  EXPECT_EQ(t.switch_distance(0, 1, nullptr), 1);
}

TEST(TopologyModel, ASwitchInLineBlocksTheLinkPastIt) {
  const Scenario s = parse_ok(
      "arch conochi\nswitch 1 1\nswitch 3 1\nswitch 5 1\nwire 2 1 4 1\n");
  const Topology t(s);
  // The run covers every tile between the outer switches, but the middle
  // one sits in between: the outer pair links only through it.
  EXPECT_EQ(t.port_peer(0, 1), 1);
  EXPECT_EQ(t.port_peer(2, 3), 1);
  EXPECT_EQ(t.switch_distance(0, 2, nullptr), 2);
  const FailedSet middle{{3, 1}};
  EXPECT_EQ(t.switch_distance(0, 2, &middle), -1);
}

TEST(TopologyModel, AWireRunOneTileShortDoesNotLink) {
  const Scenario shy = parse_ok(
      "arch conochi\nswitch 1 1\nswitch 5 1\nwire 2 1 3 1\n");
  const Topology t(shy);
  EXPECT_EQ(t.port_peer(0, 1), -1);
  EXPECT_EQ(t.switch_distance(0, 1, nullptr), -1);
  const Scenario full = parse_ok(
      "arch conochi\nswitch 1 1\nswitch 5 1\nwire 2 1 4 1\n");
  EXPECT_EQ(Topology(full).switch_distance(0, 1, nullptr), 1);
}

TEST(TopologyModel, AFailedRingRouterCanSealADynocModule) {
  // In a one-row array, module 2's ring keeps a single router, (1, 0).
  const Scenario s = parse_ok(
      "arch dynoc\nset width 4\nset height 1\nmodule 1\nmodule 2 2 1\n"
      "place 1 0 0\nplace 2 2 0\n");
  const Topology t(s);
  const fpga::Rect a = *t.footprint(1);
  const fpga::Rect b = *t.footprint(2);
  const DynocMesh mesh = t.mesh({a, b});
  EXPECT_EQ(mesh.distance(a, b, nullptr), 1);
  const FailedSet ring{{1, 0}};
  EXPECT_EQ(mesh.distance(a, b, &ring), -1);
}

TEST(TopologyModel, DoublyFailedRmbocLanesFloorAtZero) {
  const Scenario s =
      parse_ok("arch rmboc\nset slots 3\nset buses 1\n");
  const Topology t(s);
  const FailedSet links{{0, 0}, {0, 1}};
  EXPECT_EQ(t.lanes_up(0, links), 0);
  EXPECT_EQ(t.lanes_up(1, links), 1);
}

}  // namespace
}  // namespace recosim::verify
