// Golden outputs of the static analyzer. The fixture test pins the full
// text report (rule, severity, location, message, window, fix-it and
// order) of every shipped scenario and fault plan; the digest test pins
// every diagnostic and every envelope of the chaos schedule lint. A change
// to any rule's output, intended or not, shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "verify/envelope.hpp"
#include "verify/lint_driver.hpp"

#ifndef RECOSIM_SOURCE_DIR
#define RECOSIM_SOURCE_DIR "."
#endif

namespace {

namespace fs = std::filesystem;
using namespace recosim;

const std::string kRoot = RECOSIM_SOURCE_DIR;
const std::string kGolden = "tests/fixtures/lint_golden.txt";

/// The .rcs files of a directory (relative to the repository root), in
/// name order.
std::vector<std::string> scenarios_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& e : fs::directory_iterator(kRoot + "/" + dir))
    if (e.path().extension() == ".rcs")
      out.push_back(dir + "/" + e.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

/// One run_lint over `files`, rendered as recosim-lint's text report with
/// paths relative to the repository root.
std::string lint_report(const std::vector<std::string>& files,
                        bool timeline) {
  verify::LintOptions opt;
  opt.timeline = timeline;
  std::string out = timeline ? "== timeline" : "== snapshot";
  for (const auto& f : files) {
    opt.files.push_back(kRoot + "/" + f);
    out.append(" ").append(f);
  }
  const verify::LintOutcome outcome = verify::run_lint(opt);
  out.append("\n").append(outcome.sink.to_text());
  out.append("exit ")
      .append(std::to_string(outcome.exit_code(false)))
      .append("\n");
  const std::string prefix = kRoot + "/";
  for (auto at = out.find(prefix); at != std::string::npos;
       at = out.find(prefix, at))
    out.erase(at, prefix.size());
  return out;
}

TEST(LintGolden, FixtureReportsMatchTheRecordedOutput) {
  std::string actual;
  for (const char* dir :
       {"tests/fixtures/lint", "tests/fixtures/lint/valid",
        "examples/scenarios"}) {
    for (const auto& file : scenarios_in(dir)) {
      actual += lint_report({file}, false);
      actual += lint_report({file}, true);
    }
  }
  // Fault plans against the topology CI checks each one with.
  const std::string conochi = "examples/scenarios/conochi_mesh.rcs";
  const std::string buscom = "examples/scenarios/buscom_prototype.rcs";
  const std::string plans = "tests/fixtures/lint/";
  actual += lint_report({plans + "fault_heal_without_fail.fplan"}, false);
  actual += lint_report({conochi, plans + "fault_valid.fplan"}, false);
  actual += lint_report({conochi, plans + "fault_unknown_node.fplan"}, false);
  actual += lint_report({buscom, plans + "fault_blackout.fplan"}, false);

  std::ifstream in(kRoot + "/" + kGolden, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  if (actual != expected.str()) {
    // Leave the new output next to the test binary for review and, when
    // the change is intended, for copying over the golden file.
    std::ofstream("lint_golden.actual.txt", std::ios::binary) << actual;
  }
  EXPECT_EQ(actual, expected.str())
      << "the analyzer's report differs from " << kGolden
      << "; the new report is in lint_golden.actual.txt";
}

TEST(LintGolden, ChaosScheduleLintDigest) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64
  const auto fold = [&h](const std::string& text) {
    for (const unsigned char c : text) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  std::size_t diagnostics = 0, envelopes = 0;
  for (const int ops : {8, 24}) {
    for (const fault::ChaosArch arch : fault::kAllChaosArchs) {
      for (std::uint64_t seed = 0; seed < 50; ++seed) {
        verify::DiagnosticSink sink;
        std::vector<verify::ResourceEnvelope> collect;
        verify::EnvelopeParams params;
        params.collect = &collect;
        fault::timeline_lint_schedule(fault::make_schedule(arch, seed, ops),
                                      sink, &params);
        fold(sink.to_text());
        for (const auto& e : collect) {
          char line[320];
          std::snprintf(line, sizeof line, "%s|%lld|%lld|%a|%a|%a|%a\n",
                        e.resource.c_str(), e.window_begin, e.window_end,
                        e.demand_min, e.demand_max, e.capacity_min,
                        e.capacity_max);
          fold(line);
        }
        diagnostics += sink.size();
        envelopes += collect.size();
      }
    }
  }
  EXPECT_EQ(diagnostics, 4041u);
  EXPECT_EQ(envelopes, 21539u);
  EXPECT_EQ(h, 0xf58c99a717bb2034ULL) << std::hex << "digest 0x" << h;
}

}  // namespace
