// recosim-tidy end-to-end: the seeded-violation corpus must trip exactly
// the seeded rules, the clean fixture must stay silent, suppression and
// baseline machinery must compose, and — the teeth — the project's own
// src/ and tools/ trees must scan clean.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "tidy/tidy.hpp"
#include "verify/baseline.hpp"
#include "verify/rules.hpp"

namespace recosim::tidy {
namespace {

#ifndef RECOSIM_TIDY_FIXTURES
#define RECOSIM_TIDY_FIXTURES "tests/fixtures/tidy"
#endif
#ifndef RECOSIM_SOURCE_DIR
#define RECOSIM_SOURCE_DIR "."
#endif

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// One scan of the whole fixture corpus, shared across tests.
const TidyResult& corpus() {
  static const TidyResult result = [] {
    TidyOptions opt;
    opt.paths = {RECOSIM_TIDY_FIXTURES};
    return run_tidy(opt);
  }();
  return result;
}

/// Rules reported for the fixture file ending in `file_suffix`.
std::multiset<std::string> rules_for(const std::string& file_suffix) {
  std::multiset<std::string> rules;
  for (const auto& ff : corpus().files) {
    if (!ends_with(ff.path, file_suffix)) continue;
    for (const auto& d : ff.diags) rules.insert(d.rule);
  }
  return rules;
}

// ---- Each seeded fixture trips exactly its rule. ------------------------

TEST(TidyFixtures, UnorderedIterationIsRCD001) {
  // Two seeded sites: a range-for and a manual .begin() walk.
  EXPECT_EQ(rules_for("rcd001_unordered_iteration.cpp"),
            (std::multiset<std::string>{"RCD001", "RCD001"}));
}

TEST(TidyFixtures, AmbientEntropyIsRCD002) {
  EXPECT_EQ(rules_for("rcd002_ambient_entropy.cpp"),
            (std::multiset<std::string>{"RCD002", "RCD002"}));
}

TEST(TidyFixtures, UnanchoredCallbackIsRCD003) {
  // The anchored twin in the same file must not be flagged.
  EXPECT_EQ(rules_for("rcd003_unanchored_callback.cpp"),
            (std::multiset<std::string>{"RCD003"}));
}

TEST(TidyFixtures, MissingActivityProtocolIsRCD004) {
  // One seeded Component and one seeded CommArchitecture subclass; the
  // engaged twins (set_active in eval, is_quiescent) must not be flagged.
  EXPECT_EQ(rules_for("rcd004_activity_protocol.cpp"),
            (std::multiset<std::string>{"RCD004", "RCD004"}));
}

TEST(TidyFixtures, PointerKeyedOrderingIsRCD005) {
  // Pointer as mapped value (not key) must not be flagged.
  EXPECT_EQ(rules_for("rcd005_pointer_keyed.cpp"),
            (std::multiset<std::string>{"RCD005", "RCD005"}));
}

TEST(TidyFixtures, MutatorWithoutWakeIsRCD006) {
  // detach() wakes transitively through rebalance(): only attach() fires.
  EXPECT_EQ(rules_for("rcd006_mutator_no_wake.cpp"),
            (std::multiset<std::string>{"RCD006"}));
}

TEST(TidyFixtures, UnjustifiedSuppressionIsRCD007AndHidesNothing) {
  EXPECT_EQ(rules_for("rcd007_unjustified_suppression.cpp"),
            (std::multiset<std::string>{"RCD002", "RCD007"}));
}

TEST(TidyFixtures, CleanFileAndSupportHeaderAreSilent) {
  // clean.cpp carries justified allow(RCD001) annotations: both the
  // range-for and the .begin() aggregation underneath are suppressed.
  EXPECT_EQ(rules_for("clean.cpp").size(), 0u);
  EXPECT_EQ(rules_for("support.hpp").size(), 0u);
}

TEST(TidyFixtures, CorpusFailsWerrorAndSeverityTracksTheRegistry) {
  EXPECT_EQ(outcome(corpus(), nullptr).exit_code(/*werror=*/false), 1);
  EXPECT_EQ(outcome(corpus(), nullptr).exit_code(/*werror=*/true), 1);
  for (const auto& ff : corpus().files) {
    for (const auto& d : ff.diags) {
      const verify::RuleInfo* info = verify::find_rule(d.rule);
      ASSERT_NE(info, nullptr) << d.rule;
      EXPECT_EQ(d.severity, info->default_severity) << d.rule;
    }
  }
}

// ---- SARIF export of the RCD family. ------------------------------------

TEST(TidySarif, RuleTableCarriesTheWholeRcdFamily) {
  const std::string doc = verify::to_sarif(corpus().files, "recosim-tidy");
  EXPECT_NE(doc.find("\"name\": \"recosim-tidy\""), std::string::npos);
  for (const char* id : {"RCD001", "RCD002", "RCD003", "RCD004", "RCD005",
                         "RCD006", "RCD007"})
    EXPECT_NE(doc.find(std::string("\"id\": \"") + id + "\""),
              std::string::npos)
        << id;
}

TEST(TidySarif, ResultsCarryRegionsAndLogicalLocations) {
  const std::string doc = verify::to_sarif(corpus().files, "recosim-tidy");
  // Findings locate as "line L:C" objects, which export as regions…
  EXPECT_NE(doc.find("\"startLine\""), std::string::npos);
  EXPECT_NE(doc.find("\"startColumn\""), std::string::npos);
  // …and the enclosing C++ symbol lands in the logical location.
  EXPECT_NE(doc.find("RetryTimer::arm_unanchored"), std::string::npos);
  EXPECT_NE(doc.find("StarHub::attach"), std::string::npos);
}

// ---- Baseline round-trip over RCD findings. -----------------------------

TEST(TidyBaseline, RoundTripSuppressesEveryCorpusFinding) {
  verify::Baseline baseline;
  ASSERT_TRUE(baseline.parse(verify::Baseline::write(corpus().files)));
  std::size_t total = 0;
  for (const auto& ff : corpus().files) {
    for (const auto& d : ff.diags) {
      ++total;
      EXPECT_TRUE(baseline.suppressed(ff.path, d))
          << ff.path << " " << d.rule;
    }
  }
  EXPECT_GT(total, 0u);

  // A finding the baseline has not seen stays reportable.
  verify::Diagnostic fresh;
  fresh.rule = "RCD001";
  fresh.severity = verify::Severity::kError;
  fresh.location.component = "elsewhere";
  fresh.location.object = "line 1:1";
  EXPECT_FALSE(baseline.suppressed("novel_file.cpp", fresh));
}

// ---- The teeth: the project's own sources must scan clean. --------------

TEST(TidySelfScan, SrcAndToolsAreCleanUnderWerror) {
  TidyOptions opt;
  opt.paths = {std::string(RECOSIM_SOURCE_DIR) + "/src",
               std::string(RECOSIM_SOURCE_DIR) + "/tools"};
  const TidyResult result = run_tidy(opt);
  EXPECT_TRUE(result.unreadable.empty());
  for (const auto& ff : result.files)
    for (const auto& d : ff.diags)
      ADD_FAILURE() << ff.path << ": [" << d.rule << "] "
                    << d.location.component << " " << d.location.object
                    << ": " << d.message;
  EXPECT_EQ(outcome(result, nullptr).exit_code(/*werror=*/true), 0);
}

}  // namespace
}  // namespace recosim::tidy
