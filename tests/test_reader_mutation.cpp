// Seeded mutation test of the line readers (scenarios, fault plans, replay
// schedules). Byte flips, deletions and duplications of every .rcs, .fplan
// and .schedule file under tests/fixtures and examples, and of the
// serialized chaos schedules of seeds 0-9, go through all three readers.
// None may crash (the sanitizer build runs this too), every LNT001/LNT002
// must point at a line:column inside the text, and a schedule that still
// parses must re-serialize to a fixed point. Only the readers run: no
// checker and no simulation ever sees a mutant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fault/chaos.hpp"
#include "verify/fault_plan.hpp"
#include "verify/scenario.hpp"

#ifndef RECOSIM_SOURCE_DIR
#define RECOSIM_SOURCE_DIR "."
#endif

namespace {

namespace fs = std::filesystem;
using namespace recosim;

/// The seed inputs: every line-format file shipped for tests and examples,
/// then the serialized schedules.
std::vector<std::string> seed_inputs() {
  std::vector<fs::path> files;
  for (const char* dir : {"tests/fixtures", "examples"})
    for (const auto& e : fs::recursive_directory_iterator(
             fs::path(RECOSIM_SOURCE_DIR) / dir)) {
      const auto ext = e.path().extension();
      if (ext == ".rcs" || ext == ".fplan" || ext == ".schedule")
        files.push_back(e.path());
    }
  std::sort(files.begin(), files.end());
  std::vector<std::string> out;
  for (const auto& f : files) {
    std::ifstream in(f, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back(text.str());
  }
  for (const fault::ChaosArch arch : fault::kAllChaosArchs)
    for (std::uint64_t seed = 0; seed < 10; ++seed)
      out.push_back(
          fault::serialize_schedule(fault::make_schedule(arch, seed)));
  return out;
}

/// One to four edits: flip a byte to any other value, delete a run of up
/// to 8 bytes, or duplicate a run of up to 16.
std::string mutate(std::string text, std::mt19937_64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < edits && !text.empty(); ++i) {
    const std::size_t at = rng() % text.size();
    switch (rng() % 3) {
      case 0:
        text[at] = static_cast<char>(text[at] ^ (1 + rng() % 255));
        break;
      case 1: text.erase(at, 1 + rng() % 8); break;
      default: text.insert(at, text.substr(at, 1 + rng() % 16)); break;
    }
  }
  return text;
}

/// Every reader finding names a line of `text` and a column at most one
/// past that line's end (a missing token points just past the line).
void expect_positions_inside(const verify::DiagnosticSink& sink,
                             const std::string& text) {
  std::vector<std::size_t> lengths;
  for (std::size_t from = 0; from < text.size();) {
    const std::size_t nl = std::min(text.find('\n', from), text.size());
    lengths.push_back(nl - from);
    from = nl + 1;
  }
  if (lengths.empty()) lengths.push_back(0);  // "line 1:1": no arch
  for (const auto& d : sink.diagnostics()) {
    if (d.rule != "LNT001" && d.rule != "LNT002") continue;
    int line = 0, column = 0;
    char tail = 0;
    ASSERT_EQ(std::sscanf(d.location.object.c_str(), "line %d:%d%c", &line,
                          &column, &tail),
              2)
        << d.location.object;
    ASSERT_GE(line, 1);
    ASSERT_LE(static_cast<std::size_t>(line), lengths.size()) << d.message;
    EXPECT_GE(column, 1);
    EXPECT_LE(static_cast<std::size_t>(column),
              lengths[static_cast<std::size_t>(line) - 1] + 1)
        << d.location.object << ": " << d.message;
  }
}

TEST(ReaderMutation, HostileBytesNeverCrashAndFindingsPointIntoTheText) {
  std::mt19937_64 rng(20261019);
  std::size_t mutants = 0, schedules_parsed = 0;
  for (const std::string& input : seed_inputs()) {
    for (int n = 0; n < 60; ++n) {
      const std::string m = mutate(input, rng);
      ++mutants;
      verify::DiagnosticSink rcs, fplan, replay;
      verify::parse_scenario(m, "mutant.rcs", rcs);
      verify::parse_fault_plan(m, "mutant.fplan", fplan);
      const auto schedule = fault::parse_schedule(m, "mutant", replay);
      expect_positions_inside(rcs, m);
      expect_positions_inside(fplan, m);
      expect_positions_inside(replay, m);
      EXPECT_EQ(schedule.has_value(), replay.error_count() == 0);
      if (!schedule) continue;
      ++schedules_parsed;
      const std::string once = fault::serialize_schedule(*schedule);
      verify::DiagnosticSink again;
      const auto reparsed = fault::parse_schedule(once, "again", again);
      ASSERT_TRUE(reparsed.has_value()) << again.to_text() << once;
      EXPECT_EQ(fault::serialize_schedule(*reparsed), once);
    }
    if (HasFatalFailure()) return;
  }
  // The fixed-point check must see mutants that still parse (a flipped
  // digit, an edit inside a comment), not only refused ones.
  EXPECT_GE(schedules_parsed, 50u) << "of " << mutants;
}

}  // namespace
