// recosim-tidy: static checker for the simulator's own C++ sources —
// the RCD rule family (determinism, callback lifetime, activity
// protocol; see docs/static-analysis.md "Layer 3").
//
// Usage: recosim-tidy [--json] [--rules] [--werror] [--sarif <file>]
//                     [--baseline <file>] [--baseline-write <file>]
//                     [--compdb <compile_commands.json>]
//                     <file.cpp|file.hpp|directory>...
//
// Directory arguments are walked recursively for *.cpp/*.hpp. With
// --compdb, the translation units listed in a CMake
// compile_commands.json (restricted to src/ and tools/, plus the
// headers sitting next to them) join the scan set:
//
//   recosim-tidy --compdb build/compile_commands.json --werror src tools
//
// Findings can be suppressed in-source with a justified annotation
//
//   // recosim-tidy: allow(RCD001): aggregated into a sorted map below
//
// (an empty justification suppresses nothing and fires RCD007), or via
// --baseline / --baseline-write, which share recosim-lint's format.
//
// Exit codes:
//   0  every file read and no error (nor, under --werror, warning)
//   1  at least one error-severity finding (--werror: or warning)
//   2  a file could not be read (or usage error)

#include <cstdio>
#include <cstring>
#include <string>

#include "tidy/tidy.hpp"
#include "verify/lint_driver.hpp"
#include "verify/rules.hpp"

namespace {

constexpr char kUsage[] =
    "usage: recosim-tidy [--json] [--rules] [--werror] [--sarif <file>] "
    "[--baseline <file>] [--baseline-write <file>] "
    "[--compdb <compile_commands.json>] <file|directory>...\n";

void print_rules() {
  for (const auto& r : recosim::verify::kRules) {
    if (std::strncmp(r.id, "RCD", 3) != 0) continue;
    std::printf("%-7s %-9s %-30s %s\n", r.id,
                recosim::verify::to_string(r.default_severity), r.name,
                r.summary);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recosim;

  verify::ReportOptions ropt;
  ropt.tool = "recosim-tidy";
  std::string baseline_path;
  tidy::TidyOptions opt;
  const auto value_of = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "recosim-tidy: '%s' needs a value\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      ropt.json = true;
    } else if (std::strcmp(argv[i], "--werror") == 0) {
      ropt.werror = true;
    } else if (std::strcmp(argv[i], "--sarif") == 0) {
      const char* v = value_of(i);
      if (!v) return 2;
      ropt.sarif_path = v;
    } else if (std::strcmp(argv[i], "--baseline") == 0) {
      const char* v = value_of(i);
      if (!v) return 2;
      baseline_path = v;
    } else if (std::strcmp(argv[i], "--baseline-write") == 0) {
      const char* v = value_of(i);
      if (!v) return 2;
      ropt.baseline_write_path = v;
    } else if (std::strcmp(argv[i], "--compdb") == 0) {
      const char* v = value_of(i);
      if (!v) return 2;
      opt.compile_commands = v;
    } else if (std::strcmp(argv[i], "--rules") == 0) {
      print_rules();
      return 0;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "recosim-tidy: unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      opt.paths.emplace_back(argv[i]);
    }
  }
  if (opt.paths.empty() && opt.compile_commands.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  verify::Baseline baseline;
  if (!verify::load_baseline(ropt.tool, baseline_path, baseline)) return 2;

  const tidy::TidyResult result = tidy::run_tidy(opt);
  for (const std::string& err : result.unreadable)
    std::fprintf(stderr, "recosim-tidy: %s\n", err.c_str());
  return verify::report(tidy::outcome(result, &baseline), ropt);
}
