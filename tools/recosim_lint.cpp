// recosim-lint: static checker for ReCoSim scenario files (.rcs) and
// fault-injection plans (.fplan).
//
// Usage: recosim-lint [--json] [--rules] [--timeline] [--envelope]
//                     [--headroom <pct>] [--werror] [--sarif <file>]
//                     [--baseline <file>] [--baseline-write <file>]
//                     <file.rcs|file.fplan|directory>...
//
// A directory argument expands (non-recursively) to the .rcs and .fplan
// files inside it. A fault plan is checked against the topology of the
// most recent .rcs file preceding it on the command line; without one,
// only the topology-independent FLT rules run:
//
//   recosim-lint examples/scenarios/conochi_mesh.rcs faults.fplan
//
// With --timeline each scenario's event schedule is symbolically stepped
// (the TMP/SCH rule families plus the ENV envelope analysis); a plan
// named like the scenario (foo.rcs + foo.fplan) pairs with it
// automatically and its faults feed the timeline. Paired plans are not
// checked a second time standalone. --envelope is a synonym that also
// turns the timeline on; --headroom <pct> arms the ENV004 headroom rule
// at a percentage in [0, 100] (any other value is a usage error).
//
// --sarif <file> additionally writes the findings as a SARIF 2.1.0 log.
// --baseline <file> suppresses findings recorded in a baseline written
// earlier by --baseline-write <file> (keyed rule + path + location +
// window, so new findings and moved windows still report).
//
// Exit codes:
//   0  every file parsed and no error (nor, under --werror, warning)
//   1  at least one error-severity diagnostic (--werror: or warning)
//   2  a file could not be parsed at all (or usage error)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "verify/line_reader.hpp"
#include "verify/lint_driver.hpp"
#include "verify/rules.hpp"

namespace {

constexpr char kUsage[] =
    "usage: recosim-lint [--json] [--rules] [--timeline] [--envelope] "
    "[--headroom <pct>] [--werror] [--sarif <file>] [--baseline <file>] "
    "[--baseline-write <file>] <file.rcs|file.fplan|directory>...\n";

void print_rules() {
  for (const auto& r : recosim::verify::kRules) {
    std::printf("%-7s %-9s %-34s %s (%s)\n", r.id,
                recosim::verify::to_string(r.default_severity), r.name,
                r.summary, r.paper);
  }
}

/// Expand a directory argument to the .rcs then .fplan files inside it
/// (each group sorted, non-recursive); other arguments pass through.
std::vector<std::string> expand_args(const std::vector<std::string>& args,
                                     bool& usage_error) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const auto& a : args) {
    std::error_code ec;
    if (!fs::is_directory(a, ec)) {
      out.push_back(a);
      continue;
    }
    std::vector<std::string> rcs, fplan;
    for (const auto& entry : fs::directory_iterator(a, ec)) {
      if (!entry.is_regular_file()) continue;
      std::string p = entry.path().string();
      if (p.ends_with(".rcs"))
        rcs.push_back(std::move(p));
      else if (p.ends_with(".fplan"))
        fplan.push_back(std::move(p));
    }
    if (ec) {
      std::fprintf(stderr, "recosim-lint: cannot read directory '%s'\n",
                    a.c_str());
      usage_error = true;
      continue;
    }
    std::sort(rcs.begin(), rcs.end());
    std::sort(fplan.begin(), fplan.end());
    out.insert(out.end(), rcs.begin(), rcs.end());
    out.insert(out.end(), fplan.begin(), fplan.end());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recosim::verify;

  ReportOptions ropt;
  bool timeline = false;
  double headroom_pct = -1.0;
  std::string baseline_path;
  std::vector<std::string> args;
  const auto value_of = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "recosim-lint: '%s' needs a value\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      ropt.json = true;
    } else if (std::strcmp(argv[i], "--timeline") == 0 ||
               std::strcmp(argv[i], "--envelope") == 0) {
      timeline = true;  // the envelope pass is part of the timeline
    } else if (std::strcmp(argv[i], "--headroom") == 0) {
      const char* v = value_of(i);
      if (!v) return 2;
      const std::optional<double> pct = parse_real(v);
      if (!pct || *pct < 0.0 || *pct > 100.0) {
        std::fprintf(stderr,
                     "recosim-lint: --headroom: '%s' is not a percentage "
                     "in [0, 100]\n",
                     v);
        return 2;
      }
      headroom_pct = *pct;
      timeline = true;
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
    } else if (std::strcmp(argv[i], "--werror") == 0) {
      ropt.werror = true;
    } else if (std::strcmp(argv[i], "--rules") == 0) {
      print_rules();
      return 0;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("%s", kUsage);
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "recosim-lint: unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  bool usage_error = false;
  const std::vector<std::string> files = expand_args(args, usage_error);
  if (files.empty() || usage_error) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  Baseline baseline;
  if (!load_baseline("recosim-lint", baseline_path, baseline)) return 2;

  LintOptions lopt;
  lopt.files = files;
  lopt.timeline = timeline;
  lopt.envelope.headroom_pct = headroom_pct;
  lopt.baseline = &baseline;
  return report(run_lint(lopt), ropt);
}
