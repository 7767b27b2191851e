#pragma once

// recosim-tidy driver: collects the C++ sources to scan (explicit files,
// directories walked recursively, or the translation units listed in a
// CMake compile_commands.json), runs the RCD rule family over them and
// reports through the same DiagnosticSink / SARIF / baseline machinery
// as recosim-lint (docs/static-analysis.md, "Layer 3").

#include <string>
#include <vector>

#include "verify/lint_driver.hpp"

namespace recosim::tidy {

struct TidyOptions {
  /// Files or directories (recursed for *.hpp/*.cpp) to scan.
  std::vector<std::string> paths;
  /// Optional compile_commands.json: its translation units (plus the
  /// headers next to them) join the scan set. Paths outside src/ and
  /// tools/ are ignored so third-party or generated TUs stay out.
  std::string compile_commands;
};

struct TidyResult {
  /// Findings grouped per file, paths sorted, each file's findings in
  /// line order — deterministic across runs by construction.
  std::vector<verify::FileFindings> files;
  /// Files that could not be read (reported as exit-2 conditions).
  std::vector<std::string> unreadable;
};

/// Expand options to the sorted, deduplicated list of files to scan.
/// Unreadable compile_commands files surface via TidyResult::unreadable
/// when run_tidy is called; unknown paths are kept (run_tidy reports
/// them as unreadable).
std::vector<std::string> collect_files(const TidyOptions& opt,
                                       std::vector<std::string>* errors);

/// Scan and check. Allow-annotations with a justification suppress their
/// findings; unjustified ones fire RCD007.
TidyResult run_tidy(const TidyOptions& opt);

/// The result as recosim-lint reports and scores its own: findings
/// `baseline` records dropped, unreadable files a parse failure (exit
/// 2), and in the text/JSON report each component prefixed with its
/// file, since a symbol alone is ambiguous across translation units.
verify::LintOutcome outcome(const TidyResult& result,
                            const verify::Baseline* baseline);

}  // namespace recosim::tidy
