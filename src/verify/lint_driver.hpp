#pragma once

// The recosim-lint core as a library: parse and check a list of scenario
// and fault-plan files, apply baseline suppression, and compute the exit
// code — everything the CLI does apart from argv handling. Extracted so
// the exit-code contract (notably baseline × --werror: a suppressed
// finding can never fail the run) is testable directly. The output path
// (baseline load, SARIF and baseline writing, the text/JSON report) is
// shared with recosim-tidy.

#include <string>
#include <vector>

#include "verify/baseline.hpp"
#include "verify/diagnostic.hpp"
#include "verify/envelope.hpp"

namespace recosim::verify {

struct LintOptions {
  /// Files to check, in command-line order (.rcs / .fplan; directories
  /// must already be expanded). A fault plan is checked against the most
  /// recent scenario preceding it in this list.
  std::vector<std::string> files;
  /// Run the symbolic timeline (TMP/SCH/ENV families) per scenario; a
  /// plan named like its scenario pairs with it automatically.
  bool timeline = false;
  EnvelopeParams envelope;
  /// Findings recorded here are suppressed before they reach the
  /// outcome — they influence neither the report nor the exit code.
  const Baseline* baseline = nullptr;
};

/// Whole-file IO for the analyzers: read_file() is false when the file
/// cannot be opened, write_file() when it cannot be written in full.
bool read_file(const std::string& path, std::string& out);
bool write_file(const std::string& path, const std::string& content);

struct LintOutcome {
  /// Every reported (post-suppression) finding, all files.
  DiagnosticSink sink;
  /// The same findings grouped per file (SARIF export, baseline-write).
  std::vector<FileFindings> per_file;
  /// Findings dropped by the baseline.
  std::size_t suppressed = 0;
  /// At least one input failed to parse (exit 2).
  bool parse_failed = false;

  /// Record the findings of one file, minus those `baseline` suppresses.
  void add_file(const std::string& path,
                const std::vector<Diagnostic>& diags,
                const Baseline* baseline);

  /// The CLI exit-code contract: 2 on parse failure; otherwise 0 when
  /// `baseline_written` (a fresh baseline acknowledges what it records);
  /// otherwise 1 when errors remain (under `werror`: or warnings).
  /// Baseline-suppressed findings are absent from the sink by
  /// construction, so they can never flip the code.
  int exit_code(bool werror, bool baseline_written = false) const {
    if (parse_failed) return 2;
    if (baseline_written) return 0;
    if (sink.error_count() > 0) return 1;
    if (werror && sink.count(Severity::kWarning) > 0) return 1;
    return 0;
  }
};

LintOutcome run_lint(const LintOptions& opt);

/// Render the findings of a lint run as a SARIF 2.1.0 log (one run, tool
/// `tool_name` — recosim-lint by default, recosim-tidy for the source
/// checker — every rule of kRules in the driver's rule metadata).
/// Severity maps note->"note", warning->"warning", error->"error"; the
/// timeline window lands in the result's properties bag
/// (window_begin/window_end) and "line L:C" objects become a region.
std::string to_sarif(const std::vector<FileFindings>& files,
                     const char* tool_name = "recosim-lint");

/// The command-line flags that shape the analyzers' output.
struct ReportOptions {
  const char* tool = "recosim-lint";  ///< message prefix, SARIF driver
  bool json = false;                  ///< --json
  bool werror = false;                ///< --werror
  std::string sarif_path;             ///< --sarif, "" = none
  std::string baseline_write_path;    ///< --baseline-write, "" = none
};

/// Load a --baseline file into `out` (nothing for an empty path); on
/// failure print why to stderr and return false (exit 2).
bool load_baseline(const char* tool, const std::string& path,
                   Baseline& out);

/// Write the SARIF log and the baseline, print the text or JSON report of
/// `outcome.sink` to stdout and return the exit code: 2 when an output
/// file cannot be written, otherwise LintOutcome::exit_code.
int report(const LintOutcome& outcome, const ReportOptions& opt);

}  // namespace recosim::verify
