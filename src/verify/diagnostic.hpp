#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace recosim::verify {

/// Severity of a diagnostic. Errors make recosim-lint exit non-zero and
/// abort debug builds via the architectures' post-reconfiguration hook;
/// warnings mark configurations that work but degrade (starvation,
/// saturation, fault-isolated endpoints); notes are informational.
enum class Severity { kNote, kWarning, kError };

inline const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

/// Machine-readable location of a finding: the component that owns the
/// checked state ("buscom", "scenario") and the object inside it
/// ("bus 2 slot 7", "switch (3,1)", "line 12").
struct Location {
  std::string component;
  std::string object;
};

/// One finding of the static verification layer.
///
/// Timeline findings additionally carry the half-open cycle window
/// [window_begin, window_end) the finding holds in: window_begin < 0
/// means "no window" (a plain static finding), window_end < 0 means the
/// window extends to the end of the schedule, and window_begin ==
/// window_end marks an instantaneous event finding.
struct Diagnostic {
  std::string rule;  ///< rule id, e.g. "DYN001" (docs/static-analysis.md)
  Severity severity = Severity::kError;
  Location location;
  std::string message;
  std::string fixit;  ///< actionable hint; may be empty
  long long window_begin = -1;
  long long window_end = -1;

  bool has_window() const { return window_begin >= 0; }
};

/// Findings of one checked file (one SARIF result per diagnostic,
/// artifact location = the file the finding came from).
struct FileFindings {
  std::string path;
  std::vector<Diagnostic> diags;
};

/// Collector the checkers report into. Owns formatting: one-line-per-
/// finding text for humans, a JSON array for CI.
class DiagnosticSink {
 public:
  void add(Diagnostic d) { diags_.push_back(std::move(d)); }

  void report(std::string rule, Severity severity, Location location,
              std::string message, std::string fixit = {}) {
    diags_.push_back(Diagnostic{std::move(rule), severity,
                                std::move(location), std::move(message),
                                std::move(fixit)});
  }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  std::size_t size() const { return diags_.size(); }

  std::size_t count(Severity s) const {
    std::size_t n = 0;
    for (const auto& d : diags_)
      if (d.severity == s) ++n;
    return n;
  }
  std::size_t error_count() const { return count(Severity::kError); }

  /// Diagnostics carrying rule id `rule`.
  std::size_t count_rule(const std::string& rule) const {
    std::size_t n = 0;
    for (const auto& d : diags_)
      if (d.rule == rule) ++n;
    return n;
  }
  bool has_rule(const std::string& rule) const {
    return count_rule(rule) > 0;
  }

  /// "severity: [RULE] component(object): message (fix: ...)" per line.
  std::string to_text() const {
    std::string out;
    for (const auto& d : diags_) {
      out += to_string(d.severity);
      out += ": [";
      out += d.rule;
      out += "] ";
      out += d.location.component;
      if (!d.location.object.empty()) {
        out += '(';
        out += d.location.object;
        out += ')';
      }
      out += ": ";
      out += d.message;
      if (d.has_window()) {
        out += " @[";
        out += std::to_string(d.window_begin);
        if (d.window_end == d.window_begin) {
          out += ']';  // instantaneous (an event, not a window)
        } else {
          out += ',';
          out += d.window_end < 0 ? "end" : std::to_string(d.window_end);
          out += ')';
        }
      }
      if (!d.fixit.empty()) {
        out += " (fix: ";
        out += d.fixit;
        out += ')';
      }
      out += '\n';
    }
    return out;
  }

  /// JSON array of findings (for CI consumption; defined in
  /// lint_driver.cpp, so callers link recosim_verify).
  std::string to_json() const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace recosim::verify
