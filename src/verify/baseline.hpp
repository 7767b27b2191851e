#pragma once

#include <set>
#include <string>
#include <vector>

#include "verify/diagnostic.hpp"

namespace recosim::verify {

/// Known-findings baseline for recosim-lint: a finding is suppressed when
/// its (rule, file path, location object, window interval) key appears in
/// the baseline, so pre-existing debt does not fail the build while any
/// new finding — or an old one that moved window — still does.
class Baseline {
 public:
  /// Parse a baseline file previously written by write(). Returns false
  /// (leaving the baseline unchanged, and "line:column: why" in `*error`)
  /// when the text is not a baseline document; unknown fields are
  /// ignored.
  bool parse(const std::string& text, std::string* error = nullptr);

  bool suppressed(const std::string& path, const Diagnostic& d) const;

  std::size_t size() const { return keys_.size(); }

  /// Serialise findings as a baseline document (--baseline-write).
  static std::string write(const std::vector<FileFindings>& files);

 private:
  std::set<std::string> keys_;
};

}  // namespace recosim::verify
