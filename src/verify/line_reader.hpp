#pragma once

// The one reader behind the line-oriented inputs: scenarios (.rcs), fault
// plans (.fplan) and chaos-schedule replay files, each a table of
// directives over it (grammar: docs/static-analysis.md). `#` starts a
// comment, tokens split at whitespace, the first names the directive. For
// every argument: a token must parse completely, nothing may follow the
// last argument, and every failure is one LNT001 at the offending token's
// `line L:C`.

#include <charconv>
#include <concepts>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "verify/diagnostic.hpp"

namespace recosim::verify {

/// "line L:C", the object of every finding that points into a text file.
Location line_location(const std::string& source, int line, int column);

/// `tok` as a finite real when the whole token parses (std::from_chars
/// syntax: no leading '+', nothing after the number); nullopt otherwise.
std::optional<double> parse_real(std::string_view tok);

/// Bounds of the common integers: a coordinate, index, id or count lies in
/// [-kMaxIndex, kMaxIndex], far beyond any fabric, which keeps the
/// analyzer's arithmetic inside int; a cycle fits the timeline's long long.
inline constexpr int kMaxIndex = 1 << 20;
inline constexpr long long kMaxCycle = std::numeric_limits<long long>::max();

/// The arguments of one directive line. Accessors are sticky: after the
/// first failure every later one returns a default and reports nothing,
/// so a handler takes all its arguments, then keeps them if end() holds.
class Args {
 public:
  /// `tokens` are views into `text`, the line without its comment; the
  /// first is the directive.
  Args(const std::string& source, int line, std::string_view text,
       std::vector<std::string_view> tokens, std::string_view usage,
       DiagnosticSink& sink);

  int line() const { return line_; }
  /// Column of the token taken last (the directive's before any).
  int column() const { return column_; }
  bool ok() const { return ok_; }
  /// Another (optional) argument follows.
  bool more() const { return ok_ && next_ < tokens_.size(); }

  /// The next token as an integer in [lo, hi]: decimal digits after an
  /// optional '-'.
  template <std::integral T>
  T integer(std::string_view what, T lo, T hi) {
    const std::string_view tok = take(what);
    T value = lo;
    const std::string_view digits = tok.substr(tok.starts_with('-'));
    if (!ok_) return value;
    if (digits.empty() || digits.find_first_not_of("0123456789") != tok.npos) {
      fail(what,
           std::string(1, '\'').append(tok).append("' is not an integer"));
    } else if (std::from_chars(tok.data(), tok.data() + tok.size(), value)
                       .ec != std::errc() ||
               value < lo || value > hi) {
      fail(what, std::string(tok) + " lies outside [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "]");
    }
    return ok_ ? value : lo;
  }
  int index(std::string_view what) {
    return integer<int>(what, -kMaxIndex, kMaxIndex);
  }
  long long cycle(std::string_view what, long long lo = 0) {
    return integer<long long>(what, lo, kMaxCycle);
  }
  /// The next token as a finite real.
  double real(std::string_view what);
  /// The index of the next token in `names`.
  std::size_t word(std::string_view what,
                   std::span<const std::string_view> names);
  /// True when nothing follows the last argument and all parsed.
  bool end();

  /// LNT001 at the token taken last; spends the line (once).
  void fail(const std::string& message);
  /// LNT002 at `column`: a well-formed line names what it may not (an
  /// undeclared module, another architecture's directive). Spends the
  /// line; reports on every call.
  void refuse(int column, const std::string& message,
              const std::string& fixit = {});

 private:
  std::string_view take(std::string_view what);
  void fail(std::string_view what, const std::string& problem);

  const std::string& source_;
  int line_;
  std::string_view text_;
  std::vector<std::string_view> tokens_;
  std::string_view usage_;
  DiagnosticSink& sink_;
  std::size_t next_ = 1;
  int column_;
  bool ok_ = true;
};

/// One directive: its name, its usage (the fix-it of its errors) and its
/// handler; a null handler skips the line.
struct Directive {
  std::string_view name;
  std::string_view usage;
  std::function<void(Args&)> read;
};

/// Hand each non-blank line of `text` to the directive its first token
/// names. An unknown directive is one LNT001, and so is input a handler
/// leaves unread.
void read_lines(std::string_view text, const std::string& source,
                std::span<const Directive> table, DiagnosticSink& sink);

}  // namespace recosim::verify
