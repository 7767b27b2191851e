#pragma once

// The one JSON writer and strict reader for every file the tools write
// and read: journals, SLO exports, lint/tidy reports, baselines,
// compile_commands.json and the BENCH_*.json trajectory.
//
// Strings are byte strings, and any bytes become valid UTF-8 JSON: valid
// UTF-8 passes through, `"`, `\` and control bytes are escaped, and a
// byte outside any UTF-8 sequence is written as \u00XX (its Latin-1 code
// point). The reader maps \u0000-\u00ff back to one byte, so every byte
// string round-trips exactly.

#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace recosim::json {

/// `s` escaped for the inside of a JSON string literal (no quotes).
std::string escape(std::string_view s);

/// kCompact writes {"k":v,"list":[1,2]} (journal lines, run digests);
/// kIndented breaks lines, indents by two and writes "k": v.
enum class Style { kCompact, kIndented };

/// Streaming writer: separators and layout follow from the calls; the
/// caller keeps the nesting balanced.
class Writer {
 public:
  explicit Writer(Style style = Style::kIndented) : style_(style) {}

  Writer& begin_object() { return open('{', '}'); }
  Writer& begin_array() { return open('[', ']'); }
  /// Close the innermost open object or array.
  Writer& end();
  /// Key of the next object member; one value or container follows.
  Writer& key(std::string_view k);

  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  Writer& value(bool b) { return token(b ? "true" : "false"); }
  /// Formatted exactly as a default `std::ostream <<` formats it.
  Writer& value(double d);
  template <std::integral T>
  Writer& value(T v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return token(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  template <class T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  const std::string& str() const { return out_; }

 private:
  Writer& open(char bracket, char closer);
  /// Append `t` after the separator its position needs.
  Writer& token(std::string_view t);
  void newline();

  Style style_;
  std::string out_;
  /// Per open container: its closing bracket, and whether it has a member.
  std::vector<std::pair<char, bool>> open_;
  bool after_key_ = false;
};

/// A parsed value. An object keeps its keys and values in document
/// order in `keys` and `items`, an array its elements in `items`.
struct Value {
  enum class Kind { kObject, kArray, kString, kInteger, kBool };
  Kind kind = Kind::kBool;
  bool flag = false;            ///< the boolean, or an integer's minus sign
  std::uint64_t magnitude = 0;  ///< an integer's absolute value
  std::string text;             ///< a string's bytes
  std::vector<std::string> keys;
  std::vector<Value> items;

  /// Member `key` of an object; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// Member `key` when it is a string, or an integer in range of the
  /// type; nullopt otherwise.
  std::optional<std::string> get_string(std::string_view key) const;
  std::optional<std::uint64_t> get_u64(std::string_view key) const;
  std::optional<std::int64_t> get_i64(std::string_view key) const;
};

/// Where and why parse() failed: line and byte column, both from 1.
struct Error {
  int line = 1;
  int column = 1;
  std::string message;

  std::string to_string() const;  ///< "line:column: message"
};

inline constexpr int kMaxDepth = 64;  ///< nesting limit of parse()

/// Parse `text` as one value with optional surrounding whitespace.
/// Rejects trailing bytes, unterminated strings, raw control characters,
/// bad escapes (\u surrogates included), numbers that are not integers
/// or do not fit 64 bits, null, and nesting deeper than kMaxDepth; then
/// returns nullopt and fills `*error`.
std::optional<Value> parse(std::string_view text, Error* error = nullptr);

}  // namespace recosim::json
