#include "verify/line_reader.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace recosim::verify {

namespace {

/// The whitespace the formats have always split on (CRLF reads as LF).
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

}  // namespace

Location line_location(const std::string& source, int line, int column) {
  return {source, "line " + std::to_string(line) + ":" +
                      std::to_string(column)};
}

Args::Args(const std::string& source, int line, std::string_view text,
           std::vector<std::string_view> tokens, std::string_view usage,
           DiagnosticSink& sink)
    : source_(source),
      line_(line),
      text_(text),
      tokens_(std::move(tokens)),
      usage_(usage),
      sink_(sink),
      column_(static_cast<int>(tokens_[0].data() - text.data()) + 1) {}

std::string_view Args::take(std::string_view what) {
  // A missing token is pointed at just past the line.
  const std::string_view tok =
      next_ < tokens_.size() ? tokens_[next_] : text_.substr(text_.size());
  column_ = static_cast<int>(tok.data() - text_.data()) + 1;
  if (ok_ && next_ == tokens_.size()) fail(what, "is missing");
  if (!ok_) return {};
  ++next_;
  return tok;
}

std::optional<double> parse_real(std::string_view tok) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc() || end != tok.data() + tok.size() ||
      !std::isfinite(value))
    return std::nullopt;
  return value;
}

double Args::real(std::string_view what) {
  const std::string_view tok = take(what);
  if (!ok_) return 0.0;
  const std::optional<double> value = parse_real(tok);
  if (!value)
    fail(what, std::string(1, '\'').append(tok).append("' is not a number"));
  return value.value_or(0.0);
}

std::size_t Args::word(std::string_view what,
                       std::span<const std::string_view> names) {
  const std::string_view tok = take(what);
  if (!ok_) return 0;
  std::string all;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == tok) return i;
    all.append(i ? ", " : "").append(names[i]);
  }
  ok_ = false;
  sink_.report("LNT001", Severity::kError,
               line_location(source_, line_, column_),
               std::string("unknown ").append(what).append(" '").append(tok) +
                   "'",
               "one of: " + all);
  return 0;
}

bool Args::end() {
  if (more()) {
    const std::string_view tok = take("");
    fail(std::string(tokens_[0]) + " has trailing input '" +
         std::string(tok) + "'");
  }
  return ok_;
}

void Args::fail(const std::string& message) {
  if (!ok_) return;
  ok_ = false;
  sink_.report("LNT001", Severity::kError,
               line_location(source_, line_, column_), message,
               std::string("usage: ").append(usage_));
}

void Args::fail(std::string_view what, const std::string& problem) {
  fail(std::string(tokens_[0]) + ": " + std::string(what) + " " + problem);
}

void Args::refuse(int column, const std::string& message,
                  const std::string& fixit) {
  ok_ = false;
  sink_.report("LNT002", Severity::kError,
               line_location(source_, line_, column), message, fixit);
}

void read_lines(std::string_view text, const std::string& source,
                std::span<const Directive> table, DiagnosticSink& sink) {
  for (int number = 1; !text.empty(); ++number) {
    std::string_view line = text.substr(0, text.find('\n'));
    text.remove_prefix(std::min(text.size(), line.size() + 1));
    line = line.substr(0, line.find('#'));
    std::vector<std::string_view> tokens;
    for (std::size_t i = 0, start = 0; i <= line.size(); ++i) {
      if (i < line.size() && !is_space(line[i])) continue;
      if (i > start) tokens.push_back(line.substr(start, i - start));
      start = i + 1;
    }
    if (tokens.empty()) continue;  // blank or comment only
    const Directive* d = nullptr;
    for (const Directive& entry : table)
      if (entry.name == tokens[0]) d = &entry;
    if (!d) {
      sink.report("LNT001", Severity::kError,
                  line_location(source, number,
                                static_cast<int>(tokens[0].data() -
                                                 line.data()) + 1),
                  std::string("unknown directive '").append(tokens[0]) + "'");
    } else if (d->read) {
      Args args(source, number, line, std::move(tokens), d->usage, sink);
      d->read(args);
      args.end();
    }
  }
}

}  // namespace recosim::verify
