// JSON module tests: any byte string round-trips from the writer through
// the reader, both writer styles lay documents out as documented, the
// reader rejects every malformed input with line:column and never
// crashes on truncated or byte-flipped documents, and the analyzers'
// reports stay valid JSON whatever bytes a finding carries.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "sim/rng.hpp"
#include "tidy/tidy.hpp"
#include "verify/baseline.hpp"
#include "verify/diagnostic.hpp"
#include "verify/lint_driver.hpp"

namespace recosim::json {
namespace {

/// Bytes a writer must handle: controls, quotes, backslashes, DEL,
/// valid multi-byte UTF-8 and every kind of invalid UTF-8.
std::string random_bytes(sim::Rng& rng) {
  static const std::vector<std::string> kPieces = {
      "\"", "\\", "\x01", "\x1f", "\n", "\t", "\r", "\x7f", "\xff", "\xc0",
      "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80", "\xed\xa0\x80",
      "\xe2\x82", "\x80", "\xf4\x90\x80\x80", "/", "a", " ", "\\u0041"};
  std::string s;
  const std::uint64_t n = rng.uniform(0, 24);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.uniform(0, 1) == 0)
      s += static_cast<char>(rng.uniform(0, 255));
    else
      s += kPieces[static_cast<std::size_t>(rng.index(kPieces.size()))];
  }
  return s;
}

/// Valid UTF-8 without raw control bytes other than the layout's line
/// breaks: what a strict JSON consumer such as `python3 -m json.tool`
/// accepts.
bool is_clean_utf8(const std::string& s) {
  for (std::size_t i = 0; i < s.size();) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c < 0x20 && c != '\n') return false;
    std::size_t n = c < 0x80 ? 1 : c < 0xE0 ? 2 : c < 0xF0 ? 3 : 4;
    if (c >= 0x80 && (c < 0xC2 || c > 0xF4)) return false;
    if (i + n > s.size()) return false;
    for (std::size_t k = 1; k < n; ++k)
      if ((static_cast<unsigned char>(s[i + k]) & 0xC0) != 0x80) return false;
    i += n;
  }
  return true;
}

TEST(Json, RandomByteStringsRoundTripThroughWriterAndReader) {
  sim::Rng rng(2007);
  for (int round = 0; round < 2000; ++round) {
    const std::string key = random_bytes(rng);
    const std::string value = random_bytes(rng);
    for (Style style : {Style::kCompact, Style::kIndented}) {
      Writer w(style);
      w.begin_object().field(key, value).key("list").begin_array();
      w.value(value).end().end();
      ASSERT_TRUE(is_clean_utf8(w.str())) << w.str();
      Error err;
      const auto doc = parse(w.str(), &err);
      ASSERT_TRUE(doc.has_value()) << err.to_string() << "\n" << w.str();
      EXPECT_EQ(doc->get_string(key), value);
      const Value* list = doc->find("list");
      ASSERT_NE(list, nullptr);
      ASSERT_EQ(list->items.size(), 1u);
      EXPECT_EQ(list->items[0].text, value);
    }
  }
}

TEST(Json, CompactAndIndentedLayouts) {
  Writer compact(Style::kCompact);
  compact.begin_object()
      .field("type", "run")
      .field("seed", std::uint64_t{7})
      .field("ok", true)
      .key("empty")
      .begin_array()
      .end()
      .key("xs")
      .begin_array()
      .value(-1)
      .value(2.5)
      .end()
      .end();
  EXPECT_EQ(compact.str(),
            "{\"type\":\"run\",\"seed\":7,\"ok\":true,\"empty\":[],"
            "\"xs\":[-1,2.5]}");

  Writer indented;
  indented.begin_object()
      .field("bench", "x")
      .key("rows")
      .begin_array()
      .begin_object()
      .field("a", 1)
      .end()
      .end()
      .key("none")
      .begin_object()
      .end()
      .end();
  EXPECT_EQ(indented.str(),
            "{\n  \"bench\": \"x\",\n  \"rows\": [\n    {\n      \"a\": 1\n"
            "    }\n  ],\n  \"none\": {}\n}");
}

TEST(Json, DoublesFormatExactlyAsOstream) {
  for (double d : {0.0, -0.0, 1.0, 0.1, 563.5, 1854.0, 1.0 / 3.0, 1e6, 1e-7,
                   123456789.0, -2.25e300}) {
    std::ostringstream os;
    os << d;
    Writer w;
    w.value(d);
    EXPECT_EQ(w.str(), os.str());
  }
}

TEST(Json, IntegersCoverBoth64BitRanges) {
  const auto doc = parse(
      "{\"max\": 18446744073709551615, \"min\": -9223372036854775808, "
      "\"zero\": -0, \"one\": 1, \"s\": \"1\"}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->get_u64("max"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(doc->get_i64("max").has_value());
  EXPECT_EQ(doc->get_i64("min"), std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(doc->get_u64("min").has_value());
  EXPECT_EQ(doc->get_u64("zero"), 0u);
  EXPECT_EQ(doc->get_i64("zero"), 0);
  EXPECT_EQ(doc->get_i64("one"), 1);
  EXPECT_FALSE(doc->get_u64("s").has_value());
  EXPECT_FALSE(doc->get_string("one").has_value());
}

TEST(Json, ReaderRejectsMalformedInputWithLineAndColumn) {
  struct Case {
    const char* text;
    int line;
    int column;
    const char* message;
  };
  const Case cases[] = {
      {"{\"a\":1} x", 1, 9, "trailing bytes"},
      {"{\"a\":\"abc", 1, 6, "unterminated string"},
      {"[\"a\x01\"]", 1, 4, "raw control character"},
      {"{\n  \"a\": \"\\q\"\n}", 2, 9, "bad escape"},
      {"[\"\\u12G4\"]", 1, 3, "bad escape"},
      {"[\"\\udc00\"]", 1, 3, "bad escape"},
      {"[18446744073709551616]", 1, 2, "out of 64-bit range"},
      {"[-9223372036854775809]", 1, 2, "out of 64-bit range"},
      {"[1.5]", 1, 3, "only integers"},
      {"[01]", 1, 2, "leading zero"},
      {"[null]", 1, 2, "expected a value"},
      {"", 1, 1, "expected a value"},
      {"{\"a\" 1}", 1, 6, "expected ':'"},
      {"[1 2]", 1, 4, "expected ',' or ']'"},
      {"[\"ab\\", 1, 2, "unterminated string"},
      {"{\"a\":1\n,}", 2, 2, "expected a string key"},
  };
  for (const Case& c : cases) {
    Error err;
    EXPECT_FALSE(parse(c.text, &err).has_value()) << c.text;
    EXPECT_EQ(err.line, c.line) << c.text;
    EXPECT_EQ(err.column, c.column) << c.text;
    EXPECT_NE(err.message.find(c.message), std::string::npos)
        << c.text << " -> " << err.message;
  }
  std::string deep(kMaxDepth + 1, '[');
  deep += std::string(kMaxDepth + 1, ']');
  Error err;
  EXPECT_FALSE(parse(deep, &err).has_value());
  EXPECT_NE(err.message.find("nesting"), std::string::npos);
  EXPECT_TRUE(parse(deep.substr(1, 2 * kMaxDepth)).has_value());
}

TEST(Json, UnknownKeysAreIgnoredAndForeignEscapesDecode) {
  const auto doc = parse(
      "{\"extra\": {\"deep\": [true, false]}, \"s\": "
      "\"\\u00e9\\u20ac\\u00ff\\/\\b\\f\"}");
  ASSERT_TRUE(doc.has_value());
  // \u0000-\u00ff decode to one byte (the writer's escape for bytes
  // outside UTF-8); higher code points decode to UTF-8.
  EXPECT_EQ(doc->get_string("s"), "\xe9\xe2\x82\xac\xff/\b\f");
  EXPECT_EQ(doc->find("extra")->find("deep")->items.size(), 2u);
  EXPECT_FALSE(doc->get_u64("s").has_value());
}

/// Every truncation and every single-byte flip of `text` either parses
/// or fails with a position inside the text; nothing crashes.
void expect_hostile_variants_fail_cleanly(const std::string& text) {
  std::vector<std::string> variants;
  for (std::size_t n = 0; n < text.size(); ++n)
    variants.push_back(text.substr(0, n));
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (unsigned char flip : {0x01, 0x20, 0x80, 0xff}) {
      std::string v = text;
      v[i] = static_cast<char>(static_cast<unsigned char>(v[i]) ^ flip);
      variants.push_back(std::move(v));
    }
  }
  int lines = 1;
  for (char c : text) lines += c == '\n';
  for (const std::string& v : variants) {
    Error err;
    if (parse(v, &err)) continue;
    EXPECT_GE(err.line, 1);
    EXPECT_LE(err.line, lines);
    EXPECT_GE(err.column, 1);
    EXPECT_FALSE(err.message.empty());
  }
}

std::vector<verify::FileFindings> nasty_findings() {
  verify::FileFindings file;
  file.path = "dir/odd\"name\xff.rcs";
  verify::Diagnostic d;
  d.rule = "LNT001";
  d.location = {"bad\x01tok\xff", "line 3:1"};
  d.message = "unknown directive 'bogus\x01tok\xff'";
  d.fixit = "quote \" and backslash \\ and tab\t";
  file.diags.push_back(d);
  d.rule = "ENV001";
  d.severity = verify::Severity::kWarning;
  d.location = {"rmboc", "segment \xc0\x80"};
  d.window_begin = 0;
  d.window_end = -1;
  file.diags.push_back(d);
  return {file};
}

TEST(Json, ReportsStayValidForFindingsCarryingAnyBytes) {
  const auto files = nasty_findings();
  verify::DiagnosticSink sink;
  for (const auto& d : files[0].diags) sink.add(d);
  const std::string reports[] = {sink.to_json(), verify::to_sarif(files),
                                 verify::Baseline::write(files)};
  for (const std::string& doc : reports) {
    EXPECT_TRUE(is_clean_utf8(doc)) << doc;
    Error err;
    EXPECT_TRUE(parse(doc, &err).has_value()) << err.to_string() << doc;
  }
  const auto findings = parse(reports[0]);
  ASSERT_TRUE(findings.has_value());
  EXPECT_EQ(findings->items[0].get_string("message"),
            files[0].diags[0].message);
  EXPECT_EQ(findings->items[1].get_i64("window_end"), -1);

  verify::Baseline baseline;
  ASSERT_TRUE(baseline.parse(reports[2]));
  for (const auto& d : files[0].diags)
    EXPECT_TRUE(baseline.suppressed(files[0].path, d)) << d.rule;
  expect_hostile_variants_fail_cleanly(reports[2]);
}

TEST(Json, HostileBaselinesFailWithLineAndColumn) {
  const std::string text = verify::Baseline::write(nasty_findings());
  const auto fails_with_position = [](const std::string& damaged) {
    verify::Baseline b;
    std::string error;
    if (b.parse(damaged, &error)) return false;
    int line = 0, column = 0;
    return std::sscanf(error.c_str(), "%d:%d:", &line, &column) == 2 &&
           line >= 1 && column >= 1;
  };
  // Every cut before the closing brace fails; a flipped byte either
  // still parses (inside a value) or fails with its position.
  for (std::size_t n = 0; n <= text.rfind('}'); ++n)
    EXPECT_TRUE(fails_with_position(text.substr(0, n))) << n;
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string flipped = text;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
    verify::Baseline b;
    EXPECT_TRUE(b.parse(flipped) || fails_with_position(flipped)) << i;
  }
}

TEST(Json, HostileCompileCommandsFailWithLineAndColumn) {
  Writer w;
  w.begin_array();
  for (const char* f : {"/p/src/a.cpp", "/p/tools/b.cpp", "/p/tests/c.cpp"})
    w.begin_object()
        .field("directory", "/p/build")
        .field("command", std::string("c++ -c ") + f)
        .field("file", f)
        .end();
  w.end();
  const std::string text = w.str();
  expect_hostile_variants_fail_cleanly(text);

  const std::string path =
      testing::TempDir() + "json_compdb_" + std::to_string(::getpid());
  for (const std::string& body : {text, text.substr(0, text.size() / 2)}) {
    std::ofstream(path) << body;
    tidy::TidyOptions opt;
    opt.compile_commands = path;
    std::vector<std::string> errors;
    const auto files = tidy::collect_files(opt, &errors);
    if (body == text) {
      EXPECT_TRUE(errors.empty());
      EXPECT_EQ(files.size(), 2u);  // tests/ stays out of the scan
    } else {
      ASSERT_EQ(errors.size(), 1u);
      int line = 0, column = 0;
      const std::size_t at = errors[0].find("': ");
      ASSERT_NE(at, std::string::npos) << errors[0];
      EXPECT_EQ(std::sscanf(errors[0].c_str() + at + 3, "%d:%d:", &line,
                            &column),
                2)
          << errors[0];
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace recosim::json
