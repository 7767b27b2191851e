#include "json/json.hpp"

#include <algorithm>
#include <cstdio>

namespace recosim::json {

namespace {

/// Length of the well-formed UTF-8 sequence starting at s[i], or 0. The
/// second byte's range rules out overlong forms, surrogates and code
/// points beyond U+10FFFF.
std::size_t utf8_length(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(s[i + k]);
  };
  const unsigned char c = byte(0);
  const std::size_t n = c >= 0xF0 ? 4 : c >= 0xE0 ? 3 : 2;
  if (c < 0xC2 || c > 0xF4 || s.size() - i < n) return 0;
  if (byte(1) < (c == 0xE0 ? 0xA0 : c == 0xF0 ? 0x90 : 0x80) ||
      byte(1) > (c == 0xED ? 0x9F : c == 0xF4 ? 0x8F : 0xBF))
    return 0;
  for (std::size_t k = 2; k < n; ++k)
    if ((byte(k) & 0xC0) != 0x80) return 0;
  return n;
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    const std::size_t n = c < 0x80 ? 1 : utf8_length(s, i);
    if (c == '"' || c == '\\') {
      (out += '\\') += static_cast<char>(c);
    } else if (c == '\n' || c == '\t' || c == '\r') {
      out += c == '\n' ? "\\n" : c == '\t' ? "\\t" : "\\r";
    } else if (c >= 0x20 && n > 0) {
      out.append(s, i, n);
      i += n - 1;
    } else {  // a control byte, or a byte outside any UTF-8 sequence
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    }
  }
  return out;
}

Writer& Writer::token(std::string_view t) {
  if (after_key_) {
    after_key_ = false;
  } else if (!open_.empty()) {
    if (open_.back().second) out_ += ',';
    open_.back().second = true;
    newline();
  }
  out_ += t;
  return *this;
}

void Writer::newline() {
  if (style_ == Style::kIndented)
    out_.append("\n").append(2 * open_.size(), ' ');
}

Writer& Writer::open(char bracket, char closer) {
  token(std::string_view(&bracket, 1));
  open_.emplace_back(closer, false);
  return *this;
}

Writer& Writer::end() {
  const auto [closer, nonempty] = open_.back();
  open_.pop_back();
  if (nonempty) newline();
  out_ += closer;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  value(k);
  out_ += style_ == Style::kCompact ? ":" : ": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view s) {
  std::string quoted(1, '"');
  quoted.append(escape(s)).push_back('"');
  return token(quoted);
}

Writer& Writer::value(double d) {
  // A default-formatted ostream prints doubles as printf's %g with
  // precision 6; the digests of recovery runs depend on exactly that.
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%g", d);
  return token(std::string_view(buf, static_cast<std::size_t>(n)));
}

const Value* Value::find(std::string_view key) const {
  for (std::size_t i = 0; kind == Kind::kObject && i < keys.size(); ++i)
    if (keys[i] == key) return &items[i];
  return nullptr;
}

std::optional<std::string> Value::get_string(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || v->kind != Kind::kString) return std::nullopt;
  return v->text;
}

std::optional<std::uint64_t> Value::get_u64(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || v->kind != Kind::kInteger || (v->flag && v->magnitude))
    return std::nullopt;
  return v->magnitude;
}

std::optional<std::int64_t> Value::get_i64(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr || v->kind != Kind::kInteger ||
      v->magnitude > (1ULL << 63) - (v->flag ? 0 : 1))
    return std::nullopt;
  // Modular conversion (C++20) maps 2^64 - m to -m, also for m == 2^63.
  return static_cast<std::int64_t>(v->flag ? 0 - v->magnitude : v->magnitude);
}

std::string Error::to_string() const {
  return std::to_string(line) + ":" + std::to_string(column) + ": " + message;
}

namespace {

/// Recursive-descent parser over one document; a failure records the
/// byte offset it was detected at.
struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::size_t error_at = 0;
  std::string error;

  bool fail(std::string why, std::size_t at) {
    error_at = at;
    error = std::move(why);
    return false;
  }
  bool at(char c) const { return pos < text.size() && text[pos] == c; }
  bool eat(char c) { return at(c) && ++pos; }
  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos;
  }

  bool value(Value& out, int depth) {
    if (at('{') || at('[')) return container(out, depth + 1);
    if (at('"')) {
      out.kind = Value::Kind::kString;
      return string(out.text);
    }
    if (at('-') || (pos < text.size() && text[pos] >= '0' && text[pos] <= '9'))
      return integer(out);
    for (const std::string_view word : {"true", "false"}) {
      if (text.substr(pos, word.size()) != word) continue;
      pos += word.size();
      out.flag = word == "true";  // Kind::kBool is the default
      return true;
    }
    return fail("expected a value", pos);
  }

  bool container(Value& out, int depth) {
    if (depth > kMaxDepth)
      return fail("nesting deeper than " + std::to_string(kMaxDepth), pos);
    const bool object = text[pos++] == '{';
    const char closer = object ? '}' : ']';
    out.kind = object ? Value::Kind::kObject : Value::Kind::kArray;
    skip_ws();
    if (eat(closer)) return true;
    do {
      skip_ws();
      if (object) {
        if (!at('"')) return fail("expected a string key", pos);
        if (!string(out.keys.emplace_back())) return false;
        skip_ws();
        if (!eat(':')) return fail("expected ':' after a key", pos);
        skip_ws();
      }
      if (!value(out.items.emplace_back(), depth)) return false;
      skip_ws();
    } while (eat(','));
    return eat(closer) ||
           fail(std::string("expected ',' or '") + closer + "'", pos);
  }

  bool integer(Value& out) {
    const std::size_t start = pos;
    out.kind = Value::Kind::kInteger;
    out.flag = eat('-');
    const char* digits = text.data() + pos;
    const auto [end, ec] =
        std::from_chars(digits, text.data() + text.size(), out.magnitude);
    if (ec == std::errc::invalid_argument) return fail("expected a digit", pos);
    pos = static_cast<std::size_t>(end - text.data());
    if (ec != std::errc() || (out.flag && out.magnitude > (1ULL << 63)))
      return fail("integer out of 64-bit range", start);
    if (*digits == '0' && end - digits > 1)
      return fail("leading zero in a number", start);
    if (at('.') || at('e') || at('E'))
      return fail("only integers are supported", pos);
    return true;
  }

  bool string(std::string& out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    const std::size_t open = pos++;
    while (pos < text.size() && text[pos] != '"') {
      const char c = text[pos++];
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in a string", pos - 1);
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos == text.size()) break;
      const std::size_t k = kEscapes.find(text[pos++]);
      if (k != std::string_view::npos) {
        out += kDecoded[k];
        continue;
      }
      unsigned cp = 0;
      const char* hex = text.data() + pos;
      const char* hex_end = hex + std::min<std::size_t>(4, text.size() - pos);
      if (text[pos - 1] != 'u' ||
          std::from_chars(hex, hex_end, cp, 16).ptr != hex + 4 ||
          (cp >= 0xD800 && cp < 0xE000))
        return fail("bad escape", pos - 2);
      pos += 4;
      if (cp < 0x100) {  // one byte: the inverse of the writer's \u00XX
        out += static_cast<char>(cp);
      } else {  // UTF-8
        if (cp >= 0x800) out += static_cast<char>(0xE0 | cp >> 12);
        out += static_cast<char>(cp >= 0x800 ? 0x80 | (cp >> 6 & 0x3F)
                                             : 0xC0 | cp >> 6);
        out += static_cast<char>(0x80 | (cp & 0x3F));
      }
    }
    return eat('"') || fail("unterminated string", open);
  }
};

}  // namespace

std::optional<Value> parse(std::string_view text, Error* error) {
  Parser p{text, 0, 0, {}};
  Value v;
  p.skip_ws();
  if (p.value(v, 0)) {
    p.skip_ws();
    if (p.pos == text.size()) return v;
    p.fail("trailing bytes after the value", p.pos);
  }
  if (error) {
    *error = Error{1, 1, p.error};
    for (std::size_t i = 0; i < p.error_at; ++i) {
      error->line += text[i] == '\n';
      error->column = text[i] == '\n' ? 1 : error->column + 1;
    }
  }
  return std::nullopt;
}

}  // namespace recosim::json
