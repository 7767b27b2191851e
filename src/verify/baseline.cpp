// Lint baseline: a JSON list of suppression keys, written and read
// through the json module.

#include "verify/baseline.hpp"

#include <optional>

#include "json/json.hpp"

namespace recosim::verify {

namespace {

/// Suppression key. The message is deliberately not part of it — message
/// wording may be tuned across versions without invalidating baselines —
/// but the window is: a finding that grew or moved is a new finding.
std::string key(const std::string& rule, const std::string& path,
                const std::string& object, long long wb, long long we) {
  return rule + '\x1f' + path + '\x1f' + object + '\x1f' +
         std::to_string(wb) + '\x1f' + std::to_string(we);
}

}  // namespace

bool Baseline::parse(const std::string& text, std::string* error) {
  json::Error err;
  const std::optional<json::Value> doc = json::parse(text, &err);
  const json::Value* findings = doc ? doc->find("findings") : nullptr;
  if (findings == nullptr || findings->kind != json::Value::Kind::kArray) {
    if (error)
      *error = doc ? "1:1: not a baseline (no \"findings\" array)"
                   : err.to_string();
    return false;
  }
  for (const json::Value& f : findings->items) {
    const std::string rule = f.get_string("rule").value_or("");
    if (rule.empty()) continue;
    keys_.insert(key(rule, f.get_string("path").value_or(""),
                     f.get_string("object").value_or(""),
                     f.get_i64("window_begin").value_or(-1),
                     f.get_i64("window_end").value_or(-1)));
  }
  return true;
}

bool Baseline::suppressed(const std::string& path,
                          const Diagnostic& d) const {
  return keys_.count(
             key(d.rule, path, d.location.object, d.window_begin,
                 d.window_end)) > 0;
}

std::string Baseline::write(const std::vector<FileFindings>& files) {
  json::Writer w;
  w.begin_object().field("version", 1).key("findings").begin_array();
  for (const auto& f : files) {
    for (const auto& d : f.diags) {
      w.begin_object()
          .field("rule", d.rule)
          .field("path", f.path)
          .field("object", d.location.object)
          .field("window_begin", d.window_begin)
          .field("window_end", d.window_end)
          .end();
    }
  }
  w.end().end();
  return w.str() + "\n";
}

}  // namespace recosim::verify
