#include "tidy/tidy.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>

#include "json/json.hpp"
#include "tidy/checks.hpp"
#include "tidy/lexer.hpp"
#include "tidy/model.hpp"
#include "verify/lint_driver.hpp"
#include "verify/rules.hpp"

namespace recosim::tidy {

namespace fs = std::filesystem;

namespace {

bool is_cpp_source(const std::string& p) {
  return p.ends_with(".cpp") || p.ends_with(".hpp") ||
         p.ends_with(".cc") || p.ends_with(".h");
}

/// Keep compile_commands entries inside the project's own src/ and
/// tools/ trees (the compdb also lists tests, benches and examples).
bool in_scanned_tree(const std::string& path) {
  return path.find("/src/") != std::string::npos ||
         path.find("/tools/") != std::string::npos ||
         path.rfind("src/", 0) == 0 || path.rfind("tools/", 0) == 0;
}

/// Absolute-normalized path, so the same file named relatively on the
/// command line and absolutely in compile_commands.json dedupes.
std::string normalize(const std::string& p) {
  std::error_code ec;
  fs::path abs = fs::weakly_canonical(p, ec);
  if (ec) return p;
  return abs.generic_string();
}

}  // namespace

std::vector<std::string> collect_files(const TidyOptions& opt,
                                       std::vector<std::string>* errors) {
  std::set<std::string> files;
  for (const std::string& p : opt.paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        std::string path = it->path().generic_string();
        if (is_cpp_source(path)) files.insert(normalize(path));
      }
      if (ec && errors)
        errors->push_back("cannot read directory '" + p + "'");
      continue;
    }
    files.insert(normalize(p));
  }
  if (!opt.compile_commands.empty()) {
    std::string text;
    json::Error err{1, 1, "not a JSON array"};  // unless parse() fails
    std::optional<json::Value> db;
    const bool readable = verify::read_file(opt.compile_commands, text);
    if (readable) db = json::parse(text, &err);
    if (!db || db->kind != json::Value::Kind::kArray) {
      if (errors)
        errors->push_back("cannot read compile_commands '" +
                          opt.compile_commands + "'" +
                          (readable ? ": " + err.to_string() : ""));
    } else {
      std::set<std::string> dirs;
      for (const json::Value& entry : db->items) {
        const std::string f = entry.get_string("file").value_or("");
        if (!in_scanned_tree(f) || !is_cpp_source(f)) continue;
        dirs.insert(fs::path(f).parent_path().generic_string());
        files.insert(normalize(f));
      }
      // compile_commands lists only translation units; the invariants
      // live in headers too, so pull in the siblings.
      for (const std::string& d : dirs) {
        std::error_code ec;
        for (fs::directory_iterator it(d, ec), end; !ec && it != end;
             it.increment(ec)) {
          if (!it->is_regular_file()) continue;
          std::string path = it->path().generic_string();
          if (path.ends_with(".hpp") || path.ends_with(".h"))
            files.insert(normalize(path));
        }
      }
    }
  }
  return std::vector<std::string>(files.begin(), files.end());
}

TidyResult run_tidy(const TidyOptions& opt) {
  TidyResult result;
  std::vector<std::string> errors;
  const std::vector<std::string> paths = collect_files(opt, &errors);
  result.unreadable = std::move(errors);

  CodeModel model;
  for (const std::string& path : paths) {
    std::string text;
    if (!verify::read_file(path, text)) {
      result.unreadable.push_back(path);
      continue;
    }
    model.files.push_back(build_file_model(path, lex(text)));
  }

  const std::vector<std::vector<Finding>> raw = run_checks(model);
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const FileModel& fm = model.files[i];
    verify::FileFindings ff;
    ff.path = fm.path;
    for (const Finding& finding : raw[i]) {
      if (allows_rule(fm, finding.rule, finding.line)) continue;
      verify::Diagnostic d;
      d.rule = finding.rule;
      const verify::RuleInfo* info = verify::find_rule(finding.rule);
      d.severity =
          info ? info->default_severity : verify::Severity::kError;
      d.location.component = finding.symbol.empty()
                                 ? fs::path(fm.path).filename().string()
                                 : finding.symbol;
      d.location.object = "line " + std::to_string(finding.line) + ":" +
                          std::to_string(finding.col);
      d.message = finding.message;
      d.fixit = finding.fixit;
      ff.diags.push_back(std::move(d));
    }
    result.files.push_back(std::move(ff));
  }
  return result;
}

verify::LintOutcome outcome(const TidyResult& result,
                            const verify::Baseline* baseline) {
  verify::LintOutcome out;
  out.parse_failed = !result.unreadable.empty();
  for (const auto& ff : result.files) out.add_file(ff.path, ff.diags, baseline);
  out.sink = {};
  for (const auto& ff : out.per_file) {
    for (verify::Diagnostic d : ff.diags) {
      d.location.component = ff.path + ": " + d.location.component;
      out.sink.add(std::move(d));
    }
  }
  return out;
}

}  // namespace recosim::tidy
