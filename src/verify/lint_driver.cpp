#include "verify/lint_driver.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>

#include "json/json.hpp"
#include "verify/fault_plan.hpp"
#include "verify/rules.hpp"
#include "verify/scenario.hpp"
#include "verify/timeline.hpp"
#include "verify/verifier.hpp"

namespace recosim::verify {

namespace fs = std::filesystem;

namespace {

int rule_index(const std::string& id) {
  int i = 0;
  for (const auto& r : kRules) {
    if (id == r.id) return i;
    ++i;
  }
  return -1;
}

/// Instantaneous event findings locate as "line L:C" objects; recover the
/// source region from them so SARIF viewers can jump to the line.
bool parse_line_object(const std::string& object, int& line, int& column) {
  return std::sscanf(object.c_str(), "line %d:%d", &line, &column) == 2;
}

}  // namespace

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  out.assign(std::istreambuf_iterator<char>(in), {});
  return static_cast<bool>(in);
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

std::string DiagnosticSink::to_json() const {
  json::Writer w;
  w.begin_array();
  for (const auto& d : diags_) {
    w.begin_object()
        .field("rule", d.rule)
        .field("severity", to_string(d.severity))
        .field("component", d.location.component)
        .field("object", d.location.object)
        .field("message", d.message)
        .field("fixit", d.fixit);
    if (d.has_window())
      w.field("window_begin", d.window_begin)
          .field("window_end", d.window_end);
    w.end();
  }
  w.end();
  return w.str();
}

void LintOutcome::add_file(const std::string& path,
                           const std::vector<Diagnostic>& diags,
                           const Baseline* baseline) {
  FileFindings ff;
  ff.path = path;
  for (const auto& d : diags) {
    if (baseline && baseline->suppressed(path, d)) {
      ++suppressed;
      continue;
    }
    ff.diags.push_back(d);
    sink.add(d);
  }
  per_file.push_back(std::move(ff));
}

std::string to_sarif(const std::vector<FileFindings>& files,
                     const char* tool_name) {
  json::Writer w;
  w.begin_object()
      .field("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
      .field("version", "2.1.0")
      .key("runs").begin_array().begin_object()
      .key("tool").begin_object()
      .key("driver").begin_object()
      .field("name", tool_name)
      .field("informationUri", "docs/static-analysis.md")
      .key("rules").begin_array();
  for (const auto& r : kRules) {
    w.begin_object()
        .field("id", r.id)
        .field("name", r.name)
        .key("shortDescription").begin_object().field("text", r.summary).end()
        .key("defaultConfiguration").begin_object()
        .field("level", to_string(r.default_severity)).end()
        .end();
  }
  w.end().end().end();  // rules, driver, tool
  w.key("results").begin_array();
  for (const auto& f : files) {
    for (const auto& d : f.diags) {
      w.begin_object().field("ruleId", d.rule);
      if (const int idx = rule_index(d.rule); idx >= 0)
        w.field("ruleIndex", idx);
      w.field("level", to_string(d.severity))
          .key("message").begin_object().field("text", d.message).end()
          .key("locations").begin_array().begin_object()
          .key("physicalLocation").begin_object()
          .key("artifactLocation").begin_object().field("uri", f.path).end();
      if (int line = 0, column = 0;
          parse_line_object(d.location.object, line, column)) {
        w.key("region").begin_object()
            .field("startLine", line).field("startColumn", column).end();
      }
      std::string name = d.location.component;
      if (!d.location.object.empty()) name += "/" + d.location.object;
      w.end()  // physicalLocation
          .key("logicalLocations").begin_array().begin_object()
          .field("fullyQualifiedName", name).end().end()
          .end().end()  // the location, locations
          .key("properties").begin_object().field("fixit", d.fixit);
      if (d.has_window())
        w.field("window_begin", d.window_begin)
            .field("window_end", d.window_end);
      w.end().end();  // properties, the result
    }
  }
  w.end().end().end().end();  // results, the run, runs, the log
  return w.str() + "\n";
}

LintOutcome run_lint(const LintOptions& opt) {
  LintOutcome out;

  // Under --timeline, a plan named like a scenario on the command line
  // pairs with it and must not be checked a second time standalone.
  std::set<std::string> paired_plans;

  // Fault plans are checked against the most recent scenario in the file
  // list, so `topo.rcs plan.fplan` validates the plan's coordinates
  // against that topology.
  std::optional<Scenario> topology;
  for (const auto& file : opt.files) {
    // Findings of one file land in a local sink first so they can be
    // keyed to their path (SARIF artifacts, baseline suppression).
    DiagnosticSink local;
    if (file.ends_with(".fplan")) {
      if (paired_plans.count(file)) continue;  // already ran with its .rcs
      auto plan = parse_fault_plan_file(file, local);
      if (!plan) {
        out.parse_failed = true;
        out.add_file(file, local.diagnostics(), opt.baseline);
        continue;
      }
      check_fault_plan(*plan, topology ? &*topology : nullptr, local);
      out.add_file(file, local.diagnostics(), opt.baseline);
      continue;
    }
    auto scenario = parse_scenario_file(file, local);
    if (!scenario) {
      out.parse_failed = true;
      out.add_file(file, local.diagnostics(), opt.baseline);
      continue;
    }
    if (opt.timeline) {
      std::optional<FaultPlanDoc> plan;
      const fs::path plan_path = fs::path(file).replace_extension(".fplan");
      std::error_code ec;
      if (fs::is_regular_file(plan_path, ec)) {
        plan = parse_fault_plan_file(plan_path.string(), local);
        if (plan) {
          paired_plans.insert(plan_path.string());
          check_fault_plan(*plan, &*scenario, local);
        } else {
          out.parse_failed = true;
        }
      }
      Timeline::check(*scenario, plan ? &*plan : nullptr, local,
                      &opt.envelope);
    } else {
      Verifier::check_all(*scenario, local);
    }
    out.add_file(file, local.diagnostics(), opt.baseline);
    topology = std::move(*scenario);
  }
  return out;
}

bool load_baseline(const char* tool, const std::string& path,
                   Baseline& out) {
  std::string text, error = "cannot open the file";
  if (path.empty() || (read_file(path, text) && out.parse(text, &error)))
    return true;
  std::fprintf(stderr, "%s: cannot read baseline '%s': %s\n", tool,
               path.c_str(), error.c_str());
  return false;
}

int report(const LintOutcome& outcome, const ReportOptions& opt) {
  if (!opt.sarif_path.empty() &&
      !write_file(opt.sarif_path, to_sarif(outcome.per_file, opt.tool))) {
    std::fprintf(stderr, "%s: cannot write SARIF '%s'\n", opt.tool,
                 opt.sarif_path.c_str());
    return 2;
  }
  if (!opt.baseline_write_path.empty() &&
      !write_file(opt.baseline_write_path,
                  Baseline::write(outcome.per_file))) {
    std::fprintf(stderr, "%s: cannot write baseline '%s'\n", opt.tool,
                 opt.baseline_write_path.c_str());
    return 2;
  }
  const DiagnosticSink& sink = outcome.sink;
  if (opt.json) {
    std::printf("%s\n", sink.to_json().c_str());
  } else {
    std::printf("%s", sink.to_text().c_str());
    std::printf("%zu diagnostic(s), %zu error(s), %zu warning(s)",
                sink.size(), sink.error_count(),
                sink.count(Severity::kWarning));
    if (outcome.suppressed > 0)
      std::printf(", %zu baseline-suppressed", outcome.suppressed);
    std::printf("\n");
  }
  return outcome.exit_code(opt.werror, !opt.baseline_write_path.empty());
}

}  // namespace recosim::verify
