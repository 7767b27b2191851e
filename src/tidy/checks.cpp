#include "tidy/checks.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace recosim::tidy {

namespace {

bool tok_is(const Token& t, const char* text) { return t.text == text; }

bool in_bench(const std::string& path) {
  return path.find("bench/") != std::string::npos ||
         path.rfind("bench", 0) == 0;
}

/// Identifiers immediately followed by '(' inside [begin, end).
std::set<std::string> calls_in(const FileModel& f, std::size_t begin,
                               std::size_t end) {
  std::set<std::string> out;
  const auto& toks = f.lx.tokens;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (toks[i].kind == TokKind::kIdent && tok_is(toks[i + 1], "("))
      out.insert(toks[i].text);
  }
  return out;
}

bool range_contains_ident(const FileModel& f, std::size_t begin,
                          std::size_t end, const char* const* names,
                          std::size_t n) {
  const auto& toks = f.lx.tokens;
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    for (std::size_t k = 0; k < n; ++k)
      if (toks[i].text == names[k]) return true;
  }
  return false;
}

void add(std::vector<Finding>& out, const FileModel& f, std::string rule,
         std::size_t tok_index, std::string message, std::string fixit) {
  const Token& t = f.lx.tokens[tok_index];
  out.push_back(Finding{std::move(rule), symbol_at(f, tok_index), t.line,
                        t.col, std::move(message), std::move(fixit)});
}

// ---- RCD001: unordered-container iteration --------------------------------

const char* const kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

/// Names of variables/members declared with an unordered container type.
std::set<std::string> unordered_decls(const FileModel& f) {
  std::set<std::string> names;
  const auto& toks = f.lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    bool is_unordered = false;
    for (const char* u : kUnorderedTypes)
      if (toks[i].text == u) is_unordered = true;
    if (!is_unordered || !tok_is(toks[i + 1], "<")) continue;
    std::size_t j = skip_template_args(f, i + 1);
    while (j < toks.size() &&
           (tok_is(toks[j], "&") || tok_is(toks[j], "*") ||
            (toks[j].kind == TokKind::kIdent && toks[j].text == "const")))
      ++j;
    if (j < toks.size() && toks[j].kind == TokKind::kIdent)
      names.insert(toks[j].text);
  }
  return names;
}

void check_rcd001(const FileModel& f, std::vector<Finding>& out) {
  const std::set<std::string> unordered = unordered_decls(f);
  if (unordered.empty()) return;
  const auto& toks = f.lx.tokens;
  // Range-for over an unordered container.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || toks[i].text != "for") continue;
    if (!tok_is(toks[i + 1], "(")) continue;
    const std::size_t close = f.match[i + 1];
    // Find the range-for ':' at paren depth 1.
    std::size_t colon = 0;
    for (std::size_t j = i + 2; j + 1 < close; ++j) {
      if (tok_is(toks[j], "(") || tok_is(toks[j], "[") ||
          tok_is(toks[j], "{")) {
        j = f.match[j] - 1;
        continue;
      }
      if (tok_is(toks[j], ";")) break;  // classic for loop
      if (tok_is(toks[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon == 0) continue;
    for (std::size_t j = colon + 1; j + 1 < close; ++j) {
      if (toks[j].kind == TokKind::kIdent && unordered.count(toks[j].text)) {
        add(out, f, "RCD001", i,
            "range-for over unordered container '" + toks[j].text +
                "': iteration order varies across runs and breaks "
                "bit-identical digests",
            "iterate a sorted copy or an ordered container; an "
            "order-insensitive aggregation may be annotated "
            "\"recosim-tidy: allow(RCD001): <why>\"");
        break;
      }
    }
  }
  // Manual iterator walks: name.begin() / name.cbegin() / name.rbegin().
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent || !unordered.count(toks[i].text))
      continue;
    if (!tok_is(toks[i + 1], ".")) continue;
    const std::string& m = toks[i + 2].text;
    if (m == "begin" || m == "cbegin" || m == "rbegin") {
      add(out, f, "RCD001", i,
          "iterator walk over unordered container '" + toks[i].text +
              "': traversal order varies across runs",
          "iterate a sorted copy or an ordered container");
    }
  }
}

// ---- RCD002: wall-clock / ambient randomness ------------------------------

void check_rcd002(const FileModel& f, std::vector<Finding>& out) {
  if (in_bench(f.path)) return;  // benches measure wall time by design
  static const char* const kBanned[] = {
      "rand",          "srand",        "drand48",
      "lrand48",       "random_device", "system_clock",
      "steady_clock",  "high_resolution_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "localtime",
      "gmtime",
  };
  const auto& toks = f.lx.tokens;
  int last_line = -1;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& s = toks[i].text;
    bool hit = false;
    for (const char* b : kBanned)
      if (s == b) hit = true;
    // ::time( / std::time( and ::clock( — too common unqualified.
    if ((s == "time" || s == "clock") && i > 0 && i + 1 < toks.size() &&
        tok_is(toks[i - 1], "::") && tok_is(toks[i + 1], "("))
      hit = true;
    if (!hit) continue;
    if (toks[i].line == last_line) continue;  // one finding per line
    last_line = toks[i].line;
    add(out, f, "RCD002", i,
        "'" + s +
            "' injects wall-clock time or ambient randomness into a "
            "deterministic path; runs stop being reproducible",
        "derive values from the kernel cycle counter or a seeded sim::Rng; "
        "a real-time watchdog may be annotated "
        "\"recosim-tidy: allow(RCD002): <why>\"");
  }
}

// ---- RCD003: kernel-scheduled lambda capturing `this` without anchor ------

void check_rcd003(const FileModel& f, std::vector<Finding>& out) {
  const auto& toks = f.lx.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (toks[i].text != "schedule_at" && toks[i].text != "schedule_in")
      continue;
    if (!tok_is(toks[i + 1], "(")) continue;
    const std::size_t open = i + 1;
    const std::size_t close = f.match[open];
    for (std::size_t j = open + 1; j + 1 < close; ++j) {
      if (!tok_is(toks[j], "[")) continue;
      // Lambda introducer in argument position (subscripts follow a
      // value; introducers follow '(' or ',').
      if (!(tok_is(toks[j - 1], "(") || tok_is(toks[j - 1], ","))) continue;
      const std::size_t cap_end = f.match[j];
      bool captures_this = false;
      for (std::size_t k = j + 1; k + 1 < cap_end; ++k)
        if (toks[k].kind == TokKind::kIdent && toks[k].text == "this")
          captures_this = true;
      if (!captures_this) continue;
      bool anchored = false;
      for (std::size_t k = open + 1; k < j; ++k)
        if (toks[k].kind == TokKind::kIdent && toks[k].text == "wrap")
          anchored = true;
      if (!anchored) {
        add(out, f, "RCD003", j,
            "lambda capturing `this` is handed to the kernel event queue "
            "without a CallbackAnchor; it dangles if the owner dies before "
            "the event fires",
            "wrap it: schedule_*(cycle, anchor_.wrap([this]{...})) with a "
            "CallbackAnchor member declared last in the owner");
      }
    }
  }
}

// ---- RCD004: Component subclass without activity protocol -----------------
// A class is a component when it names Component or CommArchitecture (the
// network base, itself a Component) as a direct base.

bool bases_have(const ClassDef& c, const char* base) {
  // bases is space-joined tokens, so exact-token match avoids substrings.
  std::size_t pos = 0;
  const std::string needle(base);
  while ((pos = c.bases.find(needle, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || c.bases[pos - 1] == ' ';
    const std::size_t end = pos + needle.size();
    const bool right_ok = end == c.bases.size() || c.bases[end] == ' ';
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

const char* const kActivityIdents[] = {"set_active", "set_ff_pollable",
                                       "is_quiescent"};

void check_rcd004(const CodeModel& model,
                  std::vector<std::vector<Finding>>& out) {
  // Which classes engage the activity protocol anywhere in the project
  // (declaration in the class body or a call in an out-of-line member)?
  std::set<std::string> engaged;
  for (const FileModel& f : model.files) {
    for (const ClassDef& c : f.classes) {
      if (range_contains_ident(f, c.body_begin, c.body_end, kActivityIdents,
                               3))
        engaged.insert(c.name);
    }
    for (const FunctionDef& fn : f.functions) {
      if (fn.class_name.empty()) continue;
      if (range_contains_ident(f, fn.body_begin, fn.body_end,
                               kActivityIdents, 3))
        engaged.insert(fn.class_name);
    }
  }
  for (std::size_t fi = 0; fi < model.files.size(); ++fi) {
    const FileModel& f = model.files[fi];
    for (const ClassDef& c : f.classes) {
      if (!bases_have(c, "Component") &&
          !bases_have(c, "CommArchitecture"))
        continue;
      bool has_eval = false;
      for (const std::string& m : c.declared_methods)
        if (m == "eval") has_eval = true;
      if (!has_eval) continue;
      if (engaged.count(c.name)) continue;
      // Attach to the class declaration line.
      Finding fd;
      fd.rule = "RCD004";
      fd.symbol = c.name;
      fd.line = c.line;
      fd.col = c.col;
      fd.message =
          "Component subclass '" + c.name +
          "' overrides eval() but never engages the activity protocol "
          "(set_active / is_quiescent / set_ff_pollable); it blocks idle "
          "fast-forward for every simulation it joins";
      fd.fixit =
          "call set_active(false) when idle, or override is_quiescent(); a "
          "component that must run every cycle may be annotated "
          "\"recosim-tidy: allow(RCD004): <why>\"";
      out[fi].push_back(std::move(fd));
    }
  }
}

// ---- RCD005: ordering keyed on raw pointer values -------------------------

void check_rcd005(const FileModel& f, std::vector<Finding>& out) {
  const auto& toks = f.lx.tokens;
  for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    const std::string& s = toks[i].text;
    if (s != "map" && s != "set" && s != "multimap" && s != "multiset" &&
        s != "less")
      continue;
    if (!tok_is(toks[i - 1], "::") || toks[i - 2].text != "std") continue;
    if (!tok_is(toks[i + 1], "<")) continue;
    // Collect the first template argument (top-level, up to ',' or '>').
    int depth = 1;
    std::string last;
    bool pointer_key = false;
    for (std::size_t j = i + 2; j < toks.size(); ++j) {
      const std::string& u = toks[j].text;
      if (u == "(") {
        j = f.match[j] - 1;
        continue;
      }
      if (u == "<") ++depth;
      else if (u == ">") {
        if (--depth == 0) {
          pointer_key = last == "*";
          break;
        }
      } else if (u == "," && depth == 1) {
        pointer_key = last == "*";
        break;
      } else if (u == ";" || u == "{") {
        break;
      }
      last = u;
    }
    if (pointer_key) {
      add(out, f, "RCD005", i,
          "ordered container/comparator keyed on a raw pointer: address "
          "order changes with every allocation layout (ASLR, arena reuse), "
          "so any behaviour derived from it is nondeterministic",
          "key on a stable id (module id, name, index) or an ordered "
          "value extracted from the pointee");
    }
  }
}

// ---- RCD006: architecture mutator that never wakes the network ------------

void check_rcd006(const CodeModel& model,
                  std::vector<std::vector<Finding>>& out) {
  // Architecture classes: bases name CommArchitecture.
  std::set<std::string> arch_classes;
  for (const FileModel& f : model.files)
    for (const ClassDef& c : f.classes)
      if (bases_have(c, "CommArchitecture")) arch_classes.insert(c.name);
  if (arch_classes.empty()) return;

  struct MethodRef {
    std::size_t file;
    const FunctionDef* fn;
  };
  for (const std::string& cls : arch_classes) {
    // All member-function definitions of this class, project-wide.
    std::vector<MethodRef> methods;
    std::map<std::string, std::set<std::string>> calls;  // name -> callees
    for (std::size_t fi = 0; fi < model.files.size(); ++fi) {
      for (const FunctionDef& fn : model.files[fi].functions) {
        if (fn.class_name != cls) continue;
        methods.push_back(MethodRef{fi, &fn});
        std::set<std::string> cs =
            calls_in(model.files[fi], fn.body_begin, fn.body_end);
        calls[fn.name].insert(cs.begin(), cs.end());
      }
    }
    // Transitive closure of "calls wake_network" over same-class methods.
    std::set<std::string> wakes;
    for (const auto& [name, cs] : calls)
      if (cs.count("wake_network")) wakes.insert(name);
    bool grew = true;
    while (grew) {
      grew = false;
      for (const auto& [name, cs] : calls) {
        if (wakes.count(name)) continue;
        for (const std::string& callee : cs) {
          if (wakes.count(callee) && calls.count(callee)) {
            wakes.insert(name);
            grew = true;
            break;
          }
        }
      }
    }
    for (const MethodRef& m : methods) {
      const std::string& name = m.fn->name;
      if (name == "eval" || name == "commit" || name == "verify_invariants" ||
          name == "debug_check_invariants")
        continue;
      const FileModel& f = model.files[m.file];
      if (!calls_in(f, m.fn->body_begin, m.fn->body_end)
               .count("debug_check_invariants"))
        continue;  // not a reconfiguration mutator by repo convention
      if (wakes.count(name)) continue;
      Finding fd;
      fd.rule = "RCD006";
      fd.symbol = cls + "::" + name;
      fd.line = m.fn->line;
      fd.col = m.fn->col;
      fd.message =
          "architecture mutator " + cls + "::" + name +
          "() runs debug_check_invariants() but never wake_network() (not "
          "even transitively); work it enables can strand in a sleeping "
          "network component";
      fd.fixit =
          "call wake_network() after mutating (idempotent and cheap), or "
          "annotate a mutator that provably adds no deliverable work with "
          "\"recosim-tidy: allow(RCD006): <why>\"";
      out[m.file].push_back(std::move(fd));
    }
  }
}

// ---- RCD007: unjustified suppression --------------------------------------

void check_rcd007(const FileModel& f, std::vector<Finding>& out) {
  for (const AllowAnnotation& a : f.allows) {
    if (!a.reason.empty()) continue;
    Finding fd;
    fd.rule = "RCD007";
    fd.symbol = a.rule;
    fd.line = a.line;
    fd.col = 1;
    fd.message = "allow(" + a.rule +
                 ") annotation carries no justification; suppressions must "
                 "say why the invariant does not apply (and an unjustified "
                 "one suppresses nothing)";
    fd.fixit = "write \"recosim-tidy: allow(" + a.rule + "): <why>\"";
    out.push_back(std::move(fd));
  }
}

}  // namespace

std::vector<std::vector<Finding>> run_checks(const CodeModel& model) {
  std::vector<std::vector<Finding>> out(model.files.size());
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const FileModel& f = model.files[i];
    check_rcd001(f, out[i]);
    check_rcd002(f, out[i]);
    check_rcd003(f, out[i]);
    check_rcd005(f, out[i]);
    check_rcd007(f, out[i]);
  }
  check_rcd004(model, out);
  check_rcd006(model, out);
  // Deterministic report order within a file.
  for (auto& findings : out) {
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.line != b.line) return a.line < b.line;
                       if (a.col != b.col) return a.col < b.col;
                       return a.rule < b.rule;
                     });
  }
  return out;
}

}  // namespace recosim::tidy
