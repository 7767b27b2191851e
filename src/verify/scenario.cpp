#include "verify/scenario.hpp"

#include <sstream>

#include "verify/lint_driver.hpp"

namespace recosim::verify {

const char* to_string(ArchKind k) {
  switch (k) {
    case ArchKind::kNone: return "none";
    case ArchKind::kBuscom: return "buscom";
    case ArchKind::kRmboc: return "rmboc";
    case ArchKind::kDynoc: return "dynoc";
    case ArchKind::kConochi: return "conochi";
  }
  return "?";
}

namespace {

struct LineCtx {
  const std::string& source;
  const std::string& text;  ///< the line being parsed (columns)
  int number;
  int column;  ///< 1-based column the next diagnostic points at
  DiagnosticSink& sink;

  Location loc() const {
    return {source, "line " + std::to_string(number) + ":" +
                        std::to_string(column)};
  }
  /// Point the next diagnostic at the first token at/after stream
  /// position `pos` (failed extractions leave the stream at the spot the
  /// token should have been; -1 / past-the-end means end of line).
  void at_pos(std::streampos pos) {
    std::size_t p = pos < 0 ? text.size()
                            : std::min<std::size_t>(
                                  static_cast<std::size_t>(pos), text.size());
    while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
    column = static_cast<int>(p) + 1;
  }
  void parse_error(const std::string& msg, const std::string& fixit = {}) {
    sink.report("LNT001", Severity::kError, loc(), msg, fixit);
  }
  void bad_reference(const std::string& msg, const std::string& fixit = {}) {
    sink.report("LNT002", Severity::kError, loc(), msg, fixit);
  }
};

/// Pull exactly `n` integers from the stream; false (+ diagnostic with
/// the column of the offending argument) on shortage or trailing garbage.
bool take_ints(std::istringstream& in, LineCtx& ctx, const char* directive,
               int n, int* out) {
  for (int i = 0; i < n; ++i) {
    const std::streampos pos = in.tellg();
    if (!(in >> out[i])) {
      in.clear();
      ctx.at_pos(pos);
      ctx.parse_error(std::string(directive) + " expects " +
                      std::to_string(n) + " integer argument(s)");
      return false;
    }
  }
  const std::streampos pos = in.tellg();
  std::string rest;
  if (in >> rest) {
    ctx.at_pos(pos);
    ctx.parse_error(std::string(directive) + " has trailing input '" +
                    rest + "'");
    return false;
  }
  return true;
}

bool arch_is(LineCtx& ctx, const Scenario& s, ArchKind want,
             const char* directive) {
  if (s.arch == want) return true;
  ctx.bad_reference(std::string(directive) + " is a " +
                        std::string(to_string(want)) +
                        " directive but the scenario declares arch " +
                        to_string(s.arch),
                    "move the directive or change the arch line");
  return false;
}

}  // namespace

std::optional<Scenario> parse_scenario(const std::string& text,
                                       const std::string& source_name,
                                       DiagnosticSink& sink) {
  Scenario s;
  s.source = source_name;
  std::istringstream lines(text);
  std::string line;
  int number = 0;
  while (std::getline(lines, line)) {
    ++number;
    if (auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream in(line);
    std::string word;
    if (!(in >> word)) continue;  // blank / comment-only
    const auto first = line.find_first_not_of(" \t");
    const int directive_col =
        first == std::string::npos ? 1 : static_cast<int>(first) + 1;
    LineCtx ctx{source_name, line, number, directive_col, sink};

    if (word == "arch") {
      std::string kind;
      in >> kind;
      if (kind == "buscom") s.arch = ArchKind::kBuscom;
      else if (kind == "rmboc") s.arch = ArchKind::kRmboc;
      else if (kind == "dynoc") s.arch = ArchKind::kDynoc;
      else if (kind == "conochi") s.arch = ArchKind::kConochi;
      else
        ctx.parse_error("unknown architecture '" + kind + "'",
                        "one of: buscom, rmboc, dynoc, conochi");
    } else if (word == "set") {
      std::string key;
      double value = 0;
      if (in >> key >> value) s.settings[key] = value;
      else ctx.parse_error("set expects: set <key> <number>");
    } else if (word == "module") {
      int v[3] = {0, 1, 1};
      if (!(in >> v[0])) {
        ctx.parse_error("module expects: module <id> [<w> <h>]");
        continue;
      }
      in >> v[1] >> v[2];  // optional size
      if (s.has_module(v[0]))
        ctx.bad_reference("module " + std::to_string(v[0]) +
                          " declared twice");
      else
        s.modules.push_back({v[0], v[1], v[2]});
    } else if (word == "slot") {
      int v[3];
      if (!arch_is(ctx, s, ArchKind::kBuscom, "slot") ||
          !take_ints(in, ctx, "slot", 3, v))
        continue;
      s.slots.push_back({v[0], v[1], v[2]});
    } else if (word == "demand") {
      int id = 0;
      double bytes = 0;
      if (!arch_is(ctx, s, ArchKind::kBuscom, "demand")) continue;
      if (in >> id >> bytes) s.demand[id] = bytes;
      else ctx.parse_error("demand expects: demand <module> <bytes>");
    } else if (word == "place") {
      // Two integers = RMBoC (module, slot); three = DyNoC (module, x, y).
      const bool rmboc = s.arch == ArchKind::kRmboc;
      if (!rmboc && s.arch != ArchKind::kDynoc) {
        ctx.bad_reference("place applies to rmboc or dynoc scenarios");
        continue;
      }
      int v[3] = {0, 0, 0};
      if (!take_ints(in, ctx, "place", rmboc ? 2 : 3, v)) continue;
      if (s.placement.count(v[0]))
        ctx.bad_reference("module " + std::to_string(v[0]) +
                          " placed twice");
      else
        s.placement[v[0]] = {v[1], v[2]};
      if (!s.has_module(v[0]))
        ctx.bad_reference("place references undeclared module " +
                          std::to_string(v[0]));
    } else if (word == "channel") {
      int v[2];
      if (!arch_is(ctx, s, ArchKind::kRmboc, "channel")) continue;
      if (!(in >> v[0] >> v[1])) {
        ctx.parse_error("channel expects: channel <src> <dst> [<lanes>]");
        continue;
      }
      int lanes = 1;
      in >> lanes;
      s.channels.push_back({v[0], v[1], lanes});
    } else if (word == "switch") {
      int v[2];
      if (!arch_is(ctx, s, ArchKind::kConochi, "switch") ||
          !take_ints(in, ctx, "switch", 2, v))
        continue;
      s.switches.push_back({v[0], v[1]});
    } else if (word == "wire") {
      int v[4];
      if (!arch_is(ctx, s, ArchKind::kConochi, "wire") ||
          !take_ints(in, ctx, "wire", 4, v))
        continue;
      if (v[0] != v[2] && v[1] != v[3]) {
        ctx.parse_error("wire runs must be straight (same row or column)");
        continue;
      }
      s.wires.push_back({{v[0], v[1]}, {v[2], v[3]}});
    } else if (word == "attach") {
      int v[3];
      if (!arch_is(ctx, s, ArchKind::kConochi, "attach") ||
          !take_ints(in, ctx, "attach", 3, v))
        continue;
      if (!s.has_module(v[0])) {
        ctx.bad_reference("attach references undeclared module " +
                          std::to_string(v[0]));
        continue;
      }
      if (s.placement.count(v[0]))
        ctx.bad_reference("module " + std::to_string(v[0]) +
                          " attached twice");
      else
        s.placement[v[0]] = {v[1], v[2]};
    } else if (word == "route") {
      int v[4];
      if (!arch_is(ctx, s, ArchKind::kConochi, "route") ||
          !take_ints(in, ctx, "route", 4, v))
        continue;
      if (v[3] < 0 || v[3] > 3) {
        ctx.parse_error("route port must be 0 (N), 1 (E), 2 (S) or 3 (W)");
        continue;
      }
      s.routes.push_back({{v[0], v[1]}, v[2], v[3]});
    } else if (word == "deadline") {
      int v[2];
      long long cycles = 0;
      if (!(in >> v[0] >> v[1] >> cycles)) {
        ctx.parse_error("deadline expects: deadline <src> <dst> <cycles>");
        continue;
      }
      if (cycles <= 0) {
        ctx.parse_error("deadline must be a positive cycle count");
        continue;
      }
      if (!s.has_module(v[0]) || !s.has_module(v[1])) {
        ctx.bad_reference("deadline references undeclared module " +
                          std::to_string(s.has_module(v[0]) ? v[1] : v[0]));
        continue;
      }
      s.deadlines[{v[0], v[1]}] = cycles;
    } else if (word == "device") {
      int v[2];
      if (!take_ints(in, ctx, "device", 2, v)) continue;
      s.device_width = v[0];
      s.device_height = v[1];
    } else if (word == "region") {
      int v[5];
      if (!take_ints(in, ctx, "region", 5, v)) continue;
      if (!s.has_module(v[0])) {
        ctx.bad_reference("region references undeclared module " +
                          std::to_string(v[0]));
        continue;
      }
      s.regions.push_back({v[0], {v[1], v[2], v[3], v[4]}});
    } else if (word == "at") {
      using Kind = Scenario::TimedEvent::Kind;
      long long t = 0;
      {
        const std::streampos pos = in.tellg();
        if (!(in >> t) || t < 0) {
          in.clear();
          ctx.at_pos(pos);
          ctx.parse_error("at expects: at <cycle> <event> <args>...",
                          "cycle must be a non-negative integer");
          continue;
        }
      }
      std::string ev;
      {
        const std::streampos pos = in.tellg();
        if (!(in >> ev)) {
          ctx.at_pos(pos);
          ctx.parse_error("at expects an event after the cycle",
                          "one of: load, unload, swap, open, close, epoch, "
                          "slot, unslot");
          continue;
        }
        ctx.at_pos(pos);  // point diagnostics at the event word
      }
      Scenario::TimedEvent e;
      e.at = t;
      e.line = number;
      e.column = ctx.column;
      // Variable-arity reader: `need` required integers, then up to
      // `opt` optional ones, then nothing. Returns the optional count
      // taken, or -1 after reporting.
      int v[3] = {0, 0, 0};
      const auto take_args = [&](const char* what, int need,
                                 int opt) -> int {
        for (int i = 0; i < need; ++i) {
          const std::streampos pos = in.tellg();
          if (!(in >> v[i])) {
            in.clear();
            ctx.at_pos(pos);
            ctx.parse_error(std::string(what) + " expects at least " +
                            std::to_string(need) + " integer argument(s)");
            return -1;
          }
        }
        int taken = 0;
        while (taken < opt && (in >> v[need + taken])) ++taken;
        in.clear();
        const std::streampos pos = in.tellg();
        std::string rest;
        if (in >> rest) {
          ctx.at_pos(pos);
          ctx.parse_error(std::string(what) + " has trailing input '" +
                          rest + "'");
          return -1;
        }
        return taken;
      };
      const auto module_known = [&](int id) {
        if (s.has_module(id)) return true;
        ctx.bad_reference("event references undeclared module " +
                          std::to_string(id));
        return false;
      };
      if (ev == "load") {
        const int extra = take_args("load", 1, 2);
        if (extra < 0 || !module_known(v[0])) continue;
        e.kind = Kind::kLoad;
        e.a = v[0];
        if (extra > 0) {
          const int want = s.arch == ArchKind::kRmboc ? 1
                           : (s.arch == ArchKind::kDynoc ||
                              s.arch == ArchKind::kConochi)
                               ? 2
                               : 0;
          if (extra != want) {
            ctx.bad_reference(
                "load placement takes " + std::to_string(want) +
                    " coordinate(s) for arch " + to_string(s.arch),
                "rmboc: <slot>; dynoc/conochi: <x> <y>; buscom: none");
            continue;
          }
          e.has_place = true;
          e.b = v[1];
          e.c = v[2];
        }
      } else if (ev == "unload") {
        if (take_args("unload", 1, 0) < 0 || !module_known(v[0])) continue;
        e.kind = Kind::kUnload;
        e.a = v[0];
      } else if (ev == "swap") {
        if (take_args("swap", 2, 0) < 0 || !module_known(v[0]) ||
            !module_known(v[1]))
          continue;
        e.kind = Kind::kSwap;
        e.a = v[0];
        e.b = v[1];
      } else if (ev == "open" || ev == "close") {
        const int extra = take_args(ev.c_str(), 2, ev == "open" ? 1 : 0);
        if (extra < 0 || !module_known(v[0]) || !module_known(v[1]))
          continue;
        e.kind = ev == "open" ? Kind::kOpen : Kind::kClose;
        e.a = v[0];
        e.b = v[1];
        e.c = extra > 0 ? v[2] : 1;
      } else if (ev == "epoch") {
        if (!arch_is(ctx, s, ArchKind::kBuscom, "epoch")) continue;
        int id = 0;
        double bytes = 0;
        const std::streampos pos = in.tellg();
        if (!(in >> id >> bytes)) {
          in.clear();
          ctx.at_pos(pos);
          ctx.parse_error("epoch expects: at <cycle> epoch <module> <bytes>");
          continue;
        }
        if (!module_known(id)) continue;
        e.kind = Kind::kEpoch;
        e.a = id;
        e.value = bytes;
      } else if (ev == "slot") {
        if (!arch_is(ctx, s, ArchKind::kBuscom, "slot") ||
            take_args("slot", 3, 0) < 0 || !module_known(v[2]))
          continue;
        e.kind = Kind::kSlot;
        e.a = v[0];
        e.b = v[1];
        e.c = v[2];
      } else if (ev == "unslot") {
        if (!arch_is(ctx, s, ArchKind::kBuscom, "unslot") ||
            take_args("unslot", 2, 0) < 0)
          continue;
        e.kind = Kind::kUnslot;
        e.a = v[0];
        e.b = v[1];
      } else {
        ctx.parse_error("unknown event '" + ev + "'",
                        "one of: load, unload, swap, open, close, epoch, "
                        "slot, unslot");
        continue;
      }
      s.events.push_back(e);
    } else if (word == "port") {
      int v[2];
      if (!take_ints(in, ctx, "port", 2, v)) continue;
      if (!s.has_module(v[0])) {
        ctx.bad_reference("port references undeclared module " +
                          std::to_string(v[0]));
        continue;
      }
      s.port_bits[v[0]] = v[1];
    } else {
      ctx.parse_error("unknown directive '" + word + "'");
    }
  }
  if (s.arch == ArchKind::kNone) {
    sink.report("LNT001", Severity::kError, {source_name, "line 1:1"},
                "scenario declares no architecture",
                "start the file with an 'arch <name>' line");
    return std::nullopt;
  }
  return s;
}

std::optional<Scenario> parse_scenario_file(const std::string& path,
                                            DiagnosticSink& sink) {
  std::string text;
  if (!read_file(path, text)) {
    sink.report("LNT001", Severity::kError, {path, ""},
                "cannot open scenario file");
    return std::nullopt;
  }
  return parse_scenario(text, path, sink);
}

}  // namespace recosim::verify
