#include "verify/scenario.hpp"

#include <array>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "verify/line_reader.hpp"
#include "verify/lint_driver.hpp"
#include "verify/topology.hpp"

namespace recosim::verify {

namespace {

/// Names of the architectures, indexed by ArchKind.
constexpr std::string_view kArchNames[] = {"none", "buscom", "rmboc",
                                           "dynoc", "conochi"};

/// Names of the timed events, indexed by Scenario::TimedEvent::Kind.
constexpr std::string_view kEventNames[] = {
    "load", "unload", "swap", "open", "close", "epoch", "slot", "unslot"};

constexpr auto kSettingKeys = [] {
  std::array<std::string_view, std::size(kSettings)> keys{};
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = kSettings[i].key;
  return keys;
}();

/// Module sizes are capped like the fabric settings.
constexpr int kMaxSize = static_cast<int>(kSettingCap);

}  // namespace

const char* to_string(ArchKind k) {
  return kArchNames[static_cast<std::size_t>(k)].data();
}

std::optional<Scenario> parse_scenario(const std::string& text,
                                       const std::string& source_name,
                                       DiagnosticSink& sink) {
  using Kind = Scenario::TimedEvent::Kind;
  Scenario s;
  s.source = source_name;
  const auto point = [](Args& a) {
    return fpga::Point{a.index("x"), a.index("y")};
  };
  // LNT002 at `column`: the directive's, an `at` line's event's.
  const auto arch_is = [&s](Args& a, int column, ArchKind want,
                            std::string_view name) {
    if (s.arch == want) return true;
    a.refuse(column,
             std::string(name) + " is a " + to_string(want) +
                 " directive but the scenario declares arch " +
                 to_string(s.arch),
             "move the directive or change the arch line");
    return false;
  };
  const auto known = [&s](Args& a, int column, int id, std::string_view what) {
    if (s.has_module(id)) return true;
    a.refuse(column, std::string(what) + " references undeclared module " +
                         std::to_string(id));
    return false;
  };
  // A directive of one architecture refuses before it reads its arguments.
  const auto only = [&](ArchKind want, std::string_view name,
                        std::function<void(Args&)> read) {
    return [&, want, name, read](Args& a) {
      if (arch_is(a, a.column(), want, name)) read(a);
    };
  };

  const auto at = [&](Args& a) {
    Scenario::TimedEvent e;
    e.at = a.cycle("cycle");
    e.kind = static_cast<Kind>(a.word("event", kEventNames));
    e.line = a.line();
    e.column = a.column();
    if (!a.ok() || ((e.kind == Kind::kEpoch || e.kind == Kind::kSlot ||
                     e.kind == Kind::kUnslot) &&
                    !arch_is(a, e.column, ArchKind::kBuscom,
                             kEventNames[static_cast<int>(e.kind)])))
      return;
    int coordinates = 0;       // of a load's optional placement
    std::vector<int> modules;  // the modules the event names
    switch (e.kind) {
      case Kind::kLoad:
        modules = {e.a = a.index("module")};
        for (int* v : {&e.b, &e.c}) {
          if (!a.more()) break;
          *v = a.index("coordinate");
          ++coordinates;
        }
        break;
      case Kind::kUnload: modules = {e.a = a.index("module")}; break;
      case Kind::kSwap:
        e.a = a.index("old module");
        modules = {e.a, e.b = a.index("new module")};
        break;
      case Kind::kOpen:
      case Kind::kClose:
        e.a = a.index("src");
        modules = {e.a, e.b = a.index("dst")};
        e.c = e.kind == Kind::kOpen && a.more() ? a.index("lanes") : 1;
        break;
      case Kind::kEpoch:
        modules = {e.a = a.index("module")};
        e.value = a.real("bytes");
        break;
      case Kind::kSlot:
      case Kind::kUnslot:
        e.a = a.index("bus");
        e.b = a.index("slot");
        if (e.kind == Kind::kSlot) modules = {e.c = a.index("owner")};
        break;
    }
    if (!a.end()) return;
    for (const int id : modules)
      if (!known(a, e.column, id, "event")) return;
    if (coordinates > 0) {
      const bool grid =
          s.arch == ArchKind::kDynoc || s.arch == ArchKind::kConochi;
      const int want = s.arch == ArchKind::kRmboc ? 1 : grid ? 2 : 0;
      if (coordinates != want) {
        a.refuse(e.column,
                 "load placement takes " + std::to_string(want) +
                     " coordinate(s) for arch " + to_string(s.arch),
                 "rmboc: <slot>; dynoc/conochi: <x> <y>; buscom: none");
        return;
      }
      e.has_place = true;
    }
    s.events.push_back(e);
  };

  const Directive table[] = {
      {"arch", "arch <buscom|rmboc|dynoc|conochi>", [&](Args& a) {
         const auto kind = static_cast<ArchKind>(
             a.word("architecture", std::span(kArchNames).subspan(1)) + 1);
         if (a.end()) s.arch = kind;
       }},
      {"set", "set <key> <value>", [&](Args& a) {
         const SettingDecl& d = kSettings[a.word("setting", kSettingKeys)];
         const double value = a.real("value");
         if (!a.end()) return;
         if (d.integral &&
             (value != std::floor(value) || value < 0 || value > d.max))
           a.fail(std::string("set ").append(d.key) +
                  " takes a whole number in [0, " + num(d.max) + "]");
         else
           s.settings[std::string(d.key)] = value;
       }},
      {"module", "module <id> [<width> [<height>]]", [&](Args& a) {
         const int column = a.column();
         Scenario::Module m;
         m.id = a.index("id");
         if (a.more()) m.width = a.integer<int>("width", 1, kMaxSize);
         if (a.more()) m.height = a.integer<int>("height", 1, kMaxSize);
         if (!a.end()) return;
         if (s.has_module(m.id))
           a.refuse(column, module_str(m.id) + " declared twice");
         else
           s.modules.push_back(m);
       }},
      {"deadline", "deadline <src> <dst> <cycles>", [&](Args& a) {
         const int column = a.column();
         const std::pair<int, int> flow{a.index("src"), a.index("dst")};
         const long long cycles = a.cycle("cycles", 1);
         if (a.end() && known(a, column, flow.first, "deadline") &&
             known(a, column, flow.second, "deadline"))
           s.deadlines[flow] = cycles;
       }},
      {"device", "device <width> <height>", [&](Args& a) {
         const int w = a.integer<int>("width", 0, kMaxIndex);
         const int h = a.integer<int>("height", 0, kMaxIndex);
         if (!a.end()) return;
         s.device_width = w;
         s.device_height = h;
       }},
      {"region", "region <module> <x> <y> <w> <h>", [&](Args& a) {
         const int column = a.column();
         Scenario::Region r;
         r.module = a.index("module");
         r.rect = {a.index("x"), a.index("y"), a.index("w"), a.index("h")};
         if (a.end() && known(a, column, r.module, "region"))
           s.regions.push_back(r);
       }},
      {"port", "port <module> <bits>", [&](Args& a) {
         const int column = a.column();
         const int module = a.index("module");
         const int bits = a.index("bits");
         if (a.end() && known(a, column, module, "port"))
           s.port_bits[module] = bits;
       }},
      {"at", "at <cycle> <event> <args>...", at},
      {"slot", "slot <bus> <slot> <owner>",
       only(ArchKind::kBuscom, "slot", [&](Args& a) {
         const Scenario::SlotAssign sa{a.index("bus"), a.index("slot"),
                                       a.index("owner")};
         if (a.end()) s.slots.push_back(sa);
       })},
      {"demand", "demand <module> <bytes>",
       only(ArchKind::kBuscom, "demand", [&](Args& a) {
         const int module = a.index("module");
         const double bytes = a.real("bytes");
         if (a.end()) s.demand[module] = bytes;
       })},
      {"place", "place <module> <slot> (rmboc) | <module> <x> <y> (dynoc)",
       [&](Args& a) {
         const int column = a.column();
         const bool rmboc = s.arch == ArchKind::kRmboc;
         if (!rmboc && s.arch != ArchKind::kDynoc) {
           a.refuse(column, "place applies to rmboc or dynoc scenarios");
           return;
         }
         const int id = a.index("module");
         const fpga::Point p =
             rmboc ? fpga::Point{a.index("slot"), 0} : point(a);
         if (!a.end()) return;
         if (s.placement.count(id))
           a.refuse(column, module_str(id) + " placed twice");
         else
           s.placement[id] = p;
         known(a, column, id, "place");
       }},
      {"channel", "channel <src> <dst> [<lanes>]",
       only(ArchKind::kRmboc, "channel", [&](Args& a) {
         Scenario::Channel c{a.index("src"), a.index("dst")};
         if (a.more()) c.lanes = a.index("lanes");
         if (a.end()) s.channels.push_back(c);
       })},
      {"switch", "switch <x> <y>",
       only(ArchKind::kConochi, "switch", [&](Args& a) {
         if (const fpga::Point p = point(a); a.end()) s.switches.push_back(p);
       })},
      {"wire", "wire <x1> <y1> <x2> <y2>",
       only(ArchKind::kConochi, "wire", [&](Args& a) {
         const Scenario::Wire w{point(a), point(a)};
         if (!a.end()) return;
         if (w.a.x != w.b.x && w.a.y != w.b.y)
           a.fail("wire runs must be straight (same row or column)");
         else
           s.wires.push_back(w);
       })},
      {"attach", "attach <module> <x> <y>",
       only(ArchKind::kConochi, "attach", [&](Args& a) {
         const int column = a.column();
         const int id = a.index("module");
         const fpga::Point p = point(a);
         if (!a.end() || !known(a, column, id, "attach")) return;
         if (s.placement.count(id))
           a.refuse(column, module_str(id) + " attached twice");
         else
           s.placement[id] = p;
       })},
      {"route", "route <x> <y> <switch> <port: 0 N, 1 E, 2 S, 3 W>",
       only(ArchKind::kConochi, "route", [&](Args& a) {
         const Scenario::Route r{point(a), a.index("switch"),
                                 a.integer<int>("port", 0, 3)};
         if (a.end()) s.routes.push_back(r);
       })},
  };
  read_lines(text, source_name, table, sink);
  if (s.arch == ArchKind::kNone) {
    sink.report("LNT001", Severity::kError, line_location(source_name, 1, 1),
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
