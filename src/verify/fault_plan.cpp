#include "verify/fault_plan.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "verify/lint_driver.hpp"

namespace recosim::verify {

const char* to_string(FaultPlanDoc::Kind k) {
  switch (k) {
    case FaultPlanDoc::Kind::kNodeFail: return "fail_node";
    case FaultPlanDoc::Kind::kNodeHeal: return "heal_node";
    case FaultPlanDoc::Kind::kLinkFail: return "fail_link";
    case FaultPlanDoc::Kind::kLinkHeal: return "heal_link";
    case FaultPlanDoc::Kind::kIcapAbort: return "abort_icap";
  }
  return "?";
}

namespace {

Location line_loc(const std::string& source, int number, int column) {
  return {source, "line " + std::to_string(number) + ":" +
                      std::to_string(column)};
}

std::optional<FaultPlanDoc::Kind> parse_kind(const std::string& word) {
  using Kind = FaultPlanDoc::Kind;
  if (word == "fail_node") return Kind::kNodeFail;
  if (word == "heal_node") return Kind::kNodeHeal;
  if (word == "fail_link") return Kind::kLinkFail;
  if (word == "heal_link") return Kind::kLinkHeal;
  if (word == "abort_icap") return Kind::kIcapAbort;
  return std::nullopt;
}

bool known_rate(const std::string& name) {
  return name == "bit_flip" || name == "drop" || name == "icap_abort";
}

}  // namespace

FaultPlanDoc parse_fault_plan(const std::string& text,
                              const std::string& source_name,
                              DiagnosticSink& sink) {
  FaultPlanDoc plan;
  plan.source = source_name;
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
    const int col =
        first == std::string::npos ? 1 : static_cast<int>(first) + 1;
    // Column of the next token at/after stream position `pos` (failed
    // extractions leave the stream where the token should have been).
    const auto col_at = [&line](std::streampos pos) {
      std::size_t p = pos < 0 ? line.size()
                              : std::min<std::size_t>(
                                    static_cast<std::size_t>(pos),
                                    line.size());
      while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
      return static_cast<int>(p) + 1;
    };

    if (word == "fault") {
      std::string kind_word;
      long long at = 0;
      std::streampos pos = in.tellg();
      if (!(in >> kind_word)) {
        in.clear();
        sink.report("LNT001", Severity::kError,
                    line_loc(source_name, number, col_at(pos)),
                    "fault expects: fault <kind> <cycle> [<a> [<b>]]");
        continue;
      }
      const int kind_col = col_at(pos);
      pos = in.tellg();
      if (!(in >> at)) {
        in.clear();
        sink.report("LNT001", Severity::kError,
                    line_loc(source_name, number, col_at(pos)),
                    "fault expects: fault <kind> <cycle> [<a> [<b>]]");
        continue;
      }
      auto kind = parse_kind(kind_word);
      if (!kind) {
        sink.report("LNT001", Severity::kError,
                    line_loc(source_name, number, kind_col),
                    "unknown fault kind '" + kind_word + "'",
                    "one of: fail_node, heal_node, fail_link, heal_link, "
                    "abort_icap");
        continue;
      }
      FaultPlanDoc::Event ev;
      ev.line = number;
      ev.column = col;
      ev.at = at;
      ev.kind = *kind;
      in >> ev.a >> ev.b;  // optional for abort_icap
      plan.events.push_back(ev);
    } else if (word == "rate") {
      std::string name;
      double value = 0;
      const std::streampos pos = in.tellg();
      if (!(in >> name >> value)) {
        in.clear();
        sink.report("LNT001", Severity::kError,
                    line_loc(source_name, number, col_at(pos)),
                    "rate expects: rate <name> <value>");
        continue;
      }
      if (!known_rate(name)) {
        sink.report("LNT001", Severity::kError,
                    line_loc(source_name, number, col_at(pos)),
                    "unknown rate '" + name + "'",
                    "one of: bit_flip, drop, icap_abort");
        continue;
      }
      plan.rates.push_back({number, col, name, value});
    } else if (word == "arch" || word == "seed" || word == "horizon" ||
               word == "op") {
      // Chaos-schedule lines outside the fault subset; a shrunk schedule
      // file lints without editing.
    } else {
      sink.report("LNT001", Severity::kError,
                  line_loc(source_name, number, col),
                  "unknown directive '" + word + "'");
    }
  }
  return plan;
}

std::optional<FaultPlanDoc> parse_fault_plan_file(const std::string& path,
                                                  DiagnosticSink& sink) {
  std::string text;
  if (!read_file(path, text)) {
    sink.report("LNT001", Severity::kError, {path, ""},
                "cannot open fault plan file");
    return std::nullopt;
  }
  return parse_fault_plan(text, path, sink);
}

namespace {

/// FLT002: does the fault's coordinate name a resource the scenario's
/// topology actually has? Returns an explanation for the diagnostic, or
/// empty when the reference is fine.
std::string unknown_resource(const Topology& topo,
                             const FaultPlanDoc::Event& ev) {
  using Kind = FaultPlanDoc::Kind;
  const bool link = ev.kind == Kind::kLinkFail || ev.kind == Kind::kLinkHeal;
  switch (topo.scenario().arch) {
    case ArchKind::kBuscom: {
      if (link) return "BUS-COM has no link faults (buses fail whole)";
      const int buses = topo.buses;
      if (ev.a < 0 || ev.a >= buses)
        return "bus " + std::to_string(ev.a) + " does not exist (" +
               std::to_string(buses) + " buses)";
      return {};
    }
    case ArchKind::kRmboc: {
      const int slots = topo.slots;
      const int buses = topo.buses;
      if (link) {
        if (ev.a < 0 || ev.a >= slots - 1)
          return "segment " + std::to_string(ev.a) +
                 " does not exist (segments 0.." + std::to_string(slots - 2) +
                 ")";
        if (ev.b < 0 || ev.b >= buses)
          return "bus " + std::to_string(ev.b) + " does not exist (" +
                 std::to_string(buses) + " buses)";
        return {};
      }
      if (ev.a < 0 || ev.a >= slots)
        return "cross-point slot " + std::to_string(ev.a) +
               " does not exist (" + std::to_string(slots) + " slots)";
      return {};
    }
    case ArchKind::kDynoc: {
      if (link) return "DyNoC has no link faults (routers fail whole)";
      const int w = topo.width;
      const int h = topo.height;
      if (ev.a < 0 || ev.a >= w || ev.b < 0 || ev.b >= h)
        return "router (" + std::to_string(ev.a) + ", " +
               std::to_string(ev.b) + ") lies outside the " +
               std::to_string(w) + "x" + std::to_string(h) + " array";
      return {};
    }
    case ArchKind::kConochi: {
      if (link) return "CoNoChi has no link faults (switches fail whole)";
      if (topo.switch_index({ev.a, ev.b}) >= 0) return {};
      return "no switch declared at (" + std::to_string(ev.a) + ", " +
             std::to_string(ev.b) + ")";
    }
    case ArchKind::kNone: return {};
  }
  return {};
}

/// Total number of "nodes" the architecture has, for the blackout check
/// (0 = blackout not meaningful for this architecture).
std::size_t node_universe(const Topology& topo) {
  switch (topo.scenario().arch) {
    case ArchKind::kBuscom: return static_cast<std::size_t>(topo.buses);
    case ArchKind::kConochi: return topo.scenario().switches.size();
    default: return 0;
  }
}

const char* node_noun(const Scenario& topo) {
  return topo.arch == ArchKind::kBuscom ? "bus" : "switch";
}

}  // namespace

std::string no_evacuation_target(const Topology& topo, int module_id,
                                 const FailedSet& failed_nodes) {
  const Scenario& s = topo.scenario();
  if (!topo.failed_access(module_id, failed_nodes)) return {};
  switch (s.arch) {
    case ArchKind::kRmboc: {
      const int own = topo.placement(module_id)->x;
      std::set<int> occupied;
      for (const auto& [id, p] : s.placement)
        if (id != module_id) occupied.insert(p.x);
      for (int slot = 0; slot < topo.slots; ++slot)
        if (slot != own && !node_failed_1d(failed_nodes, slot) &&
            !occupied.count(slot))
          return {};
      return module_str(module_id) + " at cross-point slot " +
             std::to_string(own) +
             ": the slot is failed and every other slot is failed or "
             "occupied";
    }
    case ArchKind::kDynoc: {
      const fpga::Rect own = *topo.footprint(module_id);
      // The evacuee's own region frees up; everything else stays put.
      std::vector<fpga::Rect> others;
      for (const auto& [id, p] : s.placement)
        if (id != module_id) others.push_back(*topo.footprint(id));
      for (int y = 1; y + own.h < topo.height; ++y) {
        for (int x = 1; x + own.w < topo.width; ++x) {
          const fpga::Rect cand{x, y, own.w, own.h};
          bool ok = true;
          for (const auto& f : failed_nodes)
            if (cand.contains({f.first, f.second})) {
              ok = false;
              break;
            }
          // S-XY needs the router ring: keep a one-tile gap to the others.
          if (ok)
            for (const auto& o : others)
              if (cand.inflated().overlaps(o)) {
                ok = false;
                break;
              }
          if (ok) return {};
        }
      }
      return module_str(module_id) + " placed at (" +
             std::to_string(own.x) + "," + std::to_string(own.y) + ") " +
             std::to_string(own.w) + "x" + std::to_string(own.h) +
             ": a router inside its region is failed and no alternative "
             "placement avoids the failed routers and the other modules";
    }
    case ArchKind::kConochi: {
      const fpga::Point own = *topo.placement(module_id);
      // Ports a switch loses to wire runs: a straight run connects to the
      // switches one tile beyond each of its ends, in line.
      const auto wire_ports = [&s](const fpga::Point& sw) {
        int used = 0;
        for (const auto& wire : s.wires) {
          if (wire.a.x == wire.b.x) {
            const int lo = std::min(wire.a.y, wire.b.y);
            const int hi = std::max(wire.a.y, wire.b.y);
            if (sw.x == wire.a.x && (sw.y == lo - 1 || sw.y == hi + 1)) ++used;
          } else if (wire.a.y == wire.b.y) {
            const int lo = std::min(wire.a.x, wire.b.x);
            const int hi = std::max(wire.a.x, wire.b.x);
            if (sw.y == wire.a.y && (sw.x == lo - 1 || sw.x == hi + 1)) ++used;
          }
        }
        return used;
      };
      constexpr int kSwitchPorts = 4;
      for (const auto& sw : s.switches) {
        if (sw == own || failed_nodes.count({sw.x, sw.y})) continue;
        int attached = 0;
        for (const auto& [id, p] : s.placement)
          if (id != module_id && p == sw) ++attached;
        if (attached < kSwitchPorts - wire_ports(sw)) return {};
      }
      return module_str(module_id) + " attached at (" +
             std::to_string(own.x) + "," + std::to_string(own.y) +
             "): the switch is failed and no healthy switch has a free "
             "port";
    }
    case ArchKind::kBuscom:
    case ArchKind::kNone:
      return {};
  }
  return {};
}

void check_fault_plan(const FaultPlanDoc& plan, const Scenario* topology,
                      DiagnosticSink& sink) {
  // FLT004 — injection rates are probabilities.
  for (const auto& r : plan.rates) {
    if (r.value < 0.0 || r.value > 1.0) {
      sink.report("FLT004", Severity::kError, line_loc(plan.source, r.line, r.column),
                  "rate " + r.name + " = " + std::to_string(r.value) +
                      " lies outside [0, 1]");
    }
  }

  // Walk events in injection order (time, then declaration order — the
  // order FaultInjector dispatches same-cycle events).
  std::vector<const FaultPlanDoc::Event*> order;
  order.reserve(plan.events.size());
  for (const auto& ev : plan.events) order.push_back(&ev);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto* x, const auto* y) { return x->at < y->at; });

  using Key = std::pair<int, int>;
  FailedSet failed_nodes;
  FailedSet failed_links;
  std::optional<Topology> topo;
  if (topology) topo.emplace(*topology);
  const std::size_t universe = topo ? node_universe(*topo) : 0;
  std::set<int> evac_warned;  ///< FLT005 fires once per module per plan

  for (const auto* ev : order) {
    using Kind = FaultPlanDoc::Kind;
    const Key key{ev->a, ev->b};
    const bool is_link =
        ev->kind == Kind::kLinkFail || ev->kind == Kind::kLinkHeal;
    auto& failed = is_link ? failed_links : failed_nodes;

    // FLT002 — against the topology, when one was given.
    if (topology && ev->kind != Kind::kIcapAbort) {
      if (std::string why = unknown_resource(*topo, *ev); !why.empty()) {
        sink.report("FLT002", Severity::kError,
                    line_loc(plan.source, ev->line, ev->column),
                    std::string(to_string(ev->kind)) + ": " + why,
                    "check the plan against the scenario's topology");
        continue;  // state tracking for a phantom resource is meaningless
      }
    }

    switch (ev->kind) {
      case Kind::kNodeFail:
      case Kind::kLinkFail:
        failed.insert(key);
        // FLT003 — every node down at once: no architecture survives a
        // total blackout, and the run it describes can only time out.
        if (!is_link && universe != 0 && failed_nodes.size() >= universe &&
            topology) {
          sink.report("FLT003", Severity::kError,
                      line_loc(plan.source, ev->line, ev->column),
                      "this failure takes down the last of " +
                          std::to_string(universe) + " " +
                          node_noun(*topology) +
                          "es — total blackout at cycle " +
                          std::to_string(ev->at),
                      "heal another node first or drop this event");
        }
        // FLT005 — this failure leaves a placed module with nowhere to be
        // evacuated to; the recovery orchestrator's evacuation rung can
        // only fail and the incident degrades. (The static pass treats
        // every placement in the scenario as live; the timeline pass
        // refines this with the actual lifecycle.)
        if (!is_link && topology) {
          for (const auto& [id, at] : topology->placement) {
            if (evac_warned.count(id)) continue;
            if (std::string why = no_evacuation_target(*topo, id, failed_nodes);
                !why.empty()) {
              evac_warned.insert(id);
              sink.report("FLT005", Severity::kWarning,
                          line_loc(plan.source, ev->line, ev->column), why,
                          "stagger the failures or heal a resource first "
                          "so an evacuation target survives");
            }
          }
        }
        break;
      case Kind::kNodeHeal:
      case Kind::kLinkHeal:
        // FLT001 — healing what never failed is a no-op at runtime
        // (the hooks refuse it), which almost always means a typo'd
        // coordinate or a mis-ordered plan.
        if (failed.erase(key) == 0) {
          sink.report(
              "FLT001", Severity::kError,
              line_loc(plan.source, ev->line, ev->column),
              std::string(to_string(ev->kind)) + " (" +
                  std::to_string(ev->a) + ", " + std::to_string(ev->b) +
                  ") at cycle " + std::to_string(ev->at) +
                  " has no matching earlier failure",
              "the runtime hook would refuse the heal; fix the "
              "coordinates or reorder the plan");
        }
        break;
      case Kind::kIcapAbort: break;  // armed abort, no fabric state
    }
  }
}

}  // namespace recosim::verify
