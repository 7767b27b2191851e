#include "verify/fault_plan.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "verify/lint_driver.hpp"

namespace recosim::verify {

Directive fault_directive(FaultPlanDoc& doc) {
  return {"fault", "fault <kind> <cycle> [<a> [<b>]]", [&doc](Args& a) {
            const FaultPlanDoc::Pos pos{a.line(), a.column()};
            fault::FaultEvent e;
            e.kind = static_cast<fault::FaultKind>(
                a.word("fault kind", fault::kFaultKindNames));
            e.at = static_cast<sim::Cycle>(a.cycle("cycle"));
            if (a.more()) e.a = a.index("a");
            if (a.more()) e.b = a.index("b");
            if (!a.end()) return;
            doc.plan.scheduled.push_back(e);
            doc.event_pos.push_back(pos);
          }};
}

Directive rate_directive(FaultPlanDoc& doc) {
  return {"rate", "rate <name> <value>", [&doc](Args& a) {
            const FaultPlanDoc::Pos pos{a.line(), a.column()};
            const std::size_t i = a.word("rate", fault::kRateNames);
            const double value = a.real("value");
            if (!a.end()) return;
            doc.plan.*fault::kRateFields[i] = value;
            doc.rate_pos[i] = pos;
          }};
}

FaultPlanDoc parse_fault_plan(const std::string& text,
                              const std::string& source_name,
                              DiagnosticSink& sink) {
  FaultPlanDoc doc;
  doc.source = source_name;
  // Chaos-schedule lines outside the fault subset are skipped, so a shrunk
  // schedule file lints without editing.
  const Directive table[] = {fault_directive(doc),
                             rate_directive(doc),
                             {"arch", "", nullptr},
                             {"seed", "", nullptr},
                             {"horizon", "", nullptr},
                             {"op", "", nullptr}};
  read_lines(text, source_name, table, sink);
  return doc;
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
                             const fault::FaultEvent& ev) {
  using Kind = fault::FaultKind;
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

void check_fault_plan(const FaultPlanDoc& doc, const Scenario* topology,
                      DiagnosticSink& sink) {
  const auto loc = [&doc](FaultPlanDoc::Pos p) {
    return line_location(doc.source, p.line, p.column);
  };
  // FLT004 — injection rates are probabilities.
  for (std::size_t i = 0; i < std::size(fault::kRateNames); ++i) {
    const double r = doc.plan.*fault::kRateFields[i];
    if (r < 0.0 || r > 1.0) {
      sink.report("FLT004", Severity::kError, loc(doc.rate_pos[i]),
                  std::string("rate ").append(fault::kRateNames[i]) + " = " +
                      num(r) + " lies outside [0, 1]");
    }
  }

  // Walk events in injection order (time, then declaration order — the
  // order FaultInjector dispatches same-cycle events).
  const auto& events = doc.plan.scheduled;
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&events](std::size_t x, std::size_t y) {
                     return events[x].at < events[y].at;
                   });

  using Key = std::pair<int, int>;
  FailedSet failed_nodes;
  FailedSet failed_links;
  std::optional<Topology> topo;
  if (topology) topo.emplace(*topology);
  const std::size_t universe = topo ? node_universe(*topo) : 0;
  std::set<int> evac_warned;  ///< FLT005 fires once per module per plan

  for (const std::size_t i : order) {
    using Kind = fault::FaultKind;
    const fault::FaultEvent* ev = &events[i];
    const Location where =
        loc(i < doc.event_pos.size() ? doc.event_pos[i] : FaultPlanDoc::Pos{});
    const Key key{ev->a, ev->b};
    const bool is_link =
        ev->kind == Kind::kLinkFail || ev->kind == Kind::kLinkHeal;
    auto& failed = is_link ? failed_links : failed_nodes;

    // FLT002 — against the topology, when one was given.
    if (topology && ev->kind != Kind::kIcapAbort) {
      if (std::string why = unknown_resource(*topo, *ev); !why.empty()) {
        sink.report("FLT002", Severity::kError, where,
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
          sink.report("FLT003", Severity::kError, where,
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
          for (const auto& [id, placed] : topology->placement) {
            if (evac_warned.count(id)) continue;
            if (std::string why = no_evacuation_target(*topo, id, failed_nodes);
                !why.empty()) {
              evac_warned.insert(id);
              sink.report("FLT005", Severity::kWarning, where, why,
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
              "FLT001", Severity::kError, where,
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
