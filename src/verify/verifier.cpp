#include "verify/verifier.hpp"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/comm_arch.hpp"
#include "verify/envelope.hpp"
#include "verify/fault_plan.hpp"
#include "verify/topology.hpp"

namespace recosim::verify {

namespace {

std::string point_str(fpga::Point p) {
  return "(" + std::to_string(p.x) + "," + std::to_string(p.y) + ")";
}

std::string channel_str(const Scenario::Channel& c) {
  return "channel " + std::to_string(c.src) + "->" + std::to_string(c.dst);
}

// ---------------------------------------------------------------------------
// BUS-COM

/// BUS005 (the declared demand) and SCH001 (an epoch's): a module's
/// bytes-per-round demand against what its `owned` static slots carry.
void check_slot_demand(const Topology& t, DiagnosticSink& sink,
                       const char* rule, const char* which, int module,
                       int owned, double demand, const char* fixit) {
  const double capacity = owned * t.slot_payload();
  if (demand <= capacity) return;
  sink.report(rule, Severity::kError, {"buscom", module_str(module)},
              std::string(which) + " demand of " + num(demand) +
                  " bytes/round exceeds the " + num(capacity) +
                  " bytes its " + std::to_string(owned) +
                  " static slot(s) can carry",
              fixit);
}

void check_buscom(const Topology& t, DiagnosticSink& sink) {
  const Scenario& s = t.scenario();
  const std::string comp = "buscom";
  const int buses = t.buses;
  const int slots_per_round = t.slots_per_round;

  if (buses < 1 || slots_per_round < 1 || t.cycles_per_slot < 1 ||
      t.in_width_bits < 8 || t.dynamic_fraction < 0.0 ||
      t.dynamic_fraction > 1.0) {
    sink.report("BUS006", Severity::kError, {comp, "config"},
                "configuration value outside its valid range",
                "buses/slots/cycles >= 1, in_width_bits >= 8, "
                "dynamic_fraction in [0, 1]");
    return;
  }
  if (slots_per_round > 32) {
    sink.report("BUS003", Severity::kError, {comp, "config"},
                "slots_per_round " + std::to_string(slots_per_round) +
                    " exceeds the 32-slot FlexRay round of the prototype",
                "split traffic across buses instead of lengthening the "
                "round");
  }

  // Per-(bus, slot) ownership; conflicts and range errors surface here.
  std::map<std::pair<int, int>, int> owner;
  std::map<int, int> static_slots;  // module -> count
  for (const auto& a : s.slots) {
    const std::string obj =
        "bus " + std::to_string(a.bus) + " slot " + std::to_string(a.slot);
    if (!t.slot_in_range(a)) {
      sink.report("BUS006", Severity::kError, {comp, obj},
                  "slot assignment outside the configured " +
                      std::to_string(buses) + " buses x " +
                      std::to_string(slots_per_round) + " slots");
      continue;
    }
    if (!s.has_module(a.owner)) {
      sink.report("BUS001", Severity::kError, {comp, obj},
                  "static slot owned by undeclared module " +
                      std::to_string(a.owner),
                  "declare the module or reassign the slot");
      continue;
    }
    auto [it, inserted] = owner.emplace(std::make_pair(a.bus, a.slot),
                                        a.owner);
    if (!inserted && it->second != a.owner) {
      sink.report("BUS002", Severity::kError, {comp, obj},
                  "slot assigned to both module " +
                      std::to_string(it->second) + " and module " +
                      std::to_string(a.owner),
                  "give each (bus, slot) one owner");
      continue;
    }
    if (inserted) ++static_slots[a.owner];
  }

  // Guaranteed-bandwidth feasibility per module.
  for (const auto& m : s.modules) {
    const int owned = static_slots.count(m.id) ? static_slots[m.id] : 0;
    if (owned == 0) {
      sink.report("BUS004", Severity::kWarning, {comp, module_str(m.id)},
                  "module owns no static slot on any bus (dynamic slots "
                  "only, no guaranteed bandwidth)",
                  "assign at least one static slot");
    }
    if (auto d = s.demand.find(m.id); d != s.demand.end())
      check_slot_demand(t, sink, "BUS005", "declared", m.id, owned, d->second,
                        "assign more static slots or lower the demand");
  }
}

// ---------------------------------------------------------------------------
// RMBoC

void check_rmboc(const Topology& t, DiagnosticSink& sink) {
  const Scenario& s = t.scenario();
  const std::string comp = "rmboc";
  const int slots = t.slots;
  const int buses = t.buses;

  std::map<int, int> module_at_slot;  // slot -> module
  for (const auto& [mod, at] : s.placement) {
    const int slot = at.x;
    if (slot < 0 || slot >= slots) {
      sink.report("RMB006", Severity::kError, {comp, module_str(mod)},
                  "placed in slot " + std::to_string(slot) +
                      " outside [0, " + std::to_string(slots) + ")");
      continue;
    }
    auto [it, inserted] = module_at_slot.emplace(slot, mod);
    if (!inserted) {
      sink.report("LNT002", Severity::kError, {comp, module_str(mod)},
                  "slot " + std::to_string(slot) + " already holds module " +
                      std::to_string(it->second));
    }
  }

  // Per-segment lane demand of the planned circuits: d_max = s*k shares.
  for (const auto& c : s.channels) {
    const std::string obj = channel_str(c);
    const auto src = t.placement(c.src);
    const auto dst = t.placement(c.dst);
    if (!src || !dst) {
      sink.report("RMB002", Severity::kError, {comp, obj},
                  "channel endpoint is not placed in any slot",
                  "place both modules before planning the circuit");
      continue;
    }
    if (src->x == dst->x) continue;  // loopback, uses no segment
    if (c.lanes < 1) {
      sink.report("RMB001", Severity::kError, {comp, obj},
                  "channel requests " + std::to_string(c.lanes) + " lanes");
      continue;
    }
    if (c.lanes > buses) {
      sink.report("RMB005", Severity::kWarning, {comp, obj},
                  "channel requests " + std::to_string(c.lanes) +
                      " parallel lanes but the architecture has only " +
                      std::to_string(buses) +
                      " buses; the request will be clamped",
                  "request at most " + std::to_string(buses) + " lanes");
    }
  }
  const std::vector<int> demand = t.segment_lanes(s.channels).held;
  for (std::size_t seg = 0; seg < demand.size(); ++seg) {
    if (demand[seg] <= buses) continue;
    sink.report("RMB003", Severity::kError,
                {comp, "segment " + std::to_string(seg)},
                "planned circuits need " + std::to_string(demand[seg]) +
                    " lanes across the segment but only " +
                    std::to_string(buses) +
                    " exist; the last requests will starve",
                "stagger the circuits in time or add buses");
  }
}

// ---------------------------------------------------------------------------
// DyNoC

void check_dynoc(const Topology& t, DiagnosticSink& sink) {
  const Scenario& s = t.scenario();
  const std::string comp = "dynoc";
  const int width = t.width;
  const int height = t.height;

  struct Placed {
    int id;
    fpga::Rect rect;
  };
  std::vector<Placed> placed;
  for (const auto& [mod, at] : s.placement) {
    if (!s.has_module(mod)) continue;  // the parser already reported LNT002
    const fpga::Rect r = *t.footprint(mod);
    const std::string obj = module_str(mod) + " " + std::to_string(r.w) +
                            "x" + std::to_string(r.h) + "@" +
                            point_str({r.x, r.y});
    if (r.w + 2 > width || r.h + 2 > height) {
      sink.report("DYN005", Severity::kError, {comp, obj},
                  "module plus its router ring can never fit the " +
                      std::to_string(width) + "x" + std::to_string(height) +
                      " array",
                  "enlarge the array or shrink the module");
      continue;
    }
    const fpga::Rect ring = r.inflated(1);
    if (ring.x < 0 || ring.y < 0 || ring.right() > width ||
        ring.bottom() > height) {
      sink.report("DYN001", Severity::kError, {comp, obj},
                  "placement touches the array border; S-XY needs a full "
                  "router ring around every module",
                  "keep one router row/column between module and border");
      continue;
    }
    placed.push_back({mod, r});
  }

  // Pairwise overlap (FLP001) and ring violations (DYN002).
  for (std::size_t i = 0; i < placed.size(); ++i) {
    for (std::size_t j = i + 1; j < placed.size(); ++j) {
      const auto& a = placed[i];
      const auto& b = placed[j];
      if (a.rect.overlaps(b.rect)) {
        sink.report("FLP001", Severity::kError,
                    {comp, module_str(a.id) + " and " + module_str(b.id)},
                    "placements overlap");
        continue;
      }
      // A ring tile of one module falling inside the other removes a
      // router the surround invariant needs.
      if (a.rect.inflated(1).overlaps(b.rect) && b.rect.area() > 1) {
        sink.report("DYN002", Severity::kError,
                    {comp, module_str(a.id)},
                    "router ring is broken by " + module_str(b.id),
                    "keep modules one tile apart");
      } else if (b.rect.inflated(1).overlaps(a.rect) && a.rect.area() > 1) {
        sink.report("DYN002", Severity::kError,
                    {comp, module_str(b.id)},
                    "router ring is broken by " + module_str(a.id),
                    "keep modules one tile apart");
      }
    }
  }

  // Reachability over the router mesh, in which the modules that passed
  // the checks above are the obstacles: flood from each module's access
  // routers once and test every later module against it.
  if (placed.size() < 2) return;
  std::vector<fpga::Rect> rects;
  for (const auto& pl : placed) rects.push_back(pl.rect);
  const DynocMesh mesh = t.mesh(rects);
  for (std::size_t i = 0; i < placed.size(); ++i) {
    const std::vector<int> dist =
        mesh.flood(mesh.access_routers(placed[i].rect), nullptr);
    for (std::size_t j = i + 1; j < placed.size(); ++j) {
      bool reachable = false;
      for (const auto& p : mesh.access_routers(placed[j].rect))
        if (dist[mesh.index(p)] >= 0) reachable = true;
      if (reachable) continue;
      sink.report("DYN003", Severity::kError,
                  {comp, module_str(placed[i].id) + " and " +
                             module_str(placed[j].id)},
                  "no router path connects the modules; the placement "
                  "walls them off",
                  "re-place the modules to leave a router corridor");
    }
  }
}

// ---------------------------------------------------------------------------
// CoNoChi

void check_conochi(const Topology& t, DiagnosticSink& sink) {
  const Scenario& s = t.scenario();
  const std::string comp = "conochi";
  const int gw = t.grid_width;
  const int gh = t.grid_height;
  const int n = static_cast<int>(s.switches.size());

  const auto in_grid = [&](fpga::Point p) {
    return p.x >= 0 && p.x < gw && p.y >= 0 && p.y < gh;
  };
  for (int i = 0; i < n; ++i) {
    const fpga::Point p = s.switches[static_cast<std::size_t>(i)];
    if (!in_grid(p)) {
      sink.report("CON006", Severity::kError,
                  {comp, "switch " + point_str(p)},
                  "switch placed outside the " + std::to_string(gw) + "x" +
                      std::to_string(gh) + " grid");
    }
    if (t.switch_index(p) != i) {
      sink.report("CON006", Severity::kError,
                  {comp, "switch " + point_str(p)},
                  "two switches share the tile");
    }
  }

  // Default tables, then explicit `route` overrides (the mechanism for
  // seeding known-bad tables in fixtures).
  std::vector<std::map<int, int>> table(static_cast<std::size_t>(n));
  for (int src = 0; src < n; ++src) {
    const std::vector<int> first_port = t.first_ports(src);
    for (int dst = 0; dst < n; ++dst)
      if (dst != src && first_port[static_cast<std::size_t>(dst)] >= 0)
        table[static_cast<std::size_t>(src)][dst] =
            first_port[static_cast<std::size_t>(dst)];
  }
  for (const auto& r : s.routes) {
    const int at = t.switch_index(r.at);
    const std::string obj = "switch " + point_str(r.at);
    if (at < 0) {
      sink.report("LNT002", Severity::kError, {comp, obj},
                  "route directive names a tile without a switch");
      continue;
    }
    if (r.dst_switch < 0 || r.dst_switch >= n) {
      sink.report("LNT002", Severity::kError, {comp, obj},
                  "route destination index " + std::to_string(r.dst_switch) +
                      " outside [0, " + std::to_string(n) + ")");
      continue;
    }
    // CON003: the entry's port must lead somewhere.
    if (t.port_peer(at, r.port) < 0) {
      sink.report("CON003", Severity::kError, {comp, obj},
                  "route towards switch " + std::to_string(r.dst_switch) +
                      " leaves through port " + std::to_string(r.port) +
                      " which has no link",
                  "wire the port or fix the table entry");
      continue;
    }
    table[static_cast<std::size_t>(at)][r.dst_switch] = r.port;
  }

  // CON001: walking any (switch, destination) entry must never revisit.
  for (int src = 0; src < n; ++src) {
    for (const auto& [dst, port0] : table[static_cast<std::size_t>(src)]) {
      std::set<int> visited{src};
      int cur = src;
      int port = port0;
      while (cur != dst) {
        const int next = t.port_peer(cur, port);
        if (next < 0) break;  // dangling (reported above for overrides)
        if (!visited.insert(next).second) {
          sink.report(
              "CON001", Severity::kError,
              {comp, "switch " +
                         point_str(s.switches[static_cast<std::size_t>(src)])},
              "routing tables loop while walking towards switch " +
                  std::to_string(dst),
              "fix the route overrides or recompute the tables");
          break;
        }
        cur = next;
        if (cur == dst) break;
        const auto it = table[static_cast<std::size_t>(cur)].find(dst);
        if (it == table[static_cast<std::size_t>(cur)].end()) break;
        port = it->second;
      }
    }
  }

  // Attachments: modules must sit on real switches (at most 4 ports
  // each), and every pair must be connected by the table walk.
  std::map<int, int> module_switch;  // module -> switch index
  std::map<int, int> load;           // switch -> attached modules
  for (const auto& [mod, pos] : s.placement) {
    const int at = t.switch_index(pos);
    if (at < 0) {
      sink.report("LNT002", Severity::kError, {comp, module_str(mod)},
                  "attached at " + point_str(pos) +
                      " where no switch is declared");
      continue;
    }
    module_switch[mod] = at;
    if (++load[at] > 4) {
      sink.report("CON006", Severity::kError,
                  {comp, "switch " + point_str(pos)},
                  "more modules attached than the switch has ports");
    }
  }
  const auto walk_reaches = [&](int src, int dst) {
    std::set<int> visited{src};
    int cur = src;
    while (cur != dst) {
      const auto it = table[static_cast<std::size_t>(cur)].find(dst);
      if (it == table[static_cast<std::size_t>(cur)].end()) return false;
      const int next = t.port_peer(cur, it->second);
      if (next < 0 || !visited.insert(next).second) return false;
      cur = next;
    }
    return true;
  };
  for (auto a = module_switch.begin(); a != module_switch.end(); ++a) {
    for (auto b = std::next(a); b != module_switch.end(); ++b) {
      if (a->second == b->second) continue;
      if (walk_reaches(a->second, b->second) &&
          walk_reaches(b->second, a->second))
        continue;
      sink.report("CON002", Severity::kError,
                  {comp, module_str(a->first) + " and " +
                             module_str(b->first)},
                  "no routing-table path between the modules' switches",
                  "wire the switch groups together");
    }
  }
}

// ---------------------------------------------------------------------------
// Floorplan

void check_floorplan(const Topology& t, DiagnosticSink& sink) {
  const Scenario& s = t.scenario();
  const std::string comp = "floorplan";
  if (s.device_width > 0 && s.device_height > 0) {
    for (const auto& r : s.regions) {
      if (r.rect.x >= 0 && r.rect.y >= 0 &&
          r.rect.right() <= s.device_width &&
          r.rect.bottom() <= s.device_height && r.rect.w > 0 &&
          r.rect.h > 0)
        continue;
      sink.report("FLP002", Severity::kError,
                  {comp, module_str(r.module)},
                  "reconfigurable region leaves the " +
                      std::to_string(s.device_width) + "x" +
                      std::to_string(s.device_height) + " device");
    }
    for (std::size_t i = 0; i < s.regions.size(); ++i) {
      for (std::size_t j = i + 1; j < s.regions.size(); ++j) {
        const auto& a = s.regions[i];
        const auto& b = s.regions[j];
        if (a.rect.overlaps(b.rect)) {
          sink.report("FLP001", Severity::kError,
                      {comp, module_str(a.module) + " and " +
                                 module_str(b.module)},
                      "reconfigurable regions overlap");
          continue;
        }
        // Virtex-II reconfigures whole columns: writing one region
        // disturbs every other region sharing its columns (paper §3).
        if (t.full_column && a.rect.x < b.rect.right() &&
            b.rect.x < a.rect.right()) {
          sink.report("FLP003", Severity::kWarning,
                      {comp, module_str(a.module) + " and " +
                                 module_str(b.module)},
                      "regions share configuration columns on a "
                      "full-column device; reconfiguring one disturbs "
                      "the other",
                      "stack regions side by side, not above each other");
        }
      }
    }
  }
  for (const auto& [mod, bits] : s.port_bits) {
    if (bits > 0 && bits % 8 == 0) continue;
    sink.report("FLP004", Severity::kNote, {comp, module_str(mod)},
                "interface width of " + std::to_string(bits) +
                    " bits is not a multiple of the 8-bit bus macro; the "
                    "last macro's slices are wasted",
                "round the port up to a multiple of 8 bits");
  }
}

// ---------------------------------------------------------------------------
// Timeline-window hooks
//
// The timeline interpreter (src/verify/timeline.cpp) re-runs the static
// checkers above on a live-only snapshot of every window between events;
// the hooks below add the rules that depend on what a snapshot cannot
// carry — the live-channel multiset, the current epoch demand, and the
// window's failed resources. Messages must not mention the window bounds:
// the timeline keys on (rule, location, message) to merge findings of
// adjacent windows into one interval-annotated diagnostic.

void timeline_buscom(const TimelineStep& st, const Topology& t,
                     DiagnosticSink& sink) {
  const std::string comp = "buscom";
  const Scenario& s = st.snapshot;

  // SCH001 — per-epoch guaranteed-bandwidth feasibility: the demand the
  // current epoch declares against the slots the module owns *now* (the
  // static BUS005 only sees the initial table; slot/unslot events and
  // epochs change both sides over time).
  std::map<int, int> static_slots = t.slot_shares(st.failed_nodes).owned;
  for (const auto& m : s.modules) {
    const auto d = st.demand.find(m.id);
    if (d == st.demand.end()) continue;
    const int owned = static_slots.count(m.id) ? static_slots[m.id] : 0;
    check_slot_demand(t, sink, "SCH001", "epoch", m.id, owned, d->second,
                      "assign more static slots before the epoch or lower it");
  }

  // TMP001 — a channel stays open while every bus is failed: nothing can
  // carry its traffic for the whole window.
  if (!st.channels.empty() && t.buses > 0 &&
      t.buses_up(st.failed_nodes) == 0) {
    for (const auto& c : st.channels)
      sink.report("TMP001", Severity::kWarning, {comp, channel_str(c)},
                  "every bus is failed while the channel is open; its "
                  "traffic can only stall",
                  "close the channel or heal a bus first");
  }
}

void timeline_rmboc(const TimelineStep& st, const Topology& t,
                    DiagnosticSink& sink) {
  const std::string comp = "rmboc";
  const int buses = t.buses;

  // Per-segment lane demand of the channels live in this window (the
  // static RMB003 sums the declared plan; here only what is actually open
  // counts — and the supply shrinks by the window's failed links).
  for (const auto& c : st.channels) {
    const std::string obj = channel_str(c);
    const auto src = t.placement(c.src);
    const auto dst = t.placement(c.dst);
    if (!src || !dst) {
      sink.report("RMB002", Severity::kError, {comp, obj},
                  "channel endpoint is not placed in any slot",
                  "place both modules before planning the circuit");
      continue;
    }
    // TMP001 — an endpoint's cross-point is failed while the channel is
    // open.
    if (t.failed_access(c.src, st.failed_nodes)) {
      sink.report("TMP001", Severity::kWarning, {comp, obj},
                  "cross-point slot " + std::to_string(src->x) +
                      " of module " + std::to_string(c.src) +
                      " is failed while the channel is open",
                  "close the channel or heal the cross-point first");
    }
    if (dst->x != src->x && t.failed_access(c.dst, st.failed_nodes)) {
      sink.report("TMP001", Severity::kWarning, {comp, obj},
                  "cross-point slot " + std::to_string(dst->x) +
                      " of module " + std::to_string(c.dst) +
                      " is failed while the channel is open",
                  "close the channel or heal the cross-point first");
    }
    if (src->x == dst->x) continue;  // loopback, uses no segment
    if (c.lanes < 1) {
      sink.report("RMB001", Severity::kError, {comp, obj},
                  "channel requests " + std::to_string(c.lanes) + " lanes");
    }
  }
  // TMP004 — d_max window check: lanes the live circuits need vs lanes
  // still up on each segment.
  const std::vector<int> demand = t.segment_lanes(st.channels).held;
  for (std::size_t seg = 0; seg < demand.size(); ++seg) {
    if (demand[seg] == 0) continue;
    const int up = t.lanes_up(static_cast<int>(seg), st.failed_links);
    if (demand[seg] <= up) continue;
    sink.report("TMP004", Severity::kError,
                {comp, "segment " + std::to_string(seg)},
                "live circuits need " + std::to_string(demand[seg]) +
                    " lanes across the segment but only " +
                    std::to_string(up) + " of its d_max share of " +
                    std::to_string(buses) + " are up",
                "stagger the circuits in time or heal the segment first");
  }
}

void timeline_dynoc(const TimelineStep& st, const Topology& t,
                    DiagnosticSink& sink) {
  // TMP001 — a failed router inside an endpoint's footprint takes its
  // access point down while the channel is open. (Failed ring routers are
  // survivable: S-XY detours around them.)
  for (const auto& c : st.channels) {
    for (const int mod : {c.src, c.dst}) {
      if (const auto f = t.failed_access(mod, st.failed_nodes)) {
        sink.report("TMP001", Severity::kWarning, {"dynoc", channel_str(c)},
                    "access router " + point_str(*f) + " of module " +
                        std::to_string(mod) +
                        " is failed while the channel is open",
                    "close the channel or heal the router first");
      }
      if (c.src == c.dst) break;
    }
  }
}

void timeline_conochi(const TimelineStep& st, const Topology& t,
                      DiagnosticSink& sink) {
  // TMP001 — an endpoint's attach switch is failed while the channel is
  // open: the module is cut off no matter what the tables say.
  for (const auto& c : st.channels) {
    for (const int mod : {c.src, c.dst}) {
      if (const auto f = t.failed_access(mod, st.failed_nodes)) {
        sink.report("TMP001", Severity::kWarning, {"conochi", channel_str(c)},
                    "attach switch " + point_str(*f) + " of module " +
                        std::to_string(mod) +
                        " is failed while the channel is open",
                    "close the channel or heal the switch first");
      }
      if (c.src == c.dst) break;
    }
  }
}

void check_snapshot(const Topology& t, DiagnosticSink& sink) {
  switch (t.scenario().arch) {
    case ArchKind::kBuscom: check_buscom(t, sink); break;
    case ArchKind::kRmboc: check_rmboc(t, sink); break;
    case ArchKind::kDynoc: check_dynoc(t, sink); break;
    case ArchKind::kConochi: check_conochi(t, sink); break;
    case ArchKind::kNone: break;
  }
  check_floorplan(t, sink);
}

}  // namespace

void Verifier::check_all(const Scenario& s, DiagnosticSink& sink) {
  check_snapshot(Topology(s), sink);
}

void Verifier::check_all(const core::CommArchitecture& arch,
                         DiagnosticSink& sink) {
  arch.verify_invariants(sink);
}

void Verifier::check_floorplan(const Scenario& s, DiagnosticSink& sink) {
  verify::check_floorplan(Topology(s), sink);
}

void Verifier::timeline_step(const TimelineStep& st, DiagnosticSink& sink) {
  const Topology t(st.snapshot);
  check_snapshot(t, sink);
  switch (st.snapshot.arch) {
    case ArchKind::kBuscom: timeline_buscom(st, t, sink); break;
    case ArchKind::kRmboc: timeline_rmboc(st, t, sink); break;
    case ArchKind::kDynoc: timeline_dynoc(st, t, sink); break;
    case ArchKind::kConochi: timeline_conochi(st, t, sink); break;
    case ArchKind::kNone: break;
  }
  if (st.envelope) envelope_step(st, t, sink);

  // FLT005 — cross-architecture: during this window a module that is
  // actually live has its region failed and no surviving evacuation
  // target. Sharper than the static plan walk, which must assume every
  // declared placement is live at once.
  const std::string comp = to_string(st.snapshot.arch);
  for (const auto& m : st.snapshot.modules) {
    if (std::string why = no_evacuation_target(t, m.id, st.failed_nodes);
        !why.empty()) {
      sink.report("FLT005", Severity::kWarning, {comp, module_str(m.id)},
                  why,
                  "stagger the failures or heal a resource first so an "
                  "evacuation target survives");
    }
  }
}

}  // namespace recosim::verify
