#include "verify/timeline.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "verify/envelope.hpp"
#include "verify/topology.hpp"
#include "verify/verifier.hpp"

namespace recosim::verify {

namespace {

using EKind = Scenario::TimedEvent::Kind;
using FKind = fault::FaultKind;

constexpr long long kOpenEnd = -1;  ///< window extends to schedule end

/// Abstract fabric state the interpreter threads through the schedule.
struct State {
  std::set<int> live;                       ///< loaded module ids
  std::map<int, fpga::Point> placement;     ///< live placements only
  std::vector<Scenario::SlotAssign> slots;  ///< current BUS-COM table
  std::map<int, double> demand;             ///< current epoch demand
  std::vector<Scenario::Channel> channels;  ///< live-channel multiset
  FailedSet failed_nodes;
  FailedSet failed_links;
};

/// Closed or still-open liveness interval of one module, for TMP003.
struct Interval {
  long long begin = 0;
  long long end = kOpenEnd;
};

/// Merge key: two window findings are the same diagnostic iff everything
/// but the interval matches.
std::string key_of(const Diagnostic& d) {
  return d.rule + '\x1f' + std::to_string(static_cast<int>(d.severity)) +
         '\x1f' + d.location.component + '\x1f' + d.location.object +
         '\x1f' + d.message + '\x1f' + d.fixit;
}

void apply_fault(FailedSet& nodes, FailedSet& links,
                 const fault::FaultEvent& f) {
  const std::pair<int, int> key{f.a, f.b};
  switch (f.kind) {
    case FKind::kNodeFail: nodes.insert(key); break;
    case FKind::kNodeHeal: nodes.erase(key); break;
    case FKind::kLinkFail: links.insert(key); break;
    case FKind::kLinkHeal: links.erase(key); break;
    case FKind::kIcapAbort: break;  // no persistent fabric state
  }
}

/// Project the abstract state onto a Scenario the static checkers accept:
/// live modules with their current placements and the current slot table.
/// Floorplan and demand/channel facts are deliberately stripped — the
/// timeline owns those (TMP003 replaces FLP001, SCH001 replaces BUS005,
/// TMP004 replaces RMB003 for what is actually open).
Scenario make_snapshot(const Scenario& s, const State& st) {
  Scenario snap;
  snap.arch = s.arch;
  snap.source = s.source;
  snap.settings = s.settings;
  for (const auto& m : s.modules)
    if (st.live.count(m.id)) snap.modules.push_back(m);
  snap.slots = st.slots;
  snap.placement = st.placement;
  snap.switches = s.switches;
  snap.wires = s.wires;
  snap.routes = s.routes;
  return snap;
}

}  // namespace

void Timeline::check(const Scenario& s, const FaultPlanDoc* plan,
                     DiagnosticSink& sink, const EnvelopeParams* envelope) {
  // The envelope pass is part of the timeline; null means defaults
  // (headroom rule off, no envelope collection).
  static const EnvelopeParams kDefaultEnvelope;
  if (!envelope) envelope = &kDefaultEnvelope;
  // --- Order the schedule (same-cycle ties keep file order; faults at a
  // cycle apply before that cycle's scenario events). ---
  std::vector<Scenario::TimedEvent> events = s.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  std::vector<fault::FaultEvent> faults;
  if (plan) {
    faults = plan->plan.scheduled;
    std::stable_sort(faults.begin(), faults.end(),
                     [](const auto& a, const auto& b) { return a.at < b.at; });
  }

  // --- Initial liveness: a module starts dormant iff the first lifecycle
  // event naming it brings it in (load target, swap-in); modules the
  // schedule never names are live from cycle 0 with their static
  // placement. ---
  std::set<int> starts_dormant;
  {
    std::set<int> decided;
    const auto decide = [&](int id, bool incoming) {
      if (decided.insert(id).second && incoming) starts_dormant.insert(id);
    };
    for (const auto& e : events) {
      switch (e.kind) {
        case EKind::kLoad: decide(e.a, true); break;
        case EKind::kUnload: decide(e.a, false); break;
        case EKind::kSwap:
          decide(e.a, false);
          decide(e.b, true);
          break;
        default: break;
      }
    }
  }

  State st;
  for (const auto& m : s.modules)
    if (!starts_dormant.count(m.id)) st.live.insert(m.id);
  for (const auto& [mod, at] : s.placement)
    if (st.live.count(mod)) st.placement[mod] = at;
  st.slots = s.slots;
  st.demand = s.demand;
  st.channels = s.channels;

  // Liveness intervals, for the floorplan temporal pass.
  std::map<int, std::vector<Interval>> lifetimes;
  std::map<int, long long> live_since;
  for (const int id : st.live) live_since[id] = 0;
  const auto go_live = [&](int id, long long t) {
    st.live.insert(id);
    live_since[id] = t;
  };
  const auto go_dead = [&](int id, long long t) {
    if (!st.live.erase(id)) return;
    lifetimes[id].push_back({live_since[id], t});
    live_since.erase(id);
  };

  std::vector<Diagnostic> out;  // finished interval-annotated findings

  // Instantaneous findings (event-shaped: TMP002/TMP005/SCH003) point at
  // the event's source line.
  const auto instant = [&](const char* rule, Severity sev,
                           const Scenario::TimedEvent& e, std::string msg,
                           std::string fixit, long long begin,
                           long long end) {
    Diagnostic d;
    d.rule = rule;
    d.severity = sev;
    d.location = {s.source, "line " + std::to_string(e.line) + ":" +
                                std::to_string(e.column)};
    d.message = std::move(msg);
    d.fixit = std::move(fixit);
    d.window_begin = begin;
    d.window_end = end;
    out.push_back(std::move(d));
  };

  // --- SCH003: drain feasibility look-ahead. A swap/unload of a module
  // with open channels starts a drain; when every lane of a channel's
  // path is failed at the event and stays failed through the whole drain
  // budget, the transaction can only end in a watchdog-forced drain. ---
  const long long drain_budget = Topology(s).drain_timeout;

  // Does every lane of the channel's path stay failed under nodes/links,
  // on the fabric `now` models?
  const auto path_blocked = [&s](const Topology& now,
                                 const Scenario::Channel& c,
                                 const FailedSet& nodes,
                                 const FailedSet& links) {
    const auto cut = [&](int mod) {
      return now.failed_access(mod, nodes).has_value();
    };
    switch (s.arch) {
      case ArchKind::kRmboc: {
        const auto span = now.span(c.src, c.dst);
        if (!span) return false;
        if (cut(c.src) || cut(c.dst)) return true;
        for (int seg = span->lo; seg < span->hi; ++seg)
          if (seg >= 0 && seg < now.segments() &&
              now.lanes_up(seg, links) <= 0)
            return true;
        return false;
      }
      case ArchKind::kBuscom:
        return now.buses >= 1 && now.buses_up(nodes) == 0;
      case ArchKind::kDynoc:
      case ArchKind::kConochi:
        return cut(c.src) || cut(c.dst);
      case ArchKind::kNone: return false;
    }
    return false;
  };

  // Blocked now *and* at every fault boundary inside the drain budget?
  const auto blocked_through = [&](const Topology& now,
                                   const Scenario::Channel& c, long long t) {
    auto nodes = st.failed_nodes;
    auto links = st.failed_links;
    if (!path_blocked(now, c, nodes, links)) return false;
    for (const auto& f : faults) {
      const auto at = static_cast<long long>(f.at);
      if (at <= t) continue;
      if (at >= t + drain_budget) break;  // faults are time-sorted
      apply_fault(nodes, links, f);
      if (!path_blocked(now, c, nodes, links)) return false;
    }
    return true;
  };

  const auto check_drain = [&](const Scenario::TimedEvent& e, int victim,
                               const char* what) {
    // The fabric as it stands, modelled once a channel of the victim
    // needs it.
    std::optional<Scenario> snap;
    std::optional<Topology> now;
    for (const auto& c : st.channels) {
      if (c.src != victim && c.dst != victim) continue;
      if (!now) now.emplace(snap.emplace(make_snapshot(s, st)));
      if (!blocked_through(*now, c, e.at)) continue;
      instant("SCH003", Severity::kWarning, e,
              std::string(what) + " of " + module_str(victim) +
                  " starts a drain of channel " + std::to_string(c.src) +
                  "->" + std::to_string(c.dst) +
                  " whose path stays failed for the whole " +
                  std::to_string(drain_budget) +
                  "-cycle drain budget; only the watchdog can end it",
              "heal the path first or delay the reconfiguration", e.at,
              e.at + drain_budget);
    }
  };

  // Close every channel touching `id` (reconfiguring an endpoint tears
  // its channels down); more than zero closed is worth a warning.
  const auto close_channels_of = [&](int id, const Scenario::TimedEvent& e,
                                     const char* what) {
    int n = 0;
    st.channels.erase(
        std::remove_if(st.channels.begin(), st.channels.end(),
                       [&](const Scenario::Channel& c) {
                         if (c.src != id && c.dst != id) return false;
                         ++n;
                         return true;
                       }),
        st.channels.end());
    if (n > 0) {
      instant("TMP005", Severity::kWarning, e,
              std::string(what) + " of " + module_str(id) + " forces " +
                  std::to_string(n) + " still-open channel(s) closed",
              "close the channels before reconfiguring the endpoint", e.at,
              e.at);
    }
  };

  const auto release_slots_of = [&](int id) {
    st.slots.erase(std::remove_if(st.slots.begin(), st.slots.end(),
                                  [&](const Scenario::SlotAssign& a) {
                                    return a.owner == id;
                                  }),
                   st.slots.end());
  };

  const auto apply_event = [&](const Scenario::TimedEvent& e) {
    const long long t = e.at;
    switch (e.kind) {
      case EKind::kLoad: {
        if (st.live.count(e.a)) {
          instant("TMP002", Severity::kWarning, e,
                  "load of " + module_str(e.a) + " which is already loaded",
                  "unload it first or drop the duplicate load", t, t);
          return;
        }
        go_live(e.a, t);
        if (e.has_place) {
          // An RMBoC load names a slot, a DyNoC/CoNoChi load a tile.
          st.placement[e.a] = {e.b, s.arch == ArchKind::kRmboc ? 0 : e.c};
        } else if (const auto it = s.placement.find(e.a);
                   it != s.placement.end()) {
          st.placement[e.a] = it->second;
        }
        return;
      }
      case EKind::kUnload: {
        if (!st.live.count(e.a)) {
          instant("TMP002", Severity::kWarning, e,
                  "unload of " + module_str(e.a) + " which is not loaded",
                  "drop the event or fix the module id", t, t);
          return;
        }
        check_drain(e, e.a, "unload");
        close_channels_of(e.a, e, "unload");
        go_dead(e.a, t);
        st.placement.erase(e.a);
        release_slots_of(e.a);
        return;
      }
      case EKind::kSwap: {
        if (!st.live.count(e.a)) {
          instant("TMP002", Severity::kWarning, e,
                  "swap victim " + module_str(e.a) + " is not loaded",
                  "load it first or fix the module id", t, t);
          return;
        }
        if (st.live.count(e.b)) {
          instant("TMP002", Severity::kWarning, e,
                  "swap target " + module_str(e.b) + " is already loaded",
                  "unload it first or fix the module id", t, t);
          return;
        }
        check_drain(e, e.a, "swap");
        close_channels_of(e.a, e, "swap");
        // The incoming module inherits the victim's placement (that is
        // what a swap means); BUS-COM static slots are released — the
        // newcomer must earn its own.
        if (const auto it = st.placement.find(e.a);
            it != st.placement.end()) {
          st.placement[e.b] = it->second;
          st.placement.erase(e.a);
        }
        release_slots_of(e.a);
        go_dead(e.a, t);
        go_live(e.b, t);
        return;
      }
      case EKind::kOpen: {
        if (!st.live.count(e.a) || !st.live.count(e.b)) {
          const int dead = st.live.count(e.a) ? e.b : e.a;
          instant("TMP002", Severity::kWarning, e,
                  "open of channel " + std::to_string(e.a) + "->" +
                      std::to_string(e.b) + " while " + module_str(dead) +
                      " is not loaded",
                  "load both endpoints before opening the channel", t, t);
          return;
        }
        st.channels.push_back({e.a, e.b, e.c});
        return;
      }
      case EKind::kClose: {
        const auto it = std::find_if(
            st.channels.begin(), st.channels.end(),
            [&](const Scenario::Channel& c) {
              return c.src == e.a && c.dst == e.b;
            });
        if (it == st.channels.end()) {
          instant("TMP002", Severity::kWarning, e,
                  "close of channel " + std::to_string(e.a) + "->" +
                      std::to_string(e.b) + " which is not open",
                  "drop the event or fix the endpoints", t, t);
          return;
        }
        st.channels.erase(it);
        return;
      }
      case EKind::kEpoch: {
        st.demand[e.a] = e.value;
        return;
      }
      case EKind::kSlot: {
        st.slots.erase(std::remove_if(st.slots.begin(), st.slots.end(),
                                      [&](const Scenario::SlotAssign& a) {
                                        return a.bus == e.a && a.slot == e.b;
                                      }),
                       st.slots.end());
        st.slots.push_back({e.a, e.b, e.c});
        return;
      }
      case EKind::kUnslot: {
        const auto before = st.slots.size();
        st.slots.erase(std::remove_if(st.slots.begin(), st.slots.end(),
                                      [&](const Scenario::SlotAssign& a) {
                                        return a.bus == e.a && a.slot == e.b;
                                      }),
                       st.slots.end());
        if (st.slots.size() == before) {
          instant("TMP002", Severity::kWarning, e,
                  "unslot of bus " + std::to_string(e.a) + " slot " +
                      std::to_string(e.b) + " which is not assigned",
                  "drop the event or fix the coordinates", t, t);
        }
        return;
      }
    }
  };

  // --- Window iteration: every distinct event/fault time starts a new
  // window; adjacent windows with the same finding merge into one
  // interval. ---
  std::map<std::string, Diagnostic> open_diags;
  const auto run_window = [&](long long wb, long long we) {
    DiagnosticSink tmp;
    const Scenario snap = make_snapshot(s, st);
    const TimelineStep step{snap,       s,
                            wb,         we,
                            st.channels, st.demand,
                            st.failed_nodes, st.failed_links,
                            envelope};
    Verifier::timeline_step(step, tmp);
    std::map<std::string, Diagnostic> next;
    for (const auto& d : tmp.diagnostics()) {
      Diagnostic dd = d;
      dd.window_begin = wb;
      dd.window_end = we;
      const std::string k = key_of(dd);
      if (const auto it = open_diags.find(k); it != open_diags.end()) {
        it->second.window_end = we;  // windows are contiguous: extend
        next.emplace(k, std::move(it->second));
        open_diags.erase(it);
      } else {
        next.emplace(k, std::move(dd));
      }
    }
    for (auto& [k, d] : open_diags) out.push_back(std::move(d));
    open_diags = std::move(next);
  };

  std::vector<long long> boundaries;
  boundaries.reserve(events.size() + faults.size());
  for (const auto& e : events) boundaries.push_back(e.at);
  for (const auto& f : faults)
    boundaries.push_back(static_cast<long long>(f.at));
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());

  std::size_t ei = 0, fi = 0;
  if (boundaries.empty() || boundaries.front() > 0)
    run_window(0, boundaries.empty() ? kOpenEnd : boundaries.front());
  for (std::size_t bi = 0; bi < boundaries.size(); ++bi) {
    const long long t = boundaries[bi];
    while (fi < faults.size() && static_cast<long long>(faults[fi].at) == t)
      apply_fault(st.failed_nodes, st.failed_links, faults[fi++]);
    while (ei < events.size() && events[ei].at == t)
      apply_event(events[ei++]);
    run_window(t, bi + 1 < boundaries.size() ? boundaries[bi + 1]
                                             : kOpenEnd);
  }
  for (auto& [k, d] : open_diags) out.push_back(std::move(d));
  open_diags.clear();

  // Close the still-open liveness intervals.
  for (const auto& [id, since] : live_since)
    lifetimes[id].push_back({since, kOpenEnd});

  // --- Floorplan temporal pass (once, not per window): the placement
  // rules are time-independent, but region overlap (static FLP001) is an
  // error only while both owners are live — disjoint lifetimes are the
  // time-multiplexing the paper's partial reconfiguration exists for. ---
  {
    DiagnosticSink tmp;
    Verifier::check_floorplan(s, tmp);
    for (const auto& d : tmp.diagnostics())
      if (d.rule != "FLP001") out.push_back(d);
    const auto intervals_of = [&](int id) -> const std::vector<Interval>& {
      static const std::vector<Interval> none;
      const auto it = lifetimes.find(id);
      return it == lifetimes.end() ? none : it->second;
    };
    for (std::size_t i = 0; i < s.regions.size(); ++i) {
      for (std::size_t j = i + 1; j < s.regions.size(); ++j) {
        const auto& a = s.regions[i];
        const auto& b = s.regions[j];
        if (a.module == b.module || !a.rect.overlaps(b.rect)) continue;
        for (const auto& ia : intervals_of(a.module)) {
          for (const auto& ib : intervals_of(b.module)) {
            const long long lo = std::max(ia.begin, ib.begin);
            const long long hi = ia.end == kOpenEnd
                                     ? ib.end
                                     : ib.end == kOpenEnd
                                           ? ia.end
                                           : std::min(ia.end, ib.end);
            if (hi != kOpenEnd && lo >= hi) continue;
            Diagnostic d;
            d.rule = "TMP003";
            d.severity = Severity::kError;
            d.location = {"floorplan", module_str(a.module) + " and " +
                                           module_str(b.module)};
            d.message =
                "reconfigurable regions overlap while both modules are "
                "live";
            d.fixit =
                "make the lifetimes disjoint (time-multiplex the region) "
                "or move one region";
            d.window_begin = lo;
            d.window_end = hi;
            out.push_back(std::move(d));
          }
        }
      }
    }
  }

  // --- SCH002 post-pass: a DyNoC invariant that holds in the schedule's
  // initial and final states but breaks in a bounded interior interval is
  // a transient break — the schedule walks through an illegal
  // intermediate state. ---
  {
    std::set<std::string> endpoint_dirty;
    for (const auto& d : out) {
      if (d.rule != "DYN001" && d.rule != "DYN002" && d.rule != "DYN003")
        continue;
      if (d.window_begin <= 0 || d.window_end == kOpenEnd)
        endpoint_dirty.insert(d.rule + '\x1f' + d.location.component +
                              '\x1f' + d.location.object);
    }
    std::vector<Diagnostic> companions;
    for (const auto& d : out) {
      if (d.rule != "DYN001" && d.rule != "DYN002" && d.rule != "DYN003")
        continue;
      if (d.window_begin <= 0 || d.window_end == kOpenEnd) continue;
      if (endpoint_dirty.count(d.rule + '\x1f' + d.location.component +
                               '\x1f' + d.location.object))
        continue;
      Diagnostic c;
      c.rule = "SCH002";
      c.severity = Severity::kError;
      c.location = d.location;
      c.message = "schedule walks through an intermediate state that "
                  "violates " +
                  d.rule +
                  " although its initial and final states are clean";
      c.fixit =
          "reorder the schedule (unload before load) so every "
          "intermediate state keeps the invariant";
      c.window_begin = d.window_begin;
      c.window_end = d.window_end;
      companions.push_back(std::move(c));
    }
    for (auto& c : companions) out.push_back(std::move(c));
  }

  // Deterministic output order: static findings (no window) first, then
  // by interval start; insertion order breaks ties.
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.window_begin < b.window_begin;
                   });
  for (auto& d : out) sink.add(std::move(d));
}

}  // namespace recosim::verify
