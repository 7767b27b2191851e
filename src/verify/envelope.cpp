// Envelope analysis: the abstract-interpretation pass the timeline
// verifier runs per window, computing a symbolic [min,max] demand
// envelope and a capacity envelope per shared resource — the BUS-COM
// TDMA round and each module's slot share, each RMBoC bus segment, and
// the path of every open flow on the NoC architectures. Capacity shrinks
// under the window's failed nodes/links/buses and grows back at heals,
// so one pass proves fault-free feasibility (ENV001), degraded
// feasibility under the fault plan's worst window (ENV003), headroom
// policy (ENV004) and declared per-flow latency bounds (ENV002).
//
// Like every timeline hook, messages must not mention window bounds:
// the timeline merges identical findings of adjacent windows into one
// interval-annotated diagnostic.

#include "verify/envelope.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "verify/scenario.hpp"
#include "verify/timeline.hpp"
#include "verify/topology.hpp"
#include "verify/verifier.hpp"

namespace recosim::verify {

namespace {

std::string flow_str(int src, int dst) {
  return "flow " + std::to_string(src) + "->" + std::to_string(dst);
}

/// Compact deterministic number rendering for messages: integers without
/// the ".000000" std::to_string(double) appends.
std::string num(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  return std::to_string(v);
}

/// Report the ENV001/ENV003/ENV004 cascade for one resource envelope.
/// The severity split follows the repo's discipline: guaranteed (min)
/// demand that cannot be carried is an error, worst-case (max) demand
/// that merely might not be is a warning. `aggregate` is false for the
/// per-module BUS-COM resource, whose fault-free infeasibility is
/// already SCH001 — only its degraded and headroom facts are new.
void emit_envelope(const TimelineStep& st, DiagnosticSink& sink,
                   const std::string& comp, ResourceEnvelope env,
                   const char* unit, bool aggregate = true) {
  const EnvelopeParams& p = *st.envelope;
  env.window_begin = st.window_begin;
  env.window_end = st.window_end;
  if (p.collect) p.collect->push_back(env);

  const Location loc{comp, env.resource};
  if (env.demand_max > env.capacity_max) {
    if (!aggregate) return;  // SCH001 owns the per-module fault-free case
    sink.report("ENV001",
                env.demand_min > env.capacity_max ? Severity::kError
                                                  : Severity::kWarning,
                loc,
                "worst-case demand of " + num(env.demand_max) + " " + unit +
                    " exceeds the fault-free capacity of " +
                    num(env.capacity_max) + " " + unit,
                "lower the demand in this window or add capacity");
    return;
  }
  if (env.demand_max > env.capacity_min) {
    sink.report("ENV003",
                env.demand_min > env.capacity_min ? Severity::kError
                                                  : Severity::kWarning,
                loc,
                "demand of " + num(env.demand_max) + " " + unit +
                    " fits the fault-free capacity of " +
                    num(env.capacity_max) + " but exceeds the " +
                    num(env.capacity_min) +
                    " left up under the window's faults",
                "stagger the schedule around the fault window or heal the "
                "resource first");
    return;
  }
  if (p.headroom_pct >= 0 && env.demand_max > 0 && env.capacity_min > 0) {
    const double headroom =
        (env.capacity_min - env.demand_max) / env.capacity_min * 100.0;
    if (headroom < p.headroom_pct) {
      sink.report("ENV004", Severity::kWarning, loc,
                  "capacity headroom of " + num(headroom) +
                      "% under the window's faults is below the required " +
                      num(p.headroom_pct) + "%",
                  "add capacity or move demand out of the fault window");
    }
  }
}

/// Report one ENV002 finding. `latency < 0` means unbounded (no live
/// path or slot exists in this window at all).
void emit_deadline(DiagnosticSink& sink, const std::string& comp, int src,
                   int dst, long long deadline, double latency,
                   const std::string& why) {
  if (latency >= 0 && latency <= static_cast<double>(deadline)) return;
  const std::string bound =
      latency < 0 ? "unbounded (" + why + ")"
                  : num(latency) + " cycles (" + why + ")";
  sink.report("ENV002", Severity::kError, {comp, flow_str(src, dst)},
              "worst-case latency is " + bound +
                  " but the declared deadline is " +
                  std::to_string(deadline) + " cycles",
              "relax the deadline, add capacity, or keep the flow out of "
              "the degraded window");
}

/// Deadlines whose two endpoints are both live in this window.
template <typename Fn>
void for_each_live_deadline(const TimelineStep& st, Fn&& fn) {
  for (const auto& [flow, deadline] : st.full.deadlines) {
    if (!st.snapshot.has_module(flow.first) ||
        !st.snapshot.has_module(flow.second))
      continue;
    fn(flow.first, flow.second, deadline);
  }
}

// --------------------------------------------------------------------------
// BUS-COM: the shared resource is the TDMA round (aggregate payload per
// round across all up buses) plus each demanding module's slot share.

void envelope_buscom(const TimelineStep& st, const Topology& t,
                     DiagnosticSink& sink) {
  const std::string comp = "buscom";
  const Scenario& s = st.snapshot;
  const int buses = t.buses;
  const int slots_per_round = t.slots_per_round;
  if (buses < 1 || slots_per_round < 1) return;  // BUS006 territory
  const double payload_per_slot = t.slot_payload();
  const int up_buses = t.buses_up(st.failed_nodes);
  // Per module, total owned slots and slots surviving on un-failed buses.
  auto [owned, owned_up] = t.slot_shares(st.failed_nodes);

  // Aggregate round envelope: guaranteed demand is what the live modules'
  // epochs declare; each live channel whose source declares no budget
  // adds one slot payload of worst-case allowance per round.
  ResourceEnvelope round;
  round.resource = "round";
  for (const auto& m : s.modules) {
    const auto d = st.demand.find(m.id);
    if (d != st.demand.end()) round.demand_min += d->second;
  }
  double allowance = 0;
  for (const auto& c : st.channels)
    if (!st.demand.count(c.src)) allowance += payload_per_slot;
  round.demand_max = round.demand_min + allowance;
  round.capacity_max = buses * slots_per_round * payload_per_slot;
  round.capacity_min = up_buses * slots_per_round * payload_per_slot;
  emit_envelope(st, sink, comp, round, "bytes/round");

  // Per-module slot-share envelope; the fault-free side is SCH001's, so
  // only the degraded and headroom facts are reported here.
  for (const auto& m : s.modules) {
    const auto d = st.demand.find(m.id);
    if (d == st.demand.end()) continue;
    ResourceEnvelope env;
    env.resource = module_str(m.id);
    env.demand_min = env.demand_max = d->second;
    env.capacity_max = (owned.count(m.id) ? owned[m.id] : 0) * payload_per_slot;
    env.capacity_min =
        (owned_up.count(m.id) ? owned_up[m.id] : 0) * payload_per_slot;
    emit_envelope(st, sink, comp, env, "bytes/round", /*aggregate=*/false);
  }

  // Per-flow path envelope: a flow just needs some bus up.
  for (const auto& c : st.channels) {
    ResourceEnvelope env;
    env.resource = flow_str(c.src, c.dst);
    env.demand_max = 1;
    env.capacity_max = buses;
    env.capacity_min = up_buses;
    emit_envelope(st, sink, comp, env, "bus(es)");
  }

  // ENV002 — worst-case slot wait: one full round until the sender's
  // static slot comes around again, plus the slot transfer itself. A
  // sender with no slot left on an un-failed bus has only the dynamic
  // arbitration, which guarantees nothing.
  const double round_cycles = slots_per_round * t.cycles_per_slot;
  for_each_live_deadline(st, [&](int src, int dst, long long deadline) {
    const int up = owned_up.count(src) ? owned_up[src] : 0;
    if (up == 0) {
      emit_deadline(sink, comp, src, dst, deadline, -1,
                    module_str(src) +
                        " owns no static slot on an un-failed bus");
      return;
    }
    emit_deadline(sink, comp, src, dst, deadline,
                  round_cycles + t.cycles_per_slot,
                  "one " + num(round_cycles) + "-cycle round of slot wait "
                  "plus the transfer");
  });
}

// --------------------------------------------------------------------------
// RMBoC: the shared resource is each bus segment (d_max = s*k shares);
// demand min is the clamped lanes the open circuits hold, demand max the
// lanes they requested before RMB005 clamping.

void envelope_rmboc(const TimelineStep& st, const Topology& t,
                    DiagnosticSink& sink) {
  const std::string comp = "rmboc";
  const int buses = t.buses;
  if (t.slots < 1 || buses < 1) return;

  const std::size_t segs = static_cast<std::size_t>(t.segments());
  const Topology::SegmentLanes lanes = t.segment_lanes(st.channels);
  std::vector<int> up(segs);
  for (std::size_t seg = 0; seg < segs; ++seg)
    up[seg] = t.lanes_up(static_cast<int>(seg), st.failed_links);
  const auto access_failed = [&](int mod) {
    return t.failed_access(mod, st.failed_nodes).has_value();
  };

  for (std::size_t seg = 0; seg < segs; ++seg) {
    if (lanes.requested[seg] == 0) continue;
    ResourceEnvelope env;
    env.resource = "segment " + std::to_string(seg);
    env.demand_min = lanes.held[seg];
    env.demand_max = lanes.requested[seg];
    env.capacity_max = buses;
    env.capacity_min = up[seg];
    emit_envelope(st, sink, comp, env, "lane(s)");
  }

  // Per-flow path envelope: worst crossed segment (or the endpoint
  // cross-points themselves) bounds what the circuit can hold. Unplaced
  // or lane-less channels are RMB002 / RMB001, reported by the timeline
  // hook.
  for (const auto& c : st.channels) {
    const auto span = t.span(c.src, c.dst);
    if (!span || c.lanes < 1) continue;
    ResourceEnvelope env;
    env.resource = flow_str(c.src, c.dst);
    env.demand_max = std::min(c.lanes, buses);
    env.capacity_max = buses;
    int cap = buses;
    for (int seg = span->lo; seg < span->hi; ++seg)
      if (seg >= 0 && seg < static_cast<int>(segs))
        cap = std::min(cap, up[static_cast<std::size_t>(seg)]);
    env.capacity_min = access_failed(c.src) || access_failed(c.dst) ? 0 : cap;
    emit_envelope(st, sink, comp, env, "lane(s)");
  }

  // ENV002 — hop latency across the crossed segments, scaled by the
  // worst contention factor (circuits queued per lane) on the way; a
  // failed endpoint cross-point or a fully failed segment is unbounded.
  for_each_live_deadline(st, [&](int a, int b, long long deadline) {
    const auto span = t.span(a, b);
    if (!span) return;
    if (access_failed(a) || access_failed(b)) {
      emit_deadline(sink, comp, a, b, deadline, -1,
                    "an endpoint cross-point is failed");
      return;
    }
    const int lo = span->lo;
    const int hi = span->hi;
    int contention = 1;
    for (int seg = lo; seg < hi; ++seg) {
      if (seg < 0 || seg >= static_cast<int>(segs)) continue;
      if (up[static_cast<std::size_t>(seg)] <= 0) {
        emit_deadline(sink, comp, a, b, deadline, -1,
                      "every lane of segment " + std::to_string(seg) +
                          " is failed");
        return;
      }
      const int queued =
          std::max(lanes.held[static_cast<std::size_t>(seg)], 1);
      contention = std::max(
          contention, (queued + up[static_cast<std::size_t>(seg)] - 1) /
                          up[static_cast<std::size_t>(seg)]);
    }
    emit_deadline(sink, comp, a, b, deadline,
                  t.hop_cycles * (hi - lo + 1) * contention,
                  std::to_string(hi - lo) + " segment hop(s) at contention " +
                      std::to_string(contention));
  });
}

// --------------------------------------------------------------------------
// DyNoC: the shared resource is the router path of each open flow; S-XY
// detours around failed ring routers, so capacity only collapses when
// the faults (plus module obstacles) disconnect the endpoints.

void envelope_dynoc(const TimelineStep& st, const Topology& t,
                    DiagnosticSink& sink) {
  const std::string comp = "dynoc";
  if (t.width < 1 || t.height < 1) return;
  // Every live placement is an obstacle here, border and ring violations
  // included; a footprint of area < 1 counts as a unit module.
  std::map<int, fpga::Rect> at;
  std::vector<fpga::Rect> rects;
  for (const auto& [mod, p] : st.snapshot.placement) {
    fpga::Rect r = *t.footprint(mod);
    if (r.area() < 1) r.w = r.h = 1;
    at.emplace(mod, r);
    rects.push_back(r);
  }
  const DynocMesh mesh = t.mesh(rects);
  const auto distance = [&](int a, int b, const FailedSet* failed) {
    return mesh.distance(at.at(a), at.at(b), failed);
  };

  for (const auto& c : st.channels) {
    if (!at.count(c.src) || !at.count(c.dst)) continue;
    ResourceEnvelope env;
    env.resource = flow_str(c.src, c.dst);
    env.demand_max = 1;
    env.capacity_max = distance(c.src, c.dst, nullptr) >= 0 ? 1 : 0;
    env.capacity_min = distance(c.src, c.dst, &st.failed_nodes) >= 0 ? 1 : 0;
    emit_envelope(st, sink, comp, env, "path(s)");
  }

  // ENV002 — the faulted BFS distance already prices the S-XY detours in.
  for_each_live_deadline(st, [&](int a, int b, long long deadline) {
    if (!at.count(a) || !at.count(b)) return;
    const int d = distance(a, b, &st.failed_nodes);
    if (d < 0) {
      emit_deadline(sink, comp, a, b, deadline, -1,
                    "the faults disconnect the modules' access routers");
      return;
    }
    emit_deadline(sink, comp, a, b, deadline, t.hop_cycles * (d + 2),
                  std::to_string(d) + " router hop(s) plus module entry "
                  "and exit");
  });
}

// --------------------------------------------------------------------------
// CoNoChi: the shared resource is the switch path of each open flow over
// the derived link graph; a failed switch removes its links, so the
// re-planned path lengthens or the endpoints disconnect.

void envelope_conochi(const TimelineStep& st, const Topology& t,
                      DiagnosticSink& sink) {
  const std::string comp = "conochi";
  const auto attach_index = [&](int mod) {
    const auto p = t.placement(mod);
    return p ? t.switch_index(*p) : -1;
  };

  for (const auto& c : st.channels) {
    const int a = attach_index(c.src);
    const int b = attach_index(c.dst);
    if (a < 0 || b < 0) continue;
    ResourceEnvelope env;
    env.resource = flow_str(c.src, c.dst);
    env.demand_max = 1;
    env.capacity_max = t.switch_distance(a, b, nullptr) >= 0 ? 1 : 0;
    env.capacity_min = t.switch_distance(a, b, &st.failed_nodes) >= 0 ? 1 : 0;
    emit_envelope(st, sink, comp, env, "path(s)");
  }

  // ENV002 — table-walk hops over the surviving switches.
  for_each_live_deadline(st, [&](int ma, int mb, long long deadline) {
    const int a = attach_index(ma);
    const int b = attach_index(mb);
    if (a < 0 || b < 0) return;
    const int d = t.switch_distance(a, b, &st.failed_nodes);
    if (d < 0) {
      emit_deadline(sink, comp, ma, mb, deadline, -1,
                    "no path of live switches connects the modules");
      return;
    }
    emit_deadline(sink, comp, ma, mb, deadline, t.hop_cycles * (d + 1),
                  std::to_string(d) + " switch hop(s) plus the local "
                  "delivery");
  });
}

}  // namespace

void envelope_step(const TimelineStep& st, const Topology& topo,
                   DiagnosticSink& sink) {
  switch (st.snapshot.arch) {
    case ArchKind::kBuscom: envelope_buscom(st, topo, sink); break;
    case ArchKind::kRmboc: envelope_rmboc(st, topo, sink); break;
    case ArchKind::kDynoc: envelope_dynoc(st, topo, sink); break;
    case ArchKind::kConochi: envelope_conochi(st, topo, sink); break;
    case ArchKind::kNone: break;
  }
}

// --------------------------------------------------------------------------

bool envelope_feasible(const Scenario& s, const FaultPlanDoc* plan,
                       const EnvelopeParams& params) {
  DiagnosticSink sink;
  Timeline::check(s, plan, sink, &params);
  return sink.error_count() == 0;
}

}  // namespace recosim::verify
