#include "fault/chaos.hpp"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "buscom/buscom.hpp"
#include "conochi/conochi.hpp"
#include "core/reconfig_manager.hpp"
#include "core/reconfig_txn.hpp"
#include "dynoc/dynoc.hpp"
#include "fault/injector.hpp"
#include "fault/reliable_channel.hpp"
#include "health/health.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "verify/diagnostic.hpp"
#include "verify/envelope.hpp"
#include "verify/fault_plan.hpp"
#include "verify/line_reader.hpp"
#include "verify/scenario.hpp"
#include "verify/timeline.hpp"

namespace recosim::fault {

namespace {

// The fixed chaos topology per architecture. Fault coordinates generated
// by make_schedule stay inside these bounds, which is also what the
// fault-plan lint checks against.
constexpr int kRmbocSlots = 4;
constexpr int kRmbocBuses = 4;
constexpr int kBuscomBuses = 4;
constexpr int kDynocSize = 7;
constexpr fpga::Point kConochiSwitches[] = {{1, 1}, {5, 1}, {1, 5}, {5, 5}};
/// The wire runs closing the four switches into a ring.
constexpr verify::Scenario::Wire kConochiWires[] = {
    {{2, 1}, {4, 1}}, {{2, 5}, {4, 5}}, {{1, 2}, {1, 4}}, {{5, 2}, {5, 4}}};

constexpr fpga::ModuleId kEndpointA = 1;
constexpr fpga::ModuleId kEndpointB = 2;
/// Module ids the schedule's ops draw from (never the endpoints).
constexpr std::uint32_t kOpIds[] = {10, 11, 12, 13};

/// Small tile-reconfigurable device so ICAP transfers take hundreds of
/// cycles instead of tens of thousands — chaos runs whole fleets of
/// schedules, wall-time matters.
fpga::Device chaos_device() {
  fpga::Device d;
  d.name = "chaos_small";
  d.clb_columns = 24;
  d.clb_rows = 16;
  d.granularity = fpga::ReconfigGranularity::kTile;
  d.frames_per_clb_column = 4;
  d.bits_per_frame = 256;
  d.icap_width_bits = 32;
  d.icap_clock_mhz = 100.0;
  return d;
}

bool uses_rectangles(ChaosArch a) {
  return a == ChaosArch::kDynoc || a == ChaosArch::kConochi;
}

struct Fixture {
  std::unique_ptr<rmboc::Rmboc> rmboc;
  std::unique_ptr<buscom::Buscom> buscom;
  std::unique_ptr<dynoc::Dynoc> dynoc;
  std::unique_ptr<conochi::Conochi> conochi;
  core::CommArchitecture* arch = nullptr;
  sim::Cycle send_gap = 100;
};

fpga::HardwareModule unit_module() {
  fpga::HardwareModule m;
  m.width_clbs = 1;
  m.height_clbs = 1;
  return m;
}

Fixture make_fixture(sim::Kernel& kernel, ChaosArch a) {
  Fixture fx;
  switch (a) {
    case ChaosArch::kRmboc: {
      rmboc::RmbocConfig cfg;
      cfg.slots = kRmbocSlots;
      cfg.buses = kRmbocBuses;
      fx.rmboc = std::make_unique<rmboc::Rmboc>(kernel, cfg);
      fx.arch = fx.rmboc.get();
      fx.arch->attach(kEndpointA, unit_module());
      fx.arch->attach(kEndpointB, unit_module());
      fx.send_gap = 200;
      break;
    }
    case ChaosArch::kBuscom: {
      buscom::BuscomConfig cfg;
      cfg.buses = kBuscomBuses;
      fx.buscom = std::make_unique<buscom::Buscom>(kernel, cfg);
      fx.arch = fx.buscom.get();
      fx.arch->attach(kEndpointA, unit_module());
      fx.arch->attach(kEndpointB, unit_module());
      fx.send_gap = 600;
      break;
    }
    case ChaosArch::kDynoc: {
      dynoc::DynocConfig cfg;
      cfg.width = cfg.height = kDynocSize;
      fx.dynoc = std::make_unique<dynoc::Dynoc>(kernel, cfg);
      fx.arch = fx.dynoc.get();
      fx.dynoc->attach_at(kEndpointA, unit_module(), {1, 1});
      fx.dynoc->attach_at(kEndpointB, unit_module(), {5, 1});
      fx.send_gap = 100;
      break;
    }
    case ChaosArch::kConochi: {
      conochi::ConochiConfig cfg;
      cfg.grid_width = 8;
      cfg.grid_height = 8;
      fx.conochi = std::make_unique<conochi::Conochi>(kernel, cfg);
      for (const auto& p : kConochiSwitches) fx.conochi->add_switch(p);
      for (const auto& w : kConochiWires) fx.conochi->lay_wire(w.a, w.b);
      fx.arch = fx.conochi.get();
      fx.conochi->attach_at(kEndpointA, unit_module(), {1, 1});
      fx.conochi->attach_at(kEndpointB, unit_module(), {5, 5});
      fx.send_gap = 150;
      break;
    }
  }
  return fx;
}

}  // namespace

ReliableChannelConfig chaos_channel_config(ChaosArch a) {
  ReliableChannelConfig cfg;
  switch (a) {
    case ChaosArch::kRmboc:
      cfg.base_timeout = 2'048;
      cfg.max_timeout = 16'384;
      break;
    case ChaosArch::kBuscom:
      cfg.base_timeout = 8'192;
      cfg.max_timeout = 65'536;
      break;
    case ChaosArch::kDynoc:
    case ChaosArch::kConochi:
      break;
  }
  return cfg;
}

namespace {

/// Architecture names, indexed by ChaosArch.
constexpr std::string_view kChaosArchNames[] = {"rmboc", "buscom", "dynoc",
                                                "conochi"};
/// Op kind names, indexed by ChaosOp::Kind.
constexpr std::string_view kOpKindNames[] = {"load", "swap", "unload",
                                             "load_compact"};

}  // namespace

const char* to_string(ChaosArch a) {
  return kChaosArchNames[static_cast<std::size_t>(a)].data();
}

std::optional<ChaosArch> parse_chaos_arch(const std::string& name) {
  for (ChaosArch a : kAllChaosArchs)
    if (name == to_string(a)) return a;
  return std::nullopt;
}

const char* to_string(ChaosOp::Kind k) {
  return kOpKindNames[static_cast<std::size_t>(k)].data();
}

ChaosSchedule make_schedule(ChaosArch arch, std::uint64_t seed, int num_ops,
                            sim::Cycle horizon) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL +
               static_cast<std::uint64_t>(arch));
  ChaosSchedule s;
  s.arch = arch;
  s.seed = seed;
  s.horizon = horizon;

  const bool rect = uses_rectangles(arch);

  // Reconfiguration ops. `maybe_loaded` is a plausibility heuristic, not
  // ground truth — ops that turn out invalid at runtime exercise the
  // transaction's bad-request rollback, which is the point.
  std::vector<std::uint32_t> maybe_loaded;
  auto pick_fresh = [&]() -> std::uint32_t {
    std::vector<std::uint32_t> unused;
    for (std::uint32_t id : kOpIds)
      if (std::find(maybe_loaded.begin(), maybe_loaded.end(), id) ==
          maybe_loaded.end())
        unused.push_back(id);
    if (unused.empty()) return kOpIds[rng.index(std::size(kOpIds))];
    return unused[rng.index(unused.size())];
  };
  for (int i = 0; i < num_ops; ++i) {
    ChaosOp op;
    op.at = 100 + rng.uniform(0, horizon * 7 / 10);
    if (rect) {
      op.w = 1 + static_cast<int>(rng.index(2));
      op.h = 1 + static_cast<int>(rng.index(2));
    } else {
      op.w = 1 + static_cast<int>(rng.index(4));
      op.h = 1 + static_cast<int>(rng.index(8));
    }
    const double roll = rng.real();
    if (maybe_loaded.empty() || roll < 0.45) {
      op.kind = (rect && rng.chance(0.3)) ? ChaosOp::Kind::kLoadCompact
                                          : ChaosOp::Kind::kLoad;
      op.id = pick_fresh();
      maybe_loaded.push_back(op.id);
    } else if (roll < 0.7) {
      op.kind = ChaosOp::Kind::kSwap;
      op.old_id = maybe_loaded[rng.index(maybe_loaded.size())];
      op.id = pick_fresh();
      std::replace(maybe_loaded.begin(), maybe_loaded.end(), op.old_id,
                   op.id);
    } else {
      op.kind = ChaosOp::Kind::kUnload;
      op.id = maybe_loaded[rng.index(maybe_loaded.size())];
      maybe_loaded.erase(std::remove(maybe_loaded.begin(),
                                     maybe_loaded.end(), op.id),
                         maybe_loaded.end());
    }
    s.ops.push_back(op);
  }
  std::sort(s.ops.begin(), s.ops.end(),
            [](const ChaosOp& a, const ChaosOp& b) { return a.at < b.at; });

  // Hard faults, each healed before the horizon so the end-state checks
  // run against a repaired fabric.
  const int nfaults = 1 + static_cast<int>(rng.index(3));
  for (int i = 0; i < nfaults; ++i) {
    const sim::Cycle t = horizon / 10 + rng.uniform(0, horizon / 2);
    const sim::Cycle h = t + 200 + rng.uniform(0, horizon * 9 / 10 - t);
    switch (arch) {
      case ChaosArch::kRmboc: {
        const int seg = static_cast<int>(rng.index(kRmbocSlots - 1));
        const int bus = static_cast<int>(rng.index(kRmbocBuses));
        s.faults.fail_link_at(t, seg, bus).heal_link_at(h, seg, bus);
        break;
      }
      case ChaosArch::kBuscom: {
        // Never bus k-1: even fully overlapping faults leave one bus up
        // (a total blackout is a lint error, not a chaos scenario).
        const int bus = static_cast<int>(rng.index(kBuscomBuses - 1));
        s.faults.fail_node_at(t, bus).heal_node_at(h, bus);
        break;
      }
      case ChaosArch::kDynoc: {
        const int x = static_cast<int>(rng.index(kDynocSize));
        const int y = static_cast<int>(rng.index(kDynocSize));
        s.faults.fail_node_at(t, x, y).heal_node_at(h, x, y);
        break;
      }
      case ChaosArch::kConochi: {
        const auto& p = kConochiSwitches[rng.index(std::size(kConochiSwitches))];
        s.faults.fail_node_at(t, p.x, p.y).heal_node_at(h, p.x, p.y);
        break;
      }
    }
  }
  const int naborts = static_cast<int>(rng.index(3));
  for (int i = 0; i < naborts; ++i)
    s.faults.abort_icap_at(100 + rng.uniform(0, horizon * 7 / 10));
  std::sort(s.faults.scheduled.begin(), s.faults.scheduled.end(),
            [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });

  if (rng.chance(0.5)) s.faults.bit_flip_rate = rng.real() * 0.02;
  if (rng.chance(0.5)) s.faults.drop_rate = rng.real() * 0.02;
  // A third of the schedules run with a hot ICAP: abort rates high enough
  // to exhaust the retry budget, forcing permanent load failures and the
  // rollback path (the rest keep a mild rate so commits dominate).
  s.faults.icap_abort_rate =
      rng.chance(0.33) ? 0.5 + rng.real() * 0.4 : rng.real() * 0.15;
  return s;
}

ChaosResult run_schedule(const ChaosSchedule& s, bool activity_driven) {
  ChaosRunOptions opt;
  opt.activity_driven = activity_driven;
  return run_schedule(s, opt);
}

ChaosResult run_schedule(const ChaosSchedule& s, const ChaosRunOptions& opt) {
  sim::Kernel kernel;
  kernel.set_activity_driven(opt.activity_driven);
  kernel.set_busy_path_enabled(opt.busy_path);
  Fixture fx = make_fixture(kernel, s.arch);
  core::CommArchitecture& arch = *fx.arch;

  core::ReconfigManager mgr(
      kernel, chaos_device(), /*system_clock_mhz=*/100.0,
      uses_rectangles(s.arch) ? core::PlacementStrategy::kRectangles
                              : core::PlacementStrategy::kSlots,
      /*slot_count=*/4);

  // Tight retry budget: with the schedule's ICAP abort rates, a load
  // regularly exhausts it, which is how rollback earns its keep.
  mgr.set_icap_retry_policy(/*limit=*/2, /*base_backoff=*/64);

  FaultInjector injector(kernel, arch, s.faults, sim::Rng(s.seed * 977 + 13));
  injector.attach_icap(mgr.icap());

  ReliableChannel rc(kernel, arch, chaos_channel_config(s.arch),
                     sim::Rng(s.seed * 31 + 7));
  rc.add_endpoint(kEndpointA);
  rc.add_endpoint(kEndpointB);
  for (std::uint32_t id : kOpIds) rc.add_endpoint(id);

  // The self-healing layer, fed exclusively from observable symptoms —
  // the fault plan and injector stay invisible to it (plan-blindness is
  // the point; a test asserts it).
  std::unique_ptr<health::FailureDetector> detector;
  std::unique_ptr<health::RecoveryOrchestrator> orch;
  health::FailureDetector* det = nullptr;
  if (opt.recovery) {
    detector = std::make_unique<health::FailureDetector>(kernel, arch);
    det = detector.get();
    rc.set_event_hook(
        [det](const ChannelEvent& ev) { det->observe_channel_event(ev); });
    health::OrchestratorConfig oc;
    oc.evac_txn.drain_timeout = 4'000;
    oc.evac_txn.drain_stall_deadline = 1'000;
    oc.evac_txn.txn_timeout = 25'000;
    oc.evac_txn.on_drain_escalation =
        [det](const std::vector<fpga::ModuleId>& m) {
          det->observe_drain_escalation(m);
        };
    orch = std::make_unique<health::RecoveryOrchestrator>(
        kernel, arch, *detector, &rc, &mgr, oc);
  }

  // Issue every op as a transaction at its cycle. Transactions stay alive
  // (and visible) until the run ends.
  std::vector<std::unique_ptr<core::ReconfigTxn>> txns;
  for (const ChaosOp& op : s.ops) {
    kernel.schedule_at(op.at, [&kernel, &mgr, &arch, &rc, &txns, det, op] {
      core::TxnRequest req;
      req.id = op.id;
      req.old_id = op.old_id;
      req.module.width_clbs = op.w;
      req.module.height_clbs = op.h;
      req.module.name = "chaos";
      switch (op.kind) {
        case ChaosOp::Kind::kLoad: req.kind = core::TxnKind::kLoad; break;
        case ChaosOp::Kind::kSwap: req.kind = core::TxnKind::kSwap; break;
        case ChaosOp::Kind::kUnload: req.kind = core::TxnKind::kUnload; break;
        case ChaosOp::Kind::kLoadCompact:
          req.kind = core::TxnKind::kLoadWithCompaction;
          break;
      }
      core::TxnConfig tc;
      tc.drain_timeout = 4'000;
      tc.drain_stall_deadline = 1'000;
      tc.txn_timeout = 25'000;
      if (det)
        tc.on_drain_escalation = [det](const std::vector<fpga::ModuleId>& m) {
          det->observe_drain_escalation(m);
        };
      auto txn = std::make_unique<core::ReconfigTxn>(kernel, mgr, arch,
                                                     std::move(req), tc);
      core::ReconfigTxn* t = txn.get();
      t->add_drain_source([&rc, t] {
        std::size_t n = 0;
        for (fpga::ModuleId id : t->quiesced_modules())
          n += rc.outstanding(id);
        return n;
      });
      txns.push_back(std::move(txn));
    });
  }

  // Traffic: a steady A<->B flow plus occasional packets to whichever op
  // module is attached right now, so transactions have live traffic to
  // quiesce and drain.
  sim::Rng traffic(s.seed * 131 + 3);
  struct Flow {
    fpga::ModuleId src, dst;
    sim::Cycle accepted_at = 0;
  };
  std::map<std::uint64_t, Flow> accepted;
  std::map<std::uint64_t, int> delivered;
  sim::Cycle max_latency = 0;
  std::uint64_t next_tag = 0;
  const std::vector<fpga::ModuleId> all_endpoints = [] {
    std::vector<fpga::ModuleId> v{kEndpointA, kEndpointB};
    for (std::uint32_t id : kOpIds) v.push_back(id);
    return v;
  }();
  auto drain_receives = [&] {
    for (fpga::ModuleId id : all_endpoints) {
      while (auto p = rc.receive(id)) {
        if (++delivered[p->tag] == 1) {
          if (const auto it = accepted.find(p->tag); it != accepted.end())
            max_latency =
                std::max(max_latency, kernel.now() - it->second.accepted_at);
        }
      }
    }
  };

  const auto cancelled = [&opt] {
    return opt.cancel && opt.cancel->load(std::memory_order_relaxed);
  };

  sim::Cycle next_send = 0;
  while (kernel.now() < s.horizon && !cancelled()) {
    if (kernel.now() >= next_send) {
      fpga::ModuleId src = kEndpointA;
      fpga::ModuleId dst = kEndpointB;
      if (traffic.chance(0.5)) std::swap(src, dst);
      if (traffic.chance(0.25)) {
        std::vector<fpga::ModuleId> live;
        for (std::uint32_t id : kOpIds)
          if (arch.is_attached(id)) live.push_back(id);
        if (!live.empty()) {
          src = kEndpointA;
          dst = live[traffic.index(live.size())];
        }
      }
      if (!rc.peer_dead(src, dst)) {
        proto::Packet p;
        p.src = src;
        p.dst = dst;
        p.payload_bytes = 16;
        p.tag = ++next_tag;
        if (rc.send(p))
          accepted.emplace(p.tag, Flow{src, dst, kernel.now()});
        else
          --next_tag;
      }
      next_send = kernel.now() + fx.send_gap;
    }
    kernel.run(1);
    drain_receives();
  }

  // Settle: traffic stopped (the plan healed every fault before the
  // horizon); wait for every transaction to reach a terminal state and
  // the channel to go quiet. The cap covers the slowest legitimate path
  // (full retry budget at max backoff) so hitting it means a stuck
  // transaction or a leaked in-flight packet — which the checks report.
  kernel.run_until(
      [&] {
        if (cancelled()) return true;
        for (const auto& t : txns)
          if (!t->done()) return false;
        if (rc.outstanding() != 0) return false;
        return !orch || orch->idle();
      },
      250'000);
  drain_receives();

  if (cancelled()) {
    // Deadline-killed by the farm watchdog: the run is abandoned
    // mid-flight, so no invariant below would be meaningful. Hand back a
    // minimal result that can never be mistaken for a clean run.
    ChaosResult result;
    result.ok = false;
    result.end_cycle = kernel.now();
    result.violations.push_back(
        {"cancelled", "run cancelled mid-flight by the farm watchdog"});
    return result;
  }

  ChaosResult result;
  result.end_cycle = kernel.now();
  result.accepted = accepted.size();
  result.delivered = rc.delivered_total();
  result.max_delivery_latency = max_latency;
  for (const auto& t : txns) {
    if (t->committed()) ++result.txns_committed;
    if (t->state() == core::TxnState::kRolledBack) ++result.txns_rolled_back;
    if (t->forced_drain()) ++result.forced_drains;
  }

  auto violation = [&](std::string invariant, std::string detail) {
    result.ok = false;
    result.violations.push_back(
        ChaosViolation{std::move(invariant), std::move(detail)});
  };

  // Exactly-once: every accepted payload is delivered once, or its flow
  // was declared dead (an accounted loss, never a silent one).
  for (const auto& [tag, flow] : accepted) {
    const auto it = delivered.find(tag);
    const int n = it == delivered.end() ? 0 : it->second;
    if (n > 1) {
      violation("duplicate-delivery",
                "tag " + std::to_string(tag) + " delivered " +
                    std::to_string(n) + " times");
    } else if (n == 0 && !rc.peer_dead(flow.src, flow.dst)) {
      violation("lost-payload",
                "tag " + std::to_string(tag) + " (" +
                    std::to_string(flow.src) + "->" +
                    std::to_string(flow.dst) +
                    ") accepted on a live flow but never delivered");
    }
  }

  // No half-attached module: attachment and placement agree for every
  // module the schedule managed.
  for (std::uint32_t id : kOpIds) {
    const bool att = arch.is_attached(id);
    const bool placed = mgr.floorplan().region_of(id).has_value();
    if (att != placed)
      violation("half-attached",
                "module " + std::to_string(id) +
                    (att ? " attached but not placed" :
                           " placed but not attached"));
  }

  for (std::size_t i = 0; i < txns.size(); ++i) {
    if (!txns[i]->done())
      violation("txn-stuck",
                "op " + std::to_string(i) + " (" +
                    core::to_string(txns[i]->request().kind) + " id " +
                    std::to_string(txns[i]->request().id) + ") in state " +
                    core::to_string(txns[i]->state()));
  }

  verify::DiagnosticSink sink;
  arch.verify_invariants(sink);
  for (const auto& d : sink.diagnostics())
    if (d.severity == verify::Severity::kError)
      violation("verify-error", "[" + d.rule + "] " + d.message);

  if (orch) {
    result.incidents = orch->incidents().size();
    result.evacuations = orch->stats().counter_value("evacuations");
    result.slo_json = orch->slo_json();

    // Recovery invariant: every confirmed failure reaches RECOVERED or
    // DEGRADED-STABLE, and does so within the recovery bound.
    for (const auto& inc : orch->incidents()) {
      switch (inc.outcome) {
        case health::IncidentOutcome::kRecovered:
          ++result.incidents_recovered;
          break;
        case health::IncidentOutcome::kDegradedStable:
          ++result.incidents_degraded_stable;
          break;
        case health::IncidentOutcome::kOpen:
          violation("unrecovered-incident",
                    "incident " + std::to_string(inc.id) + " (" +
                        inc.subject.to_string() + ", confirmed at cycle " +
                        std::to_string(inc.confirmed_at) +
                        ") still open at end of run");
          continue;
      }
      const sim::Cycle ttr = inc.resolved_at - inc.confirmed_at;
      if (ttr > opt.recovery_bound)
        violation("unrecovered-incident",
                  "incident " + std::to_string(inc.id) + " (" +
                      inc.subject.to_string() + ") took " +
                      std::to_string(ttr) + " cycles to resolve (bound " +
                      std::to_string(opt.recovery_bound) + ")");
    }

    // Recovery invariant: the plan healed every fault before the horizon,
    // so a healed region must be usable again. For DyNoC that is checked
    // directly — every router not covered by a live placement must be
    // active; for the others a probe module must attach unless the fabric
    // is legitimately full (RMBoC: 4 slots, BUS-COM: 4 interface slots,
    // CoNoChi: 8 switch ports free of wires in the fixed ring).
    if (fx.dynoc) {
      const std::vector<fpga::ModuleId> known = [] {
        std::vector<fpga::ModuleId> v{kEndpointA, kEndpointB};
        for (std::uint32_t id : kOpIds) v.push_back(id);
        return v;
      }();
      for (int y = 0; y < kDynocSize; ++y) {
        for (int x = 0; x < kDynocSize; ++x) {
          const fpga::Point p{x, y};
          bool covered = false;
          for (fpga::ModuleId id : known) {
            const auto r = fx.dynoc->region_of(id);
            if (r && r->area() > 1 && x >= r->x && x < r->right() &&
                y >= r->y && y < r->bottom()) {
              covered = true;
              break;
            }
          }
          if (!covered && !fx.dynoc->router_active(p))
            violation("healed-region-unusable",
                      "router (" + std::to_string(x) + "," +
                          std::to_string(y) +
                          ") still inactive after every fault healed");
        }
      }
    } else {
      const std::size_t capacity = s.arch == ChaosArch::kConochi ? 8 : 4;
      constexpr fpga::ModuleId kProbeId = 999;
      if (arch.attach(kProbeId, unit_module())) {
        arch.detach(kProbeId);
      } else if (arch.attached_count() < capacity) {
        violation("healed-region-unusable",
                  "probe module " + std::to_string(kProbeId) +
                      " cannot attach after every fault healed (" +
                      std::to_string(arch.attached_count()) +
                      " modules attached)");
      }
    }
  }

  return result;
}

void timeline_lint_schedule(const ChaosSchedule& s,
                            verify::DiagnosticSink& sink,
                            const verify::EnvelopeParams* envelope) {
  using verify::Scenario;
  namespace v = recosim::verify;

  // Declarative twin of make_fixture's fixed topology.
  Scenario sc;
  sc.source = "chaos(" + std::string(to_string(s.arch)) + ", seed " +
              std::to_string(s.seed) + ")";
  const auto declare = [&sc](int id) {
    if (!sc.has_module(id)) sc.modules.push_back({id, 1, 1});
  };
  declare(static_cast<int>(kEndpointA));
  declare(static_cast<int>(kEndpointB));
  switch (s.arch) {
    case ChaosArch::kRmboc:
      sc.arch = v::ArchKind::kRmboc;
      sc.settings["slots"] = kRmbocSlots;
      sc.settings["buses"] = kRmbocBuses;
      // attach() hands out cross-point slots in order: A -> 0, B -> 1.
      sc.placement[static_cast<int>(kEndpointA)] = {0, 0};
      sc.placement[static_cast<int>(kEndpointB)] = {1, 0};
      break;
    case ChaosArch::kBuscom:
      sc.arch = v::ArchKind::kBuscom;
      sc.settings["buses"] = kBuscomBuses;
      break;
    case ChaosArch::kDynoc:
      sc.arch = v::ArchKind::kDynoc;
      sc.settings["width"] = kDynocSize;
      sc.settings["height"] = kDynocSize;
      sc.placement[static_cast<int>(kEndpointA)] = {1, 1};
      sc.placement[static_cast<int>(kEndpointB)] = {5, 1};
      break;
    case ChaosArch::kConochi:
      sc.arch = v::ArchKind::kConochi;
      sc.settings["grid_width"] = 8;
      sc.settings["grid_height"] = 8;
      sc.switches.assign(std::begin(kConochiSwitches),
                         std::end(kConochiSwitches));
      sc.wires.assign(std::begin(kConochiWires), std::end(kConochiWires));
      sc.placement[static_cast<int>(kEndpointA)] = {1, 1};
      sc.placement[static_cast<int>(kEndpointB)] = {5, 5};
      break;
  }
  // The reliable channel runs payloads A -> B and acks B -> A.
  sc.channels.push_back(
      {static_cast<int>(kEndpointA), static_cast<int>(kEndpointB), 1});
  sc.channels.push_back(
      {static_cast<int>(kEndpointB), static_cast<int>(kEndpointA), 1});

  // Ops become timed lifecycle events. Chaos loads place wherever the
  // runtime placer finds room, which the static view cannot know — the
  // events carry no placement, keeping the timeline conservative.
  for (const auto& op : s.ops) {
    Scenario::TimedEvent e;
    e.at = op.at;
    switch (op.kind) {
      case ChaosOp::Kind::kLoad:
      case ChaosOp::Kind::kLoadCompact:
        e.kind = Scenario::TimedEvent::Kind::kLoad;
        e.a = static_cast<int>(op.id);
        break;
      case ChaosOp::Kind::kSwap:
        e.kind = Scenario::TimedEvent::Kind::kSwap;
        e.a = static_cast<int>(op.old_id);
        e.b = static_cast<int>(op.id);
        declare(static_cast<int>(op.old_id));
        break;
      case ChaosOp::Kind::kUnload:
        e.kind = Scenario::TimedEvent::Kind::kUnload;
        e.a = static_cast<int>(op.id);
        break;
    }
    declare(static_cast<int>(op.id));
    sc.events.push_back(e);
  }

  // The fault plan as the FLT rules read it. Generated schedules may
  // contain overlapping identical fail/heal pairs; the redundant events
  // are no-ops at runtime (the injector refuses a double-fail or unmatched
  // heal), so they are dropped here rather than tripping the plan-hygiene
  // rule FLT001 — the lint's job on a chaos schedule is to predict the
  // runtime outcome.
  v::FaultPlanDoc doc;
  doc.source = sc.source;
  doc.plan = s.faults;
  std::vector<FaultEvent> ordered = s.faults.scheduled;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  doc.plan.scheduled.clear();
  std::set<std::pair<int, int>> down_nodes, down_links;
  for (const auto& f : ordered) {
    const std::pair<int, int> key{f.a, f.b};
    const bool link =
        f.kind == FaultKind::kLinkFail || f.kind == FaultKind::kLinkHeal;
    auto& down = link ? down_links : down_nodes;
    if (f.kind == FaultKind::kIcapAbort ||
        (f.kind == FaultKind::kNodeFail || f.kind == FaultKind::kLinkFail
             ? down.insert(key).second
             : down.erase(key) > 0))
      doc.plan.scheduled.push_back(f);
  }

  v::check_fault_plan(doc, &sc, sink);
  v::Timeline::check(sc, &doc, sink, envelope);
}

ChaosSchedule shrink_schedule(
    const ChaosSchedule& schedule,
    const std::function<bool(const ChaosSchedule&)>& fails,
    const std::vector<std::pair<long long, long long>>& hint_windows) {
  if (!fails(schedule)) return schedule;
  ChaosSchedule cur = schedule;

  // Hint pass: one probe that keeps only what is relevant to the flagged
  // windows — ops scheduled inside one, fault events whose fail..heal
  // span intersects one (a heal survives with its fail, never alone; a
  // kept fail keeps its heal so the plan stays well-formed). When the
  // probe still fails, the greedy loop below starts from the much
  // smaller schedule.
  if (!hint_windows.empty()) {
    const auto in_window = [&](long long t) {
      for (const auto& [b, e] : hint_windows)
        if (t >= b && (e < 0 || t < e)) return true;
      return false;
    };
    const auto spans_window = [&](long long lo, long long hi) {
      for (const auto& [b, e] : hint_windows)
        if ((e < 0 || lo < e) && b < hi) return true;
      return false;
    };
    ChaosSchedule probe = cur;
    probe.ops.erase(
        std::remove_if(probe.ops.begin(), probe.ops.end(),
                       [&](const ChaosOp& op) {
                         return !in_window(static_cast<long long>(op.at));
                       }),
        probe.ops.end());
    const auto& ev = cur.faults.scheduled;
    std::vector<char> keep(ev.size(), 0);
    const auto is_fail = [](FaultKind k) {
      return k == FaultKind::kNodeFail || k == FaultKind::kLinkFail;
    };
    const auto heal_of = [](FaultKind k) {
      return k == FaultKind::kNodeFail ? FaultKind::kNodeHeal
                                       : FaultKind::kLinkHeal;
    };
    for (std::size_t i = 0; i < ev.size(); ++i) {
      if (ev[i].kind == FaultKind::kIcapAbort) {
        keep[i] = in_window(static_cast<long long>(ev[i].at));
        continue;
      }
      if (!is_fail(ev[i].kind)) continue;
      std::size_t heal = ev.size();
      for (std::size_t j = i + 1; j < ev.size(); ++j) {
        if (ev[j].kind == heal_of(ev[i].kind) && ev[j].a == ev[i].a &&
            ev[j].b == ev[i].b && ev[j].at >= ev[i].at) {
          heal = j;
          break;
        }
      }
      const long long lo = static_cast<long long>(ev[i].at);
      const long long hi = heal < ev.size()
                               ? static_cast<long long>(ev[heal].at)
                               : static_cast<long long>(cur.horizon);
      if (!spans_window(lo, hi == lo ? lo + 1 : hi)) continue;
      keep[i] = 1;
      if (heal < ev.size()) keep[heal] = 1;
    }
    probe.faults.scheduled.clear();
    for (std::size_t i = 0; i < ev.size(); ++i)
      if (keep[i]) probe.faults.scheduled.push_back(ev[i]);
    const bool smaller = probe.ops.size() < cur.ops.size() ||
                         probe.faults.scheduled.size() < ev.size();
    if (smaller && fails(probe)) cur = std::move(probe);
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t i = 0; i < cur.ops.size();) {
      ChaosSchedule t = cur;
      t.ops.erase(t.ops.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(t)) {
        cur = std::move(t);
        progress = true;
      } else {
        ++i;
      }
    }
    for (std::size_t i = 0; i < cur.faults.scheduled.size();) {
      ChaosSchedule t = cur;
      t.faults.scheduled.erase(t.faults.scheduled.begin() +
                               static_cast<std::ptrdiff_t>(i));
      if (fails(t)) {
        cur = std::move(t);
        progress = true;
      } else {
        ++i;
      }
    }
    for (double FaultPlan::*rate : kRateFields) {
      if (cur.faults.*rate == 0.0) continue;
      ChaosSchedule t = cur;
      t.faults.*rate = 0.0;
      if (fails(t)) {
        cur = std::move(t);
        progress = true;
      }
    }
  }
  return cur;
}

std::string serialize_schedule(const ChaosSchedule& s) {
  std::ostringstream out;
  out << "# recosim chaos schedule\n";
  out << "arch " << to_string(s.arch) << "\n";
  out << "seed " << s.seed << "\n";
  out << "horizon " << s.horizon << "\n";
  out << std::setprecision(17);
  for (std::size_t i = 0; i < std::size(kRateNames); ++i)
    if (s.faults.*kRateFields[i] != 0.0)
      out << "rate " << kRateNames[i] << " " << s.faults.*kRateFields[i]
          << "\n";
  for (const auto& e : s.faults.scheduled)
    out << "fault " << to_string(e.kind) << " " << e.at << " " << e.a << " "
        << e.b << "\n";
  for (const auto& op : s.ops)
    out << "op " << to_string(op.kind) << " " << op.at << " " << op.id << " "
        << op.old_id << " " << op.w << " " << op.h << "\n";
  return out.str();
}

std::optional<ChaosSchedule> parse_schedule(const std::string& text,
                                            const std::string& source,
                                            verify::DiagnosticSink& sink) {
  using verify::Args;
  // An op's module may be larger than the chaos device (its load then
  // rolls back), but not absurdly so.
  constexpr int kMaxOpSize = 1024;
  ChaosSchedule s;
  std::optional<ChaosArch> arch;  // required
  verify::FaultPlanDoc faults;
  const verify::Directive table[] = {
      {"arch", "arch <rmboc|buscom|dynoc|conochi>", [&](Args& a) {
         const auto name = a.word("architecture", kChaosArchNames);
         if (a.end()) arch = static_cast<ChaosArch>(name);
       }},
      {"seed", "seed <n>", [&](Args& a) {
         const auto seed = a.integer<std::uint64_t>(
             "value", 0, std::numeric_limits<std::uint64_t>::max());
         if (a.end()) s.seed = seed;
       }},
      {"horizon", "horizon <cycles>", [&](Args& a) {
         const auto horizon = static_cast<sim::Cycle>(a.cycle("cycles", 1));
         if (a.end()) s.horizon = horizon;
       }},
      verify::fault_directive(faults),
      verify::rate_directive(faults),
      {"op", "op <kind> <at> <id> <old_id> <w> <h>", [&](Args& a) {
         constexpr std::uint32_t kMaxId = fpga::kInvalidModule - 1;
         ChaosOp op;
         op.kind = static_cast<ChaosOp::Kind>(a.word("op kind", kOpKindNames));
         op.at = static_cast<sim::Cycle>(a.cycle("at"));
         op.id = a.integer<std::uint32_t>("id", 0, kMaxId);
         op.old_id = a.integer<std::uint32_t>("old_id", 0, kMaxId);
         op.w = a.integer<int>("w", 1, kMaxOpSize);
         op.h = a.integer<int>("h", 1, kMaxOpSize);
         if (a.end()) s.ops.push_back(op);
       }},
  };
  const std::size_t errors = sink.error_count();
  verify::read_lines(text, source, table, sink);
  if (!arch)
    sink.report("LNT001", verify::Severity::kError,
                verify::line_location(source, 1, 1),
                "schedule declares no architecture",
                "start the file with an 'arch <name>' line");
  if (sink.error_count() > errors) return std::nullopt;
  s.arch = *arch;
  s.faults = std::move(faults.plan);
  return s;
}

}  // namespace recosim::fault
