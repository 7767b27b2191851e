// Recovery-orchestration benchmark: for each architecture, run repeated
// fail -> detect -> recover -> heal episodes against the self-healing
// layer (FailureDetector + RecoveryOrchestrator) and report the recovery
// SLOs. The benchmark knows the ground-truth injection cycle — the
// detector does not (it sees only symptoms) — so time-to-detect is
// measured from the actual failure, not from the first symptom:
//
//   TTD = confirmed_at - inject_cycle      (detection latency)
//   TTR = resolved_at  - confirmed_at      (recovery latency)
//
// Per architecture the victim is a managed module whose own fabric
// resource (cross-point / router / switch) dies, forcing the ladder past
// rerouting into evacuation; BUS-COM, which has no relocation answer to a
// total bus blackout, exercises the degraded-stable path instead.
//
// Output is one JSON document, printed to stdout and written to
// BENCH_health.json (or argv[1]) so the SLO trajectory is tracked
// in-repo.

#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buscom/buscom.hpp"
#include "conochi/conochi.hpp"
#include "core/reconfig_manager.hpp"
#include "dynoc/dynoc.hpp"
#include "fault/reliable_channel.hpp"
#include "health/health.hpp"
#include "json/json.hpp"
#include "trajectory.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/kernel.hpp"

using namespace recosim;

namespace {

constexpr fpga::ModuleId kSrc = 1;     // attached directly
constexpr fpga::ModuleId kSink = 2;    // attached directly
constexpr fpga::ModuleId kVictim = 3;  // managed (evacuable) where possible

// Same small tile-reconfigurable device the chaos harness uses, so the
// evacuation numbers are dominated by the orchestration phases rather
// than a Virtex-class bitstream transfer.
fpga::Device small_device() {
  fpga::Device d;
  d.name = "health_bench_small";
  d.clb_columns = 24;
  d.clb_rows = 16;
  d.granularity = fpga::ReconfigGranularity::kTile;
  d.frames_per_clb_column = 4;
  d.bits_per_frame = 256;
  d.icap_width_bits = 32;
  d.icap_clock_mhz = 100.0;
  return d;
}

fpga::HardwareModule unit_module() {
  fpga::HardwareModule m;
  m.width_clbs = 1;
  m.height_clbs = 1;
  return m;
}

/// One continuous reliable stream; pump() retries the same tag until
/// send() accepts it, so dead flows and admission shedding stall the
/// stream instead of losing tags.
struct Stream {
  Stream(fault::ReliableChannel& channel, fpga::ModuleId from,
         fpga::ModuleId to, sim::Cycle send_gap)
      : rc(channel), src(from), dst(to), gap(send_gap) {}

  fault::ReliableChannel& rc;
  fpga::ModuleId src;
  fpga::ModuleId dst;
  sim::Cycle gap;
  std::uint64_t accepted = 0;
  std::uint64_t next_tag = 1;
  sim::Cycle next_send = 0;
  std::map<std::uint64_t, int> got;

  void pump(sim::Kernel& kernel) {
    if (kernel.now() >= next_send) {
      proto::Packet p;
      p.src = src;
      p.dst = dst;
      p.payload_bytes = 16;
      p.tag = next_tag;
      if (rc.send(p)) {
        ++accepted;
        ++next_tag;
      }
      next_send = kernel.now() + gap;
    }
    while (auto p = rc.receive(dst)) ++got[p->tag];
  }
};

bool advance(sim::Kernel& kernel, std::vector<Stream*>& streams,
             sim::Cycle budget, const std::function<bool()>& done) {
  const sim::Cycle end = kernel.now() + budget;
  while (kernel.now() < end) {
    if (done()) return true;
    for (Stream* s : streams) s->pump(kernel);
    kernel.run(1);
    for (Stream* s : streams) s->pump(kernel);
  }
  return done();
}

struct Episode {
  sim::Cycle inject_at = 0;
  double ttd = 0;  // confirmed_at - inject_at
  double ttr = 0;  // resolved_at - confirmed_at
  int rungs = 0;
  bool evacuated = false;
  std::string outcome;
  std::uint64_t packets_lost = 0;
  bool ok = false;
};

struct ArchReport {
  std::string arch;
  std::vector<Episode> episodes;
  std::uint64_t incidents = 0;
  std::uint64_t evacuations = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
};

/// Drive `episodes` fail/heal cycles. `fail` returns the injection cycle's
/// ground truth (and mutates the architecture); `heal` undoes it. The
/// victim's incident for each episode supplies TTD/TTR.
void run_episodes(sim::Kernel& kernel, std::vector<Stream*> streams,
                  health::FailureDetector& det,
                  health::RecoveryOrchestrator& orch,
                  const std::function<void()>& fail,
                  const std::function<void()>& heal, int episodes,
                  sim::Cycle phase_budget, ArchReport& out) {
  // Warm-up: the streams must be delivering before the first failure.
  advance(kernel, streams, phase_budget, [&] {
    for (const Stream* s : streams)
      if (s->got.size() < 3) return false;
    return true;
  });
  for (int ep = 0; ep < episodes; ++ep) {
    const std::size_t incidents_before = orch.incidents().size();
    Episode e;
    e.inject_at = kernel.now();
    fail();
    const bool resolved = advance(kernel, streams, phase_budget, [&] {
      return orch.incidents().size() > incidents_before && orch.idle();
    });
    heal();
    const bool quiet = advance(kernel, streams, phase_budget, [&] {
      if (!det.confirmed().empty() || !orch.shed_modules().empty() ||
          !orch.idle())
        return false;
      for (const Stream* s : streams)
        if (s->got.size() != static_cast<std::size_t>(s->accepted))
          return false;
      return streams.front()->rc.outstanding() == 0;
    });
    for (std::size_t i = incidents_before; i < orch.incidents().size();
         ++i) {
      const health::Incident& inc = orch.incidents()[i];
      if (!(inc.subject == health::Subject::of_module(kVictim)) &&
          !(inc.subject == health::Subject::of_module(kSink)))
        continue;
      e.ttd = static_cast<double>(inc.confirmed_at - e.inject_at);
      e.ttr = static_cast<double>(inc.resolved_at - inc.confirmed_at);
      e.rungs = inc.rungs_climbed;
      e.evacuated = inc.evacuated;
      e.outcome = to_string(inc.outcome);
      e.packets_lost = inc.packets_lost;
      e.ok = resolved && quiet &&
             inc.outcome != health::IncidentOutcome::kOpen;
      break;
    }
    out.episodes.push_back(e);
    // Cool-down: a few detector polls with healthy fabric keeps episodes
    // independent.
    advance(kernel, streams, 2'000, [] { return false; });
  }
  out.incidents = orch.incidents().size();
  out.evacuations = orch.stats().counter_value("evacuations");
  const fault::ReliableChannel& rc = streams.front()->rc;
  out.delivered = rc.delivered_total();
  out.duplicates = rc.stats().counter_value("duplicates_dropped");
}

health::OrchestratorConfig orchestrator_config(health::FailureDetector& det) {
  health::OrchestratorConfig oc;
  oc.evac_txn.drain_timeout = 4'000;
  oc.evac_txn.drain_stall_deadline = 1'000;
  oc.evac_txn.txn_timeout = 25'000;
  oc.evac_txn.on_drain_escalation =
      [&det](const std::vector<fpga::ModuleId>& m) {
        det.observe_drain_escalation(m);
      };
  return oc;
}

bool wait_loaded(sim::Kernel& kernel, bool& loaded) {
  const sim::Cycle end = kernel.now() + 100'000;
  while (!loaded && kernel.now() < end) kernel.run(1);
  return loaded;
}

ArchReport bench_rmboc(int episodes) {
  ArchReport rep;
  rep.arch = "rmboc";
  sim::Kernel kernel;
  rmboc::Rmboc arch(kernel, rmboc::RmbocConfig{});
  arch.attach(kSrc, unit_module());
  arch.attach(kSink, unit_module());
  core::ReconfigManager mgr(kernel, small_device(), 100.0,
                            core::PlacementStrategy::kSlots, 4);
  fault::ReliableChannelConfig ccfg;
  ccfg.base_timeout = 1'024;
  ccfg.max_timeout = 8'192;
  ccfg.max_retries = 3;
  ccfg.max_send_rejects = 12;
  fault::ReliableChannel rc(kernel, arch, ccfg, sim::Rng(41));
  rc.add_endpoint(kSrc);
  rc.add_endpoint(kSink);
  rc.add_endpoint(kVictim);
  health::FailureDetector det(kernel, arch);
  rc.set_event_hook(
      [&](const fault::ChannelEvent& ev) { det.observe_channel_event(ev); });
  health::RecoveryOrchestrator orch(kernel, arch, det, &rc, &mgr,
                                    orchestrator_config(det));
  bool loaded = false;
  mgr.load(arch, kVictim, unit_module(),
           [&](fpga::ModuleId, bool ok) { loaded = ok; });
  if (!wait_loaded(kernel, loaded)) return rep;
  Stream in(rc, kSrc, kVictim, 200);
  Stream out(rc, kVictim, kSink, 200);
  int failed_slot = -1;
  run_episodes(
      kernel, {&in, &out}, det, orch,
      [&] {
        failed_slot = arch.slot_of(kVictim).value_or(-1);
        arch.fail_node(failed_slot);
      },
      [&] { arch.heal_node(failed_slot); }, episodes, 400'000, rep);
  return rep;
}

ArchReport bench_buscom(int episodes) {
  ArchReport rep;
  rep.arch = "buscom";
  sim::Kernel kernel;
  buscom::Buscom arch(kernel, buscom::BuscomConfig{});
  arch.attach(kSrc, unit_module());
  arch.attach(kSink, unit_module());
  fault::ReliableChannelConfig ccfg;
  ccfg.base_timeout = 8'192;
  ccfg.max_timeout = 16'384;
  ccfg.max_retries = 2;
  fault::ReliableChannel rc(kernel, arch, ccfg, sim::Rng(43));
  rc.add_endpoint(kSrc);
  rc.add_endpoint(kSink);
  health::FailureDetector det(kernel, arch);
  rc.set_event_hook(
      [&](const fault::ChannelEvent& ev) { det.observe_channel_event(ev); });
  // No manager: a bus blackout has no relocation answer, the ladder
  // bottoms out in degraded-stable until the heal.
  health::RecoveryOrchestrator orch(kernel, arch, det, &rc, nullptr,
                                    orchestrator_config(det));
  Stream s(rc, kSrc, kSink, 600);
  run_episodes(
      kernel, {&s}, det, orch,
      [&] {
        for (int bus = 0; bus < 4; ++bus) arch.fail_node(bus);
      },
      [&] {
        for (int bus = 0; bus < 4; ++bus) arch.heal_node(bus);
      },
      episodes, 1'500'000, rep);
  return rep;
}

ArchReport bench_dynoc(int episodes) {
  ArchReport rep;
  rep.arch = "dynoc";
  sim::Kernel kernel;
  dynoc::DynocConfig cfg;
  cfg.width = cfg.height = 7;
  dynoc::Dynoc arch(kernel, cfg);
  arch.attach_at(kSrc, unit_module(), {1, 1});
  arch.attach_at(kSink, unit_module(), {5, 1});
  core::ReconfigManager mgr(kernel, small_device(), 100.0,
                            core::PlacementStrategy::kRectangles);
  fault::ReliableChannelConfig ccfg;
  ccfg.base_timeout = 512;
  ccfg.max_timeout = 4'096;
  ccfg.max_retries = 3;
  ccfg.max_send_rejects = 16;
  fault::ReliableChannel rc(kernel, arch, ccfg, sim::Rng(47));
  rc.add_endpoint(kSrc);
  rc.add_endpoint(kSink);
  rc.add_endpoint(kVictim);
  health::FailureDetector det(kernel, arch);
  rc.set_event_hook(
      [&](const fault::ChannelEvent& ev) { det.observe_channel_event(ev); });
  health::RecoveryOrchestrator orch(kernel, arch, det, &rc, &mgr,
                                    orchestrator_config(det));
  bool loaded = false;
  mgr.load(arch, kVictim, unit_module(),
           [&](fpga::ModuleId, bool ok) { loaded = ok; });
  if (!wait_loaded(kernel, loaded)) return rep;
  Stream in(rc, kSrc, kVictim, 100);
  Stream out(rc, kVictim, kSink, 100);
  fpga::Point failed{-1, -1};
  run_episodes(
      kernel, {&in, &out}, det, orch,
      [&] {
        const auto r = arch.region_of(kVictim);
        failed = r ? fpga::Point{r->x, r->y} : fpga::Point{-1, -1};
        arch.fail_node(failed.x, failed.y);
      },
      [&] { arch.heal_node(failed.x, failed.y); }, episodes, 400'000, rep);
  return rep;
}

ArchReport bench_conochi(int episodes) {
  ArchReport rep;
  rep.arch = "conochi";
  sim::Kernel kernel;
  conochi::ConochiConfig cfg;
  cfg.grid_width = 8;
  cfg.grid_height = 8;
  conochi::Conochi arch(kernel, cfg);
  arch.add_switch({1, 1});
  arch.add_switch({5, 1});
  arch.add_switch({1, 5});
  arch.add_switch({5, 5});
  arch.lay_wire({2, 1}, {4, 1});
  arch.lay_wire({2, 5}, {4, 5});
  arch.lay_wire({1, 2}, {1, 4});
  arch.lay_wire({5, 2}, {5, 4});
  arch.attach_at(kSrc, unit_module(), {1, 1});
  arch.attach_at(kSink, unit_module(), {5, 5});
  // Plug the endpoints' spare ports so the victim lands on a switch of
  // its own.
  arch.attach_at(8, unit_module(), {1, 1});
  arch.attach_at(9, unit_module(), {5, 5});
  core::ReconfigManager mgr(kernel, small_device(), 100.0,
                            core::PlacementStrategy::kRectangles);
  fault::ReliableChannelConfig ccfg;
  ccfg.base_timeout = 512;
  ccfg.max_timeout = 4'096;
  ccfg.max_retries = 3;
  ccfg.max_send_rejects = 16;
  fault::ReliableChannel rc(kernel, arch, ccfg, sim::Rng(53));
  rc.add_endpoint(kSrc);
  rc.add_endpoint(kSink);
  rc.add_endpoint(kVictim);
  health::FailureDetector det(kernel, arch);
  rc.set_event_hook(
      [&](const fault::ChannelEvent& ev) { det.observe_channel_event(ev); });
  health::RecoveryOrchestrator orch(kernel, arch, det, &rc, &mgr,
                                    orchestrator_config(det));
  bool loaded = false;
  mgr.load(arch, kVictim, unit_module(),
           [&](fpga::ModuleId, bool ok) { loaded = ok; });
  if (!wait_loaded(kernel, loaded)) return rep;
  Stream in(rc, kSrc, kVictim, 150);
  Stream out(rc, kVictim, kSink, 150);
  fpga::Point failed{-1, -1};
  run_episodes(
      kernel, {&in, &out}, det, orch,
      [&] {
        failed = arch.switch_of(kVictim).value_or(fpga::Point{-1, -1});
        arch.fail_node(failed.x, failed.y);
      },
      [&] { arch.heal_node(failed.x, failed.y); }, episodes, 400'000, rep);
  return rep;
}

std::string to_json(const std::vector<ArchReport>& reports) {
  json::Writer w;
  w.begin_object()
      .field("bench", "recovery_orchestration")
      .key("architectures").begin_array();
  for (const ArchReport& r : reports) {
    std::vector<double> ttd, ttr, rungs;
    std::uint64_t lost = 0;
    int evacuated = 0, recovered = 0, degraded = 0, failed = 0;
    for (const Episode& e : r.episodes) {
      if (!e.ok) {
        ++failed;
        continue;
      }
      ttd.push_back(e.ttd);
      ttr.push_back(e.ttr);
      rungs.push_back(static_cast<double>(e.rungs));
      lost += e.packets_lost;
      if (e.evacuated) ++evacuated;
      if (e.outcome == "recovered") ++recovered;
      if (e.outcome == "degraded-stable") ++degraded;
    }
    w.begin_object()
        .field("arch", r.arch)
        .field("episodes", r.episodes.size())
        .field("unresolved", failed)
        .field("recovered", recovered)
        .field("degraded_stable", degraded)
        .field("evacuated", evacuated)
        .field("evacuations", r.evacuations)
        .field("incidents", r.incidents)
        .field("ttd_p50", health::percentile(ttd, 0.5))
        .field("ttd_p99", health::percentile(ttd, 0.99))
        .field("ttr_p50", health::percentile(ttr, 0.5))
        .field("ttr_p99", health::percentile(ttr, 0.99))
        .field("rungs_p50", health::percentile(rungs, 0.5))
        .field("packets_lost", lost)
        .field("delivered", r.delivered)
        .field("duplicates_dropped", r.duplicates)
        .end();
  }
  w.end().end();
  return w.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kEpisodes = 12;
  std::vector<ArchReport> reports;
  reports.push_back(bench_rmboc(kEpisodes));
  reports.push_back(bench_buscom(kEpisodes));
  reports.push_back(bench_dynoc(kEpisodes));
  reports.push_back(bench_conochi(kEpisodes));

  bench::write_trajectory(to_json(reports),
                          argc > 1 ? argv[1] : "BENCH_health.json");

  // Smoke criterion for CI: every episode must have resolved.
  for (const auto& r : reports)
    for (const auto& e : r.episodes)
      if (!e.ok) {
        std::cerr << r.arch << ": unresolved episode at cycle "
                  << e.inject_at << "\n";
        return 1;
      }
  return 0;
}
