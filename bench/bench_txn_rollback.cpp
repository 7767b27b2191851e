// Transactional-reconfiguration benchmark: for each architecture, run the
// three interesting transaction paths on one live fixture — a plain load
// commit, a swap committed under reliable traffic (so the drain phase has
// real in-flight packets to wait for), and a swap forced to roll back by
// a permanently aborting ICAP — and report per-path cycle costs: total
// transaction latency, drain latency, and whether rollback restored the
// exact pre-transaction floorplan/attachment state.
//
// Output is one JSON document, printed to stdout and written to
// BENCH_txn.json (or argv[1]) so the perf trajectory is tracked in-repo.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "buscom/buscom.hpp"
#include "conochi/conochi.hpp"
#include "core/reconfig_manager.hpp"
#include "core/reconfig_txn.hpp"
#include "dynoc/dynoc.hpp"
#include "fault/injector.hpp"
#include "fault/reliable_channel.hpp"
#include "json/json.hpp"
#include "trajectory.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/kernel.hpp"

using namespace recosim;

namespace {

constexpr fpga::ModuleId kSrc = 1;  // traffic source, attached directly
constexpr fpga::ModuleId kM0 = 10;  // loaded, then swap victim
constexpr fpga::ModuleId kM1 = 11;  // swap replacement (committed)
constexpr fpga::ModuleId kM2 = 12;  // swap replacement (rolled back)

// Same small tile-reconfigurable device the chaos harness uses: ICAP
// transfers take hundreds of cycles, so the numbers are dominated by the
// transaction phases rather than a Virtex-class bitstream transfer.
fpga::Device small_device() {
  fpga::Device d;
  d.name = "txn_bench_small";
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

fpga::HardwareModule op_module(bool rect) {
  fpga::HardwareModule m;
  m.name = "payload";
  m.width_clbs = rect ? 2 : 2;
  m.height_clbs = rect ? 2 : 4;
  return m;
}

struct Fixture {
  std::unique_ptr<rmboc::Rmboc> rmboc;
  std::unique_ptr<buscom::Buscom> buscom;
  std::unique_ptr<dynoc::Dynoc> dynoc;
  std::unique_ptr<conochi::Conochi> conochi;
  core::CommArchitecture* arch = nullptr;
  core::PlacementStrategy strategy = core::PlacementStrategy::kSlots;
  bool rect = false;
  sim::Cycle send_gap = 100;
  fault::ReliableChannelConfig channel;
};

Fixture make_fixture(sim::Kernel& kernel, const std::string& name) {
  Fixture fx;
  if (name == "rmboc") {
    rmboc::RmbocConfig cfg;
    fx.rmboc = std::make_unique<rmboc::Rmboc>(kernel, cfg);
    fx.arch = fx.rmboc.get();
    fx.arch->attach(kSrc, unit_module());
    fx.send_gap = 200;
    fx.channel.base_timeout = 2'048;
    fx.channel.max_timeout = 16'384;
  } else if (name == "buscom") {
    buscom::BuscomConfig cfg;
    fx.buscom = std::make_unique<buscom::Buscom>(kernel, cfg);
    fx.arch = fx.buscom.get();
    fx.arch->attach(kSrc, unit_module());
    fx.send_gap = 600;
    fx.channel.base_timeout = 8'192;
    fx.channel.max_timeout = 65'536;
  } else if (name == "dynoc") {
    dynoc::DynocConfig cfg;
    cfg.width = cfg.height = 7;
    fx.dynoc = std::make_unique<dynoc::Dynoc>(kernel, cfg);
    fx.arch = fx.dynoc.get();
    fx.dynoc->attach_at(kSrc, unit_module(), {1, 1});
    fx.strategy = core::PlacementStrategy::kRectangles;
    fx.rect = true;
    fx.send_gap = 100;
  } else {  // conochi
    conochi::ConochiConfig cfg;
    cfg.grid_width = 8;
    cfg.grid_height = 8;
    fx.conochi = std::make_unique<conochi::Conochi>(kernel, cfg);
    for (const auto& p : {fpga::Point{1, 1}, fpga::Point{5, 1},
                          fpga::Point{1, 5}, fpga::Point{5, 5}})
      fx.conochi->add_switch(p);
    fx.conochi->lay_wire({2, 1}, {4, 1});
    fx.conochi->lay_wire({2, 5}, {4, 5});
    fx.conochi->lay_wire({1, 2}, {1, 4});
    fx.conochi->lay_wire({5, 2}, {5, 4});
    fx.arch = fx.conochi.get();
    fx.conochi->attach_at(kSrc, unit_module(), {1, 1});
    fx.strategy = core::PlacementStrategy::kRectangles;
    fx.rect = true;
    fx.send_gap = 150;
  }
  return fx;
}

/// Everything rollback promises to restore, in one comparable value.
struct StateSnapshot {
  std::map<fpga::ModuleId, fpga::Rect> regions;
  std::set<fpga::ModuleId> attached;
  bool operator==(const StateSnapshot&) const = default;
};

StateSnapshot capture(const core::ReconfigManager& mgr,
                      const core::CommArchitecture& arch) {
  StateSnapshot s;
  for (const auto& [id, rect] : mgr.floorplan().regions()) {
    s.regions.emplace(id, rect);
    if (arch.is_attached(id)) s.attached.insert(id);
  }
  return s;
}

struct Row {
  std::string scenario;
  bool committed = false;
  std::string failure;
  sim::Cycle total_cycles = 0;
  sim::Cycle drain_cycles = 0;
  bool forced_drain = false;
  // Rollback scenario only.
  std::optional<bool> state_restored;
  std::optional<std::size_t> restore_losses;
};

struct ArchReport {
  std::string arch;
  std::vector<Row> rows;
};

Row measure(sim::Kernel& kernel, core::ReconfigTxn& txn,
            fault::ReliableChannel* rc, fpga::ModuleId rx_at,
            const std::string& scenario, sim::Cycle budget = 400'000) {
  const sim::Cycle deadline = kernel.now() + budget;
  while (!txn.done() && kernel.now() < deadline) {
    kernel.run(1);
    if (rc)
      while (rc->receive(rx_at)) {
      }
  }
  Row r;
  r.scenario = scenario;
  r.committed = txn.committed();
  r.failure = core::to_string(txn.failure());
  r.total_cycles = txn.finished_at() - txn.started_at();
  r.drain_cycles = txn.drain_cycles();
  r.forced_drain = txn.forced_drain();
  return r;
}

ArchReport run_arch(const std::string& name) {
  sim::Kernel kernel;
  Fixture fx = make_fixture(kernel, name);
  core::CommArchitecture& arch = *fx.arch;

  core::ReconfigManager mgr(kernel, small_device(), /*system_clock_mhz=*/100.0,
                            fx.strategy, /*slot_count=*/4);
  mgr.set_icap_retry_policy(/*limit=*/2, /*base_backoff=*/64);

  fault::ReliableChannel rc(kernel, arch, fx.channel, sim::Rng(7));
  rc.add_endpoint(kSrc);
  for (fpga::ModuleId id : {kM0, kM1, kM2}) rc.add_endpoint(id);

  ArchReport report;
  report.arch = name;

  // 1. Plain load, no traffic: the floor cost of the transactional path
  //    (empty drain + ICAP transfer + commit checks).
  {
    core::TxnRequest req;
    req.kind = core::TxnKind::kLoad;
    req.id = kM0;
    req.module = op_module(fx.rect);
    core::ReconfigTxn txn(kernel, mgr, arch, req);
    report.rows.push_back(measure(kernel, txn, nullptr, kM0, "load_commit"));
  }

  // 2. Swap under load: stream reliable traffic at the victim, leave a
  //    burst un-ACKed, and start the swap — the drain phase must wait for
  //    the fabric and the channel's retransmission window to empty.
  {
    std::uint64_t tag = 0;
    auto send_one = [&] {
      proto::Packet p;
      p.src = kSrc;
      p.dst = kM0;
      p.payload_bytes = 16;
      p.tag = ++tag;
      if (!rc.send(p)) --tag;
    };
    const sim::Cycle warmup_end = kernel.now() + 40 * fx.send_gap;
    sim::Cycle next_send = kernel.now();
    while (kernel.now() < warmup_end) {
      if (kernel.now() >= next_send) {
        send_one();
        next_send = kernel.now() + fx.send_gap;
      }
      kernel.run(1);
      while (rc.receive(kM0)) {
      }
    }
    for (int i = 0; i < 8; ++i) send_one();  // leave a burst in flight

    core::TxnRequest req;
    req.kind = core::TxnKind::kSwap;
    req.old_id = kM0;
    req.id = kM1;
    req.module = op_module(fx.rect);
    core::ReconfigTxn txn(kernel, mgr, arch, req);
    txn.add_drain_source([&rc] { return rc.outstanding(); });
    report.rows.push_back(
        measure(kernel, txn, &rc, kM0, "swap_commit_under_traffic"));
  }

  // 3. Swap that cannot succeed: every ICAP transfer aborts, the retry
  //    budget exhausts, and the transaction rolls back. The interesting
  //    numbers are the time-to-verdict and whether the restore put the
  //    pre-transaction state back exactly.
  {
    fault::FaultPlan plan;
    plan.icap_abort_rate = 1.0;
    fault::FaultInjector injector(kernel, arch, plan, sim::Rng(13));
    injector.attach_icap(mgr.icap());

    const StateSnapshot before = capture(mgr, arch);
    core::TxnRequest req;
    req.kind = core::TxnKind::kSwap;
    req.old_id = kM1;
    req.id = kM2;
    req.module = op_module(fx.rect);
    core::ReconfigTxn txn(kernel, mgr, arch, req);
    Row r = measure(kernel, txn, &rc, kM1, "swap_rollback");
    r.state_restored = capture(mgr, arch) == before;
    r.restore_losses = txn.restore_losses().size();
    report.rows.push_back(r);
  }

  return report;
}

std::string to_json(const std::vector<ArchReport>& reports) {
  json::Writer w;
  w.begin_object()
      .field("bench", "txn_rollback")
      .key("architectures").begin_array();
  for (const auto& rep : reports) {
    w.begin_object().field("arch", rep.arch).key("scenarios").begin_array();
    for (const auto& r : rep.rows) {
      w.begin_object()
          .field("scenario", r.scenario)
          .field("committed", r.committed)
          .field("failure", r.failure)
          .field("total_cycles", r.total_cycles)
          .field("drain_cycles", r.drain_cycles)
          .field("forced_drain", r.forced_drain);
      if (r.state_restored)
        w.field("state_restored", *r.state_restored)
            .field("restore_losses", *r.restore_losses);
      w.end();
    }
    w.end().end();
  }
  w.end().end();
  return w.str() + "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<ArchReport> reports;
  for (const char* arch : {"rmboc", "buscom", "dynoc", "conochi"})
    reports.push_back(run_arch(arch));

  bench::write_trajectory(to_json(reports), argc > 1 ? argv[1] : "BENCH_txn.json");
  return 0;
}
