// Fault-recovery benchmark: for each architecture, stream reliable
// traffic through three equal phases — before a hard fault, during the
// degraded window, and after the element heals — and report per-phase
// throughput, fabric latency, and the retransmission cost of recovery.
// Output is a single JSON document, printed to stdout and written to
// BENCH_fault.json (or argv[1]) so the perf trajectory is tracked in-repo.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "buscom/buscom.hpp"
#include "conochi/conochi.hpp"
#include "dynoc/dynoc.hpp"
#include "fault/reliable_channel.hpp"
#include "json/json.hpp"
#include "trajectory.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/kernel.hpp"

using namespace recosim;

namespace {

struct PhaseMetrics {
  std::string phase;
  std::uint64_t delivered = 0;       // unique packets to the application
  double throughput_kcycle = 0.0;    // delivered per 1000 cycles
  double mean_latency_cycles = 0.0;  // fabric latency of the phase's packets
  std::uint64_t retransmissions = 0;
};

struct ArchResult {
  std::string arch;
  std::string fault;
  sim::Cycle phase_cycles = 0;
  std::vector<PhaseMetrics> phases;
};

struct Probe {
  std::uint64_t delivered = 0;
  double latency_sum = 0.0;
  std::uint64_t latency_count = 0;
  std::uint64_t retransmissions = 0;
};

Probe snapshot(const core::CommArchitecture& arch,
               const fault::ReliableChannel& rc) {
  Probe p;
  p.delivered = rc.delivered_total();
  const auto& stats = arch.stats().stats();
  if (auto it = stats.find("latency_cycles"); it != stats.end()) {
    p.latency_sum = it->second.mean() * static_cast<double>(it->second.count());
    p.latency_count = it->second.count();
  }
  p.retransmissions = rc.stats().counter_value("retransmissions");
  return p;
}

PhaseMetrics diff(const std::string& phase, const Probe& a, const Probe& b,
                  sim::Cycle cycles) {
  PhaseMetrics m;
  m.phase = phase;
  m.delivered = b.delivered - a.delivered;
  m.throughput_kcycle =
      cycles ? static_cast<double>(m.delivered) * 1000.0 / cycles : 0.0;
  const std::uint64_t n = b.latency_count - a.latency_count;
  m.mean_latency_cycles =
      n ? (b.latency_sum - a.latency_sum) / static_cast<double>(n) : 0.0;
  m.retransmissions = b.retransmissions - a.retransmissions;
  return m;
}

// Stream src -> dst continuously across before / during / after phases of
// equal length, injecting the fault at the first boundary and healing it
// at the second.
ArchResult run_scenario(const std::string& arch_name,
                        const std::string& fault_desc, sim::Kernel& kernel,
                        core::CommArchitecture& arch, fpga::ModuleId src,
                        fpga::ModuleId dst, sim::Cycle send_gap,
                        sim::Cycle phase_cycles,
                        fault::ReliableChannelConfig ccfg,
                        const std::function<void()>& inject,
                        const std::function<void()>& heal) {
  fault::ReliableChannel rc(kernel, arch, ccfg, sim::Rng(7));
  rc.add_endpoint(src);
  rc.add_endpoint(dst);

  ArchResult result;
  result.arch = arch_name;
  result.fault = fault_desc;
  result.phase_cycles = phase_cycles;

  std::uint64_t tag = 0;
  sim::Cycle next_send = 0;
  std::vector<Probe> probes{snapshot(arch, rc)};
  const char* names[3] = {"before", "during", "after"};
  for (int phase = 0; phase < 3; ++phase) {
    if (phase == 1) inject();
    if (phase == 2) heal();
    const sim::Cycle end = kernel.now() + phase_cycles;
    while (kernel.now() < end) {
      if (kernel.now() >= next_send) {
        proto::Packet p;
        p.src = src;
        p.dst = dst;
        p.payload_bytes = 16;
        p.tag = ++tag;
        if (rc.send(p))
          next_send = kernel.now() + send_gap;
        else
          --tag;  // window full or flow paused: retry next cycle
      }
      kernel.run(1);
      while (rc.receive(dst)) {
      }
    }
    probes.push_back(snapshot(arch, rc));
  }
  for (int phase = 0; phase < 3; ++phase)
    result.phases.push_back(diff(names[phase], probes[phase],
                                 probes[phase + 1], phase_cycles));
  return result;
}

std::string to_json(const std::vector<ArchResult>& results) {
  json::Writer w;
  w.begin_object()
      .field("bench", "fault_recovery")
      .key("architectures").begin_array();
  for (const auto& r : results) {
    w.begin_object()
        .field("arch", r.arch)
        .field("fault", r.fault)
        .field("phase_cycles", r.phase_cycles)
        .key("phases").begin_array();
    for (const auto& p : r.phases) {
      w.begin_object()
          .field("phase", p.phase)
          .field("delivered", p.delivered)
          .field("throughput_per_kcycle", p.throughput_kcycle)
          .field("mean_latency_cycles", p.mean_latency_cycles)
          .field("retransmissions", p.retransmissions)
          .end();
    }
    w.end().end();
  }
  w.end().end();
  return w.str() + "\n";
}

fpga::HardwareModule unit_module() {
  fpga::HardwareModule m;
  m.width_clbs = 1;
  m.height_clbs = 1;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<ArchResult> results;

  {  // DyNoC: a router on the streaming path fails and heals.
    sim::Kernel kernel;
    dynoc::DynocConfig cfg;
    cfg.width = cfg.height = 7;
    dynoc::Dynoc arch(kernel, cfg);
    arch.attach_at(1, unit_module(), {1, 1});
    arch.attach_at(2, unit_module(), {5, 1});
    results.push_back(run_scenario(
        "DyNoC", "router (3,1) hard failure", kernel, arch, 1, 2, 100,
        10'000, fault::ReliableChannelConfig{},
        [&] { arch.fail_node(3, 1); }, [&] { arch.heal_node(3, 1); }));
  }

  {  // CoNoChi: one switch of a redundant ring fails and heals.
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
    arch.attach_at(1, unit_module(), {1, 1});
    arch.attach_at(2, unit_module(), {5, 5});
    results.push_back(run_scenario(
        "CoNoChi", "switch (5,1) hard failure", kernel, arch, 1, 2, 150,
        15'000, fault::ReliableChannelConfig{},
        [&] { arch.fail_node(5, 1); }, [&] { arch.heal_node(5, 1); }));
  }

  {  // RMBoC: a bus lane of the middle segment fails and heals.
    sim::Kernel kernel;
    rmboc::Rmboc arch(kernel, rmboc::RmbocConfig{});
    fpga::HardwareModule m;
    for (fpga::ModuleId id : {1u, 2u, 3u, 4u}) arch.attach(id, m);
    fault::ReliableChannelConfig ccfg;
    ccfg.base_timeout = 2'048;
    ccfg.max_timeout = 16'384;
    results.push_back(run_scenario(
        "RMBoC", "segment 1 / bus 0 lane failure", kernel, arch, 1, 4, 200,
        20'000, ccfg, [&] { arch.fail_link(1, 0); },
        [&] { arch.heal_link(1, 0); }));
  }

  {  // BUS-COM: a whole bus fails; static slots move to the survivors.
    sim::Kernel kernel;
    buscom::Buscom arch(kernel, buscom::BuscomConfig{});
    fpga::HardwareModule m;
    arch.attach(1, m);
    arch.attach(2, m);
    fault::ReliableChannelConfig ccfg;
    ccfg.base_timeout = 8'192;
    ccfg.max_timeout = 65'536;
    results.push_back(run_scenario("BUS-COM", "bus 0 hard failure", kernel,
                                   arch, 1, 2, 600, 60'000, ccfg,
                                   [&] { arch.fail_node(0); },
                                   [&] { arch.heal_node(0); }));
  }

  bench::write_trajectory(to_json(results),
                          argc > 1 ? argv[1] : "BENCH_fault.json");
  return 0;
}
