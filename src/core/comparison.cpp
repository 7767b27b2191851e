#include "core/comparison.hpp"

#include <cassert>

#include "core/area_model.hpp"
#include "core/traffic.hpp"

namespace recosim::core {

namespace {
/// Unit module "m<index>" with a `width_bits`-wide port.
fpga::HardwareModule unit_module(int index, unsigned width_bits) {
  fpga::HardwareModule m;
  m.name = std::string("m").append(std::to_string(index));
  m.width_clbs = 1;
  m.height_clbs = 1;
  m.port_width_bits = width_bits;
  return m;
}
}  // namespace

MinimalSystem make_minimal_rmboc(int modules, int buses,
                                 unsigned width_bits) {
  MinimalSystem s;
  s.kernel = std::make_unique<sim::Kernel>();
  rmboc::RmbocConfig cfg;
  cfg.slots = modules;
  cfg.buses = buses;
  cfg.link_width_bits = width_bits;
  auto arch = std::make_unique<rmboc::Rmboc>(*s.kernel, cfg);
  for (int i = 1; i <= modules; ++i) {
    const auto id = static_cast<fpga::ModuleId>(i);
    [[maybe_unused]] bool ok =
        arch->attach(id, unit_module(i, width_bits));
    assert(ok);
    s.modules.push_back(id);
  }
  s.arch = std::move(arch);
  return s;
}

MinimalSystem make_minimal_buscom(int modules, int buses, unsigned in_bits,
                                  unsigned out_bits) {
  MinimalSystem s;
  s.kernel = std::make_unique<sim::Kernel>();
  buscom::BuscomConfig cfg;
  cfg.buses = buses;
  cfg.max_modules = modules;
  cfg.in_width_bits = in_bits;
  cfg.out_width_bits = out_bits;
  auto arch = std::make_unique<buscom::Buscom>(*s.kernel, cfg);
  for (int i = 1; i <= modules; ++i) {
    const auto id = static_cast<fpga::ModuleId>(i);
    [[maybe_unused]] bool ok =
        arch->attach(id, unit_module(i, in_bits));
    assert(ok);
    s.modules.push_back(id);
  }
  s.arch = std::move(arch);
  return s;
}

MinimalSystem make_minimal_dynoc(int modules, int array,
                                 unsigned width_bits) {
  MinimalSystem s;
  s.kernel = std::make_unique<sim::Kernel>();
  dynoc::DynocConfig cfg;
  cfg.width = array;
  cfg.height = array;
  cfg.link_width_bits = width_bits;
  auto arch = std::make_unique<dynoc::Dynoc>(*s.kernel, cfg);
  for (int i = 1; i <= modules; ++i) {
    const auto id = static_cast<fpga::ModuleId>(i);
    [[maybe_unused]] bool ok =
        arch->attach(id, unit_module(i, width_bits));
    assert(ok);
    s.modules.push_back(id);
  }
  s.arch = std::move(arch);
  return s;
}

MinimalSystem make_minimal_conochi(int modules, unsigned width_bits) {
  MinimalSystem s;
  s.kernel = std::make_unique<sim::Kernel>();
  conochi::ConochiConfig cfg;
  // A row of switches with two wire tiles between neighbours, one switch
  // per module (CoNoChi's per-module scaling, paper §4.1).
  cfg.grid_width = 3 * modules + 1;
  cfg.grid_height = 3;
  cfg.link_width_bits = width_bits;
  auto arch = std::make_unique<conochi::Conochi>(*s.kernel, cfg);
  for (int i = 0; i < modules; ++i) {
    const fpga::Point pos{1 + 3 * i, 1};
    [[maybe_unused]] bool ok = arch->add_switch(pos);
    assert(ok);
    if (i > 0) {
      [[maybe_unused]] bool wired =
          arch->lay_wire({pos.x - 2, 1}, {pos.x - 1, 1});
      assert(wired);
    }
  }
  for (int i = 1; i <= modules; ++i) {
    const auto id = static_cast<fpga::ModuleId>(i);
    [[maybe_unused]] bool ok = arch->attach_at(
        id, unit_module(i, width_bits),
        {1 + 3 * (i - 1), 1});
    assert(ok);
    s.modules.push_back(id);
  }
  s.arch = std::move(arch);
  return s;
}

MinimalSystem make_minimal_hierbus(int modules, unsigned width_bits) {
  MinimalSystem s;
  s.kernel = std::make_unique<sim::Kernel>();
  hierbus::HierBusConfig cfg;
  cfg.system_width_bits = width_bits;
  cfg.peripheral_width_bits = width_bits;
  auto arch = std::make_unique<hierbus::HierBus>(*s.kernel, cfg);
  for (int i = 1; i <= modules; ++i) {
    const auto id = static_cast<fpga::ModuleId>(i);
    [[maybe_unused]] bool ok =
        arch->attach(id, unit_module(i, width_bits));
    assert(ok);
    s.modules.push_back(id);
  }
  s.arch = std::move(arch);
  return s;
}

ArchResult run_workload(MinimalSystem system, const WorkloadConfig& wl) {
  auto& kernel = *system.kernel;
  auto& arch = *system.arch;
  sim::Rng root(wl.seed);

  std::vector<std::unique_ptr<TrafficSource>> sources;
  for (fpga::ModuleId src : system.modules) {
    std::vector<fpga::ModuleId> others;
    for (fpga::ModuleId m : system.modules)
      if (m != src) others.push_back(m);
    DestinationPolicy dst =
        wl.hotspot && src != system.modules.front()
            ? DestinationPolicy::fixed(system.modules.front())
            : DestinationPolicy::uniform(others);
    sources.push_back(std::make_unique<TrafficSource>(
        kernel, arch, src, std::move(dst), SizePolicy::fixed(wl.packet_bytes),
        InjectionPolicy::bernoulli(wl.injection_rate), root.fork(),
        "src" + std::to_string(src)));
  }
  TrafficSink sink(kernel, arch, system.modules);

  kernel.run(wl.cycles);
  // Let in-flight traffic drain.
  for (auto& s : sources) s->stop();
  kernel.run(20'000);

  ArchResult r;
  r.name = arch.name();
  for (auto& s : sources) r.generated += s->generated();
  r.delivered = sink.received_total();
  r.mean_latency_cycles = arch.mean_latency_cycles();
  r.p99_latency_cycles = sink.latency_histogram().quantile(0.99);
  r.throughput_bytes_per_cycle =
      static_cast<double>(sink.received_bytes()) /
      static_cast<double>(wl.cycles);
  std::uint64_t accepted = 0;
  for (auto& s : sources) accepted += s->accepted();
  r.accepted_fraction =
      r.generated ? static_cast<double>(accepted) /
                        static_cast<double>(r.generated)
                  : 1.0;
  r.d_max = arch.max_parallelism();

  const unsigned width = arch.link_width_bits();
  if (auto* p = dynamic_cast<rmboc::Rmboc*>(&arch)) {
    r.fmax_mhz = area::rmboc_fmax_mhz(width);
    r.slices = area::rmboc_slices(*p);
  } else if (auto* p2 = dynamic_cast<buscom::Buscom*>(&arch)) {
    r.fmax_mhz = area::buscom_fmax_mhz(width);
    r.slices = area::buscom_slices(*p2, /*include_arbiter=*/true);
  } else if (auto* p3 = dynamic_cast<dynoc::Dynoc*>(&arch)) {
    r.fmax_mhz = area::dynoc_fmax_mhz(width);
    r.slices = area::dynoc_slices(*p3);
  } else if (auto* p4 = dynamic_cast<conochi::Conochi*>(&arch)) {
    r.fmax_mhz = area::conochi_fmax_mhz(width);
    r.slices = area::conochi_slices(*p4, /*include_control=*/true);
  }
  if (r.fmax_mhz > 0.0)
    r.mean_latency_us = r.mean_latency_cycles / r.fmax_mhz;
  return r;
}

std::vector<ArchResult> run_all_minimal(const WorkloadConfig& wl,
                                        int modules) {
  std::vector<ArchResult> out;
  out.push_back(run_workload(make_minimal_rmboc(modules), wl));
  out.push_back(run_workload(make_minimal_buscom(modules), wl));
  out.push_back(run_workload(make_minimal_dynoc(
                                 modules, modules <= 4 ? 5 : modules + 2),
                             wl));
  out.push_back(run_workload(make_minimal_conochi(modules), wl));
  return out;
}

}  // namespace recosim::core
