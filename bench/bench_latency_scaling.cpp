// Reproduces the paper's §4.2 latency claims:
//  * established-path latency: buses l_p = 1; NoC latency scales with the
//    number of switches on the path;
//  * DyNoC's path latency also grows with module *size* (more routers to
//    pass), while CoNoChi's only grows with module *count*.

#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "core/comparison.hpp"
#include "core/report.hpp"
#include "dynoc/dynoc.hpp"
#include "farm/farm.hpp"

using namespace recosim;
using namespace recosim::core;

namespace {

// Each sweep point builds its own systems, so the three tables' points are
// independent simulations and run on the farm; per-index result slots keep
// the assembled tables byte-identical to the serial sweep.

struct PathPoint {
  sim::Cycle rmboc = 0, buscom = 0, dynoc = 0, conochi = 0;
};

PathPoint run_path_point(int m) {
  auto rm = make_minimal_rmboc(std::max(2, m));
  auto bc = make_minimal_buscom(m, 4);
  auto dy = make_minimal_dynoc(m, m <= 4 ? 5 : m + 2);
  auto cn = make_minimal_conochi(m);
  const auto far = static_cast<fpga::ModuleId>(m);
  return {rm.arch->path_latency(1, far), bc.arch->path_latency(1, far),
          dy.arch->path_latency(1, far), cn.arch->path_latency(1, far)};
}

struct DetourPoint {
  bool placed = false;
  std::uint64_t hops = 0;
  sim::Cycle latency = 0;
};

DetourPoint run_detour_point(int size) {
  sim::Kernel kernel;
  dynoc::DynocConfig cfg;
  cfg.width = cfg.height = 7;
  dynoc::Dynoc d(kernel, cfg);
  fpga::HardwareModule unit;
  d.attach_at(1, unit, {1, 3});
  d.attach_at(2, unit, {5, 3});
  if (size > 0) {
    fpga::HardwareModule big;
    big.width_clbs = size;
    big.height_clbs = size;
    // 3x3 must shift left so its router ring stays inside the array.
    const fpga::Point at = size <= 2 ? fpga::Point{3, 2} : fpga::Point{2, 2};
    if (!d.attach_at(3, big, at)) return {};
  }
  return {true, static_cast<std::uint64_t>(d.route_hops(1, 2).value()),
          d.path_latency(1, 2)};
}

std::vector<ArchResult> run_measured_point(int m) {
  WorkloadConfig wl;
  wl.cycles = 30'000;
  wl.injection_rate = 0.002;
  wl.packet_bytes = 32;
  return run_all_minimal(wl, m);
}

}  // namespace

int main() {
  const std::vector<int> path_counts{2, 4, 6, 8};
  const std::vector<int> detour_sizes{0, 1, 2, 3};
  const std::vector<int> measured_counts{4, 8};

  std::vector<PathPoint> path(path_counts.size());
  std::vector<DetourPoint> detour(detour_sizes.size());
  std::vector<std::vector<ArchResult>> measured(measured_counts.size());

  std::vector<farm::Job> jobs;
  for (std::size_t i = 0; i < path_counts.size(); ++i) {
    farm::Job j;
    j.key = {"all", static_cast<std::uint64_t>(path_counts[i]),
             "path-latency"};
    j.fn = [&path, &path_counts, i](const farm::RunContext&) {
      path[i] = run_path_point(path_counts[i]);
      return farm::RunResult{};
    };
    jobs.push_back(std::move(j));
  }
  for (std::size_t i = 0; i < detour_sizes.size(); ++i) {
    farm::Job j;
    j.key = {"dynoc", static_cast<std::uint64_t>(detour_sizes[i]),
             "detour-latency"};
    j.fn = [&detour, &detour_sizes, i](const farm::RunContext&) {
      detour[i] = run_detour_point(detour_sizes[i]);
      return farm::RunResult{};
    };
    jobs.push_back(std::move(j));
  }
  for (std::size_t i = 0; i < measured_counts.size(); ++i) {
    farm::Job j;
    j.key = {"all", static_cast<std::uint64_t>(measured_counts[i]),
             "measured-latency"};
    j.fn = [&measured, &measured_counts, i](const farm::RunContext&) {
      measured[i] = run_measured_point(measured_counts[i]);
      return farm::RunResult{};
    };
    jobs.push_back(std::move(j));
  }
  farm::FarmConfig fc;
  fc.jobs = farm::default_jobs(jobs.size());
  farm::SimFarm(fc).run(jobs);

  Table t("Established-path latency l_p vs module count (cycles)");
  t.set_headers({"modules", "RMBoC", "BUS-COM", "DyNoC (1->n)",
                 "CoNoChi (1->n)"});
  for (std::size_t i = 0; i < path_counts.size(); ++i)
    t.add_row({Table::num(static_cast<std::uint64_t>(path_counts[i])),
               Table::num(path[i].rmboc), Table::num(path[i].buscom),
               Table::num(path[i].dynoc), Table::num(path[i].conochi)});
  t.print(std::cout);

  // DyNoC: latency between two fixed endpoints as the module *between*
  // them grows; CoNoChi keeps one switch per module so the equivalent
  // path never lengthens.
  Table s("DyNoC detour latency vs obstacle size (7x7 array)");
  s.set_headers({"obstacle", "route hops 1->2", "path latency (cycles)"});
  for (std::size_t i = 0; i < detour_sizes.size(); ++i) {
    if (!detour[i].placed) continue;
    const int size = detour_sizes[i];
    s.add_row({size == 0 ? "none" : (std::to_string(size) + "x" +
                                     std::to_string(size)),
               Table::num(detour[i].hops), Table::num(detour[i].latency)});
  }
  s.print(std::cout);

  // End-to-end measured latency under a light streaming load, per count.
  Table e("Measured mean latency, uniform traffic (cycles)");
  e.set_headers({"modules", "RMBoC", "BUS-COM", "DyNoC", "CoNoChi"});
  for (std::size_t i = 0; i < measured_counts.size(); ++i) {
    const auto& rows = measured[i];
    e.add_row({Table::num(static_cast<std::uint64_t>(measured_counts[i])),
               Table::num(rows[0].mean_latency_cycles),
               Table::num(rows[1].mean_latency_cycles),
               Table::num(rows[2].mean_latency_cycles),
               Table::num(rows[3].mean_latency_cycles)});
  }
  e.print(std::cout);

  std::cout
      << "Shape checks: bus rows stay at l_p = 1 for any module count; the\n"
         "NoC columns grow with distance; the DyNoC detour grows with the\n"
         "obstacle edge length (paper: 'for larger modules the probability\n"
         "that more switches have to be passed in DyNoC than in CoNoChi\n"
         "increases').\n";
  return 0;
}
