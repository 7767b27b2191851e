// The busy path (router gating and burst transfers, one kernel switch —
// docs/performance.md; arena pooling is always on) must be observationally
// invisible: every architecture has to deliver the same packets in the
// same cycles with the switch on and off, under random traffic, mid-burst
// faults and live reconfiguration. Two layers of checks:
//
//  * chaos digests: full ChaosResult fingerprints (every counter, the
//    violation list, the recovery incident log) must be equal between
//    tuned and untuned runs of the same schedule, across the
//    activity-driven on/off matrix as well;
//  * lockstep meshes: two instances of the same architecture, one gated
//    one not, driven cycle-by-cycle with identical sends and structural
//    mutations (node failure mid-transfer, heal, detach) must produce
//    identical per-cycle delivery streams.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "conochi/conochi.hpp"
#include "dynoc/dynoc.hpp"
#include "farm/chaos_campaign.hpp"
#include "fault/chaos.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/kernel.hpp"

namespace recosim {
namespace {

fault::ChaosResult run_chaos(fault::ChaosArch arch, std::uint64_t seed,
                             bool busy_path, bool activity_driven) {
  fault::ChaosRunOptions opt;
  opt.busy_path = busy_path;
  opt.activity_driven = activity_driven;
  return fault::run_schedule(fault::make_schedule(arch, seed), opt);
}

TEST(BusyPathAB, ChaosDigestsAgreeAcrossArchitectures) {
  // The farm's canonical result fingerprint covers every counter and the
  // violation list, so digest equality is the strongest single check the
  // harness offers — the same one the retry-determinism machinery trusts.
  for (fault::ChaosArch arch : fault::kAllChaosArchs) {
    for (std::uint64_t seed = 60; seed < 63; ++seed) {
      const auto on = run_chaos(arch, seed, /*busy_path=*/true, true);
      const auto off = run_chaos(arch, seed, /*busy_path=*/false, true);
      EXPECT_EQ(farm::chaos_result_digest(on), farm::chaos_result_digest(off))
          << "arch=" << fault::to_string(arch) << " seed=" << seed;
    }
  }
}

TEST(BusyPathAB, FourWayTuningActivityMatrixAgrees) {
  // Busy-path tuning composes with idle fast-forward; all four kernel
  // configurations must land on one digest.
  for (fault::ChaosArch arch : fault::kAllChaosArchs) {
    const std::uint64_t seed = 71;
    std::vector<std::string> digests;
    for (bool busy : {true, false})
      for (bool activity : {true, false})
        digests.push_back(
            farm::chaos_result_digest(run_chaos(arch, seed, busy, activity)));
    for (std::size_t i = 1; i < digests.size(); ++i)
      EXPECT_EQ(digests[0], digests[i])
          << "arch=" << fault::to_string(arch) << " combo=" << i;
  }
}

fpga::HardwareModule unit_module() {
  fpga::HardwareModule m;
  m.name = "m";
  m.width_clbs = 1;
  m.height_clbs = 1;
  return m;
}

proto::Packet pkt(fpga::ModuleId src, fpga::ModuleId dst,
                  std::uint32_t bytes, std::uint64_t tag) {
  proto::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = bytes;
  p.tag = tag;
  return p;
}

/// One delivery event: (cycle, receiving module, packet tag).
using Delivery = std::tuple<sim::Cycle, fpga::ModuleId, std::uint64_t>;

std::string delivery_str(const std::vector<Delivery>& ds) {
  std::ostringstream out;
  for (const auto& [c, m, t] : ds)
    out << c << ":m" << m << ":t" << t << " ";
  return out.str();
}

TEST(BusyPathAB, DynocLockstepWithMidBurstFaultAndReconfig) {
  // Two identical meshes, gated and ungated, driven in lockstep. The
  // 1024-byte payloads keep links busy for long spans, so the node
  // failure at cycle 60 lands mid-transfer on the traffic's row; the
  // heal and the late detach exercise the structural-mutation paths.
  struct Side {
    sim::Kernel kernel;
    dynoc::DynocConfig cfg;
    std::unique_ptr<dynoc::Dynoc> noc;
    std::vector<Delivery> deliveries;

    explicit Side(bool busy_path) {
      kernel.set_busy_path_enabled(busy_path);
      cfg.width = 8;
      cfg.height = 8;
      noc = std::make_unique<dynoc::Dynoc>(kernel, cfg);
      EXPECT_TRUE(noc->attach_at(1, unit_module(), {1, 1}));
      EXPECT_TRUE(noc->attach_at(2, unit_module(), {6, 1}));
      EXPECT_TRUE(noc->attach_at(3, unit_module(), {6, 6}));
    }
    void drain() {
      for (fpga::ModuleId m : {1, 2, 3})
        while (auto p = noc->receive(m))
          deliveries.emplace_back(kernel.now(), m, p->tag);
    }
  };
  Side gated(true), ungated(false);

  std::uint64_t tag = 0;
  for (sim::Cycle cycle = 0; cycle < 1'500; ++cycle) {
    // Deterministic traffic: alternating src/dst pairs every 40 cycles,
    // large enough to span the fault below.
    if (cycle % 40 == 0) {
      const fpga::ModuleId src = (cycle / 40) % 2 ? 2 : 1;
      const fpga::ModuleId dst = (cycle / 40) % 3 ? 3 : 2;
      if (src != dst) {
        const auto p = pkt(src, dst, 1024, ++tag);
        const bool a = gated.noc->send(p);
        const bool b = ungated.noc->send(p);
        ASSERT_EQ(a, b) << "send diverged at cycle " << cycle;
      }
    }
    if (cycle == 60) {
      ASSERT_TRUE(gated.noc->fail_node(3, 1));
      ASSERT_TRUE(ungated.noc->fail_node(3, 1));
    }
    if (cycle == 400) {
      ASSERT_TRUE(gated.noc->heal_node(3, 1));
      ASSERT_TRUE(ungated.noc->heal_node(3, 1));
    }
    if (cycle == 900) {
      ASSERT_TRUE(gated.noc->detach(2));
      ASSERT_TRUE(ungated.noc->detach(2));
    }
    gated.kernel.run(1);
    ungated.kernel.run(1);
    gated.drain();
    ungated.drain();
  }
  EXPECT_GT(gated.deliveries.size(), 0u);
  EXPECT_EQ(delivery_str(gated.deliveries), delivery_str(ungated.deliveries));
  EXPECT_EQ(gated.noc->link_busy_cycles(), ungated.noc->link_busy_cycles());
}

TEST(BusyPathAB, ConochiLockstepWithSwitchFailure) {
  // Ring of four switches (the chaos fixture's topology) with a switch
  // failure landing while fragments are in flight, then healing.
  struct Side {
    sim::Kernel kernel;
    std::unique_ptr<conochi::Conochi> net;
    std::vector<Delivery> deliveries;

    explicit Side(bool busy_path) {
      kernel.set_busy_path_enabled(busy_path);
      conochi::ConochiConfig cfg;
      net = std::make_unique<conochi::Conochi>(kernel, cfg);
      for (fpga::Point p : {fpga::Point{1, 1}, fpga::Point{5, 1},
                            fpga::Point{1, 5}, fpga::Point{5, 5}})
        EXPECT_TRUE(net->add_switch(p));
      EXPECT_TRUE(net->lay_wire({2, 1}, {4, 1}));
      EXPECT_TRUE(net->lay_wire({2, 5}, {4, 5}));
      EXPECT_TRUE(net->lay_wire({1, 2}, {1, 4}));
      EXPECT_TRUE(net->lay_wire({5, 2}, {5, 4}));
      EXPECT_TRUE(net->attach_at(1, unit_module(), {1, 1}));
      EXPECT_TRUE(net->attach_at(2, unit_module(), {5, 5}));
    }
    void drain() {
      for (fpga::ModuleId m : {1, 2})
        while (auto p = net->receive(m))
          deliveries.emplace_back(kernel.now(), m, p->tag);
    }
  };
  Side gated(true), ungated(false);

  std::uint64_t tag = 0;
  for (sim::Cycle cycle = 0; cycle < 1'200; ++cycle) {
    if (cycle % 25 == 0) {
      const auto p = pkt(cycle % 50 ? 2 : 1, cycle % 50 ? 1 : 2, 256, ++tag);
      const bool a = gated.net->send(p);
      const bool b = ungated.net->send(p);
      ASSERT_EQ(a, b) << "send diverged at cycle " << cycle;
    }
    if (cycle == 130) {
      ASSERT_TRUE(gated.net->fail_node(5, 1));
      ASSERT_TRUE(ungated.net->fail_node(5, 1));
    }
    if (cycle == 700) {
      ASSERT_TRUE(gated.net->heal_node(5, 1));
      ASSERT_TRUE(ungated.net->heal_node(5, 1));
    }
    gated.kernel.run(1);
    ungated.kernel.run(1);
    gated.drain();
    ungated.drain();
  }
  EXPECT_GT(gated.deliveries.size(), 0u);
  EXPECT_EQ(delivery_str(gated.deliveries), delivery_str(ungated.deliveries));
}

TEST(BusyPathAB, RmbocLockstepWithMidBurstCrosspointFault) {
  // Large payloads make every transfer a multi-cycle burst; the slot-2
  // cross-point failure at cycle 90 lands while a burst is in flight and
  // forces a replan, which must abandon the burst identically on both
  // sides. Cycle-by-cycle stepping (no fast-forward jumps here) means
  // the burst bookkeeping itself is what is being compared.
  struct Side {
    sim::Kernel kernel;
    rmboc::RmbocConfig cfg;
    std::unique_ptr<rmboc::Rmboc> bus;
    std::vector<Delivery> deliveries;

    explicit Side(bool busy_path) {
      kernel.set_busy_path_enabled(busy_path);
      cfg.slots = 4;
      cfg.buses = 4;
      bus = std::make_unique<rmboc::Rmboc>(kernel, cfg);
      for (int i = 1; i <= 4; ++i)
        EXPECT_TRUE(bus->attach(static_cast<fpga::ModuleId>(i),
                                unit_module()));
    }
    void drain() {
      for (fpga::ModuleId m : {1, 2, 3, 4})
        while (auto p = bus->receive(m))
          deliveries.emplace_back(kernel.now(), m, p->tag);
    }
  };
  Side gated(true), ungated(false);

  std::uint64_t tag = 0;
  for (sim::Cycle cycle = 0; cycle < 1'500; ++cycle) {
    // A 512-byte payload streams for ~128 cycles on a 32-bit bus, so the
    // cycle-90 fault always lands inside a transfer.
    if (cycle % 150 == 0) {
      const auto p = pkt(1, 4, 512, ++tag);
      const bool a = gated.bus->send(p);
      const bool b = ungated.bus->send(p);
      ASSERT_EQ(a, b) << "send diverged at cycle " << cycle;
    }
    if (cycle == 90) {
      ASSERT_TRUE(gated.bus->fail_node(2));
      ASSERT_TRUE(ungated.bus->fail_node(2));
    }
    if (cycle == 600) {
      ASSERT_TRUE(gated.bus->heal_node(2));
      ASSERT_TRUE(ungated.bus->heal_node(2));
    }
    gated.kernel.run(1);
    ungated.kernel.run(1);
    gated.drain();
    ungated.drain();
  }
  EXPECT_GT(gated.deliveries.size(), 0u);
  EXPECT_EQ(delivery_str(gated.deliveries), delivery_str(ungated.deliveries));
}

}  // namespace
}  // namespace recosim
