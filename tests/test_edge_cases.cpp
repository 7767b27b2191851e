// Edge-case and corner-condition tests across the substrates: things the
// main suites do not exercise because they never hit the boundaries.

#include <gtest/gtest.h>

#include <sstream>

#include "buscom/buscom.hpp"
#include "conochi/conochi.hpp"
#include "fpga/icap.hpp"
#include "fpga/placer.hpp"
#include "proto/packet.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/kernel.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace recosim {
namespace {

// --- sim ------------------------------------------------------------------

TEST(EdgeSim, HistogramResetClearsEverything) {
  sim::Histogram h(4, 8);
  h.add(3);
  h.add(100);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.max_seen(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(EdgeSim, RunningStatSingleSampleHasZeroVariance) {
  sim::RunningStat s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(EdgeSim, CounterReset) {
  sim::Counter c;
  c.add(7);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(EdgeSim, RngGeometricGapWithProbabilityOne) {
  sim::Rng r(1);
  EXPECT_EQ(r.geometric_gap(1.0), 1u);
  EXPECT_GT(r.geometric_gap(0.0), 1'000'000u);  // effectively never
}

TEST(EdgeSim, KernelRunZeroCyclesIsNoop) {
  sim::Kernel k;
  k.run(0);
  EXPECT_EQ(k.now(), 0u);
}

// --- proto ------------------------------------------------------------------

TEST(EdgeProto, FragmentDefaultsDescribeWholePacket) {
  proto::Packet p;
  EXPECT_EQ(p.fragment_index, 0u);
  EXPECT_EQ(p.fragment_count, 1u);
}

TEST(EdgeProto, EfficiencyOfZeroPayloadIsZero) {
  proto::Framing f{96, 0};
  EXPECT_DOUBLE_EQ(f.efficiency(0, 32), 0.0);
}

// --- fpga ------------------------------------------------------------------

TEST(EdgeFpga, SlotPlacerPlaceInInvalidSlot) {
  fpga::Floorplan f(fpga::Device::xc2v3000());
  fpga::SlotPlacer p(f, 4);
  fpga::HardwareModule m;
  EXPECT_FALSE(p.place_in_slot(1, m, -1));
  EXPECT_FALSE(p.place_in_slot(1, m, 4));
  EXPECT_TRUE(p.place_in_slot(1, m, 2));
  EXPECT_FALSE(p.place_in_slot(2, m, 2));  // occupied
}

TEST(EdgeFpga, FloorplanRemoveUnknownId) {
  fpga::Floorplan f(fpga::Device::xc2v3000());
  EXPECT_FALSE(f.remove(42));
}

TEST(EdgeFpga, IcapZeroAreaRegionStillCompletes) {
  sim::Kernel k;
  fpga::Icap icap(k, fpga::Device::xc2v3000(), 100.0);
  bool done = false;
  icap.request(1, fpga::Rect{0, 0, 0, 0}, [&](fpga::ModuleId, bool ok) {
    done = ok;
  });
  EXPECT_TRUE(k.run_until([&] { return done; }, 100));
}

// --- architectures -----------------------------------------------------------

TEST(EdgeArch, RmbocTwoSlotMinimum) {
  sim::Kernel k;
  rmboc::RmbocConfig cfg;
  cfg.slots = 2;
  cfg.buses = 1;
  rmboc::Rmboc arch(k, cfg);
  fpga::HardwareModule m;
  ASSERT_TRUE(arch.attach(1, m));
  ASSERT_TRUE(arch.attach(2, m));
  proto::Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload_bytes = 4;
  ASSERT_TRUE(arch.send(p));
  EXPECT_TRUE(k.run_until([&] { return arch.receive(2).has_value(); }, 100));
  EXPECT_EQ(arch.max_parallelism(), 1u);
}

TEST(EdgeArch, BuscomSingleBusSingleModulePair) {
  sim::Kernel k;
  buscom::BuscomConfig cfg;
  cfg.buses = 1;
  cfg.max_modules = 2;
  buscom::Buscom arch(k, cfg);
  fpga::HardwareModule m;
  ASSERT_TRUE(arch.attach(1, m));
  ASSERT_TRUE(arch.attach(2, m));
  proto::Packet p;
  p.src = 2;
  p.dst = 1;
  p.payload_bytes = 61;
  ASSERT_TRUE(arch.send(p));
  EXPECT_TRUE(
      k.run_until([&] { return arch.receive(1).has_value(); }, 2'000));
}

TEST(EdgeArch, BuscomSlotExactlyHeaderSized) {
  sim::Kernel k;
  buscom::BuscomConfig cfg;
  cfg.cycles_per_slot = 1;
  cfg.in_width_bits = 16;  // 16 bits/slot < 20-bit header
  buscom::Buscom arch(k, cfg);
  EXPECT_EQ(arch.payload_bytes_per_slot(), 1u);  // clamped minimum
}

TEST(EdgeArch, ConochiSingleSwitchLocalTraffic) {
  sim::Kernel k;
  conochi::ConochiConfig cfg;
  cfg.grid_width = 3;
  cfg.grid_height = 3;
  conochi::Conochi arch(k, cfg);
  ASSERT_TRUE(arch.add_switch({1, 1}));
  fpga::HardwareModule m;
  ASSERT_TRUE(arch.attach_at(1, m, {1, 1}));
  ASSERT_TRUE(arch.attach_at(2, m, {1, 1}));  // second port, same switch
  proto::Packet p;
  p.src = 1;
  p.dst = 2;
  p.payload_bytes = 32;
  ASSERT_TRUE(arch.send(p));
  EXPECT_TRUE(
      k.run_until([&] { return arch.receive(2).has_value(); }, 1'000));
}

TEST(EdgeArch, ConochiSwitchPortsExhaust) {
  sim::Kernel k;
  conochi::ConochiConfig cfg;
  cfg.grid_width = 3;
  cfg.grid_height = 3;
  conochi::Conochi arch(k, cfg);
  ASSERT_TRUE(arch.add_switch({1, 1}));
  fpga::HardwareModule m;
  for (fpga::ModuleId id = 1; id <= 4; ++id)
    EXPECT_TRUE(arch.attach_at(id, m, {1, 1}));
  EXPECT_FALSE(arch.attach_at(5, m, {1, 1}));  // 4 ports only
}

TEST(EdgeArch, ZeroBytePacketsTraverseEveryArchitecture) {
  // Control messages with no payload must still arrive everywhere.
  {
    sim::Kernel k;
    rmboc::Rmboc arch(k, rmboc::RmbocConfig{});
    fpga::HardwareModule m;
    arch.attach(1, m);
    arch.attach(2, m);
    proto::Packet p;
    p.src = 1;
    p.dst = 2;
    ASSERT_TRUE(arch.send(p));
    EXPECT_TRUE(
        k.run_until([&] { return arch.receive(2).has_value(); }, 200));
  }
  {
    sim::Kernel k;
    conochi::ConochiConfig cfg;
    cfg.grid_width = 6;
    cfg.grid_height = 3;
    conochi::Conochi arch(k, cfg);
    arch.add_switch({1, 1});
    arch.add_switch({3, 1});
    arch.lay_wire({2, 1}, {2, 1});  // the single tile between them
    fpga::HardwareModule m;
    arch.attach_at(1, m, {1, 1});
    arch.attach_at(2, m, {3, 1});
    proto::Packet p;
    p.src = 1;
    p.dst = 2;
    ASSERT_TRUE(arch.send(p));
    EXPECT_TRUE(
        k.run_until([&] { return arch.receive(2).has_value(); }, 1'000));
  }
}

}  // namespace
}  // namespace recosim
