#include <gtest/gtest.h>

#include "dynoc/dynoc.hpp"
#include "sim/kernel.hpp"

namespace recosim::dynoc {
namespace {

fpga::HardwareModule mod(int w = 1, int h = 1) {
  return {.name = "m", .width_clbs = w, .height_clbs = h};
}

proto::Packet pkt(fpga::ModuleId src, fpga::ModuleId dst,
                  std::uint32_t bytes) {
  proto::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = bytes;
  return p;
}

struct DynocTest : ::testing::Test {
  sim::Kernel kernel;
  DynocConfig cfg;

  std::unique_ptr<Dynoc> make(int array = 5) {
    cfg.width = array;
    cfg.height = array;
    return std::make_unique<Dynoc>(kernel, cfg);
  }

  /// Drain until one packet for `m` arrives or budget expires.
  std::optional<proto::Packet> run_receive(Dynoc& d, fpga::ModuleId m,
                                           sim::Cycle budget = 2'000) {
    std::optional<proto::Packet> got;
    kernel.run_until(
        [&] {
          got = d.receive(m);
          return got.has_value();
        },
        budget);
    return got;
  }
};

TEST_F(DynocTest, UnitModuleKeepsItsRouter) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(), {2, 2}));
  EXPECT_TRUE(d->router_active({2, 2}));
  EXPECT_EQ(d->access_router_of(1).value(), (fpga::Point{2, 2}));
  EXPECT_EQ(d->active_router_count(), 25u);
}

TEST_F(DynocTest, LargeModuleRemovesInteriorRouters) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(2, 2), {1, 1}));
  EXPECT_FALSE(d->router_active({1, 1}));
  EXPECT_FALSE(d->router_active({2, 2}));
  EXPECT_EQ(d->active_router_count(), 21u);
  // Access router is on the surrounding ring.
  auto acc = d->access_router_of(1).value();
  EXPECT_TRUE(d->router_active(acc));
}

TEST_F(DynocTest, DetachRestoresRouters) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(2, 2), {1, 1}));
  ASSERT_TRUE(d->detach(1));
  EXPECT_EQ(d->active_router_count(), 25u);
}

TEST_F(DynocTest, PlacementRejectsBorderContact) {
  auto d = make();
  // Touching the border would break the "surrounded by routers" rule.
  EXPECT_FALSE(d->attach_at(1, mod(2, 2), {0, 1}));
  EXPECT_FALSE(d->attach_at(1, mod(2, 2), {3, 3}));  // right/bottom edge
  EXPECT_TRUE(d->attach_at(1, mod(2, 2), {1, 1}));
}

TEST_F(DynocTest, PlacementRejectsOverlapAndTouchingModules) {
  auto d = make(7);
  ASSERT_TRUE(d->attach_at(1, mod(2, 2), {1, 1}));
  EXPECT_FALSE(d->attach_at(2, mod(2, 2), {2, 2}));  // overlap
  EXPECT_FALSE(d->attach_at(2, mod(2, 2), {3, 1}));  // shares ring tile
  EXPECT_TRUE(d->attach_at(2, mod(2, 2), {4, 1}));   // one ring between
}

TEST_F(DynocTest, AutoPlacementFindsSpots) {
  auto d = make();
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(d->attach(i, mod()));
  EXPECT_EQ(d->attached_count(), 4u);
}

TEST_F(DynocTest, XYRouteDeliversPacket) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(d->attach_at(2, mod(), {3, 3}));
  ASSERT_TRUE(d->send(pkt(1, 2, 16)));
  auto got = run_receive(*d, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload_bytes, 16u);
  EXPECT_EQ(d->routing_failures(), 0u);
}

TEST_F(DynocTest, RouteHopsFollowManhattanWithoutObstacles) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(d->attach_at(2, mod(), {3, 3}));
  EXPECT_EQ(d->route_hops(1, 2).value(), 4);
}

TEST_F(DynocTest, SxyDetoursAroundPlacedModule) {
  auto d = make(7);
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 3}));
  ASSERT_TRUE(d->attach_at(2, mod(), {5, 3}));
  // Block the straight row with a 3x3 module between them.
  ASSERT_TRUE(d->attach_at(3, mod(3, 3), {2, 2}));
  ASSERT_FALSE(d->router_active({3, 3}));
  const int hops = d->route_hops(1, 2).value();
  EXPECT_GT(hops, 4);  // forced around the obstacle
  ASSERT_TRUE(d->send(pkt(1, 2, 8)));
  EXPECT_TRUE(run_receive(*d, 2).has_value());
  EXPECT_EQ(d->routing_failures(), 0u);
}

TEST_F(DynocTest, DetourDisappearsAfterModuleRemoval) {
  auto d = make(7);
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 3}));
  ASSERT_TRUE(d->attach_at(2, mod(), {5, 3}));
  ASSERT_TRUE(d->attach_at(3, mod(3, 3), {2, 2}));
  const int with_obstacle = d->route_hops(1, 2).value();
  ASSERT_TRUE(d->detach(3));
  const int without = d->route_hops(1, 2).value();
  EXPECT_LT(without, with_obstacle);
  EXPECT_EQ(without, 4);
}

TEST_F(DynocTest, TrafficSurvivesRuntimeReconfiguration) {
  auto d = make(7);
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 3}));
  ASSERT_TRUE(d->attach_at(2, mod(), {5, 3}));
  int sent = 0, got = 0;
  for (int burst = 0; burst < 3; ++burst) {
    for (int i = 0; i < 3; ++i)
      if (d->send(pkt(1, 2, 16))) ++sent;
    kernel.run(100);
    if (burst == 0) {
      ASSERT_TRUE(d->attach_at(3, mod(3, 3), {2, 2}));
    }
    if (burst == 1) {
      ASSERT_TRUE(d->detach(3));
    }
    while (d->receive(2)) ++got;
  }
  kernel.run(1'000);
  while (d->receive(2)) ++got;
  EXPECT_EQ(got, sent);
  EXPECT_EQ(d->routing_failures(), 0u);
}

TEST_F(DynocTest, PerHopLatencyModel) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(d->attach_at(2, mod(), {3, 1}));
  // 2 link hops -> 3 routers -> 3 * (routing_delay + 1) cycles.
  EXPECT_EQ(d->path_latency(1, 2), 3u * (cfg.routing_delay + 1));
}

TEST_F(DynocTest, LatencyScalesWithDistanceInSimulation) {
  auto d = make(7);
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(d->attach_at(2, mod(), {2, 1}));
  ASSERT_TRUE(d->attach_at(3, mod(), {5, 5}));
  ASSERT_TRUE(d->send(pkt(1, 2, 4)));
  run_receive(*d, 2);
  const sim::Cycle near_latency = kernel.now();
  ASSERT_TRUE(d->send(pkt(1, 3, 4)));
  const sim::Cycle start = kernel.now();
  run_receive(*d, 3);
  const sim::Cycle far_latency = kernel.now() - start;
  EXPECT_GT(far_latency, near_latency);
}

TEST_F(DynocTest, ConcurrentFlowsBothDeliver) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(d->attach_at(2, mod(), {3, 1}));
  ASSERT_TRUE(d->attach_at(3, mod(), {1, 3}));
  ASSERT_TRUE(d->attach_at(4, mod(), {3, 3}));
  ASSERT_TRUE(d->send(pkt(1, 2, 32)));
  ASSERT_TRUE(d->send(pkt(3, 4, 32)));
  kernel.run(500);
  EXPECT_TRUE(d->receive(2).has_value());
  EXPECT_TRUE(d->receive(4).has_value());
}

TEST_F(DynocTest, BackpressureLimitsInjection) {
  cfg.input_buffer_packets = 1;
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(d->attach_at(2, mod(), {3, 3}));
  int rejected = 0;
  for (int i = 0; i < 10; ++i)
    if (!d->send(pkt(1, 2, 512))) ++rejected;
  EXPECT_GT(rejected, 0);
  kernel.run(5'000);
  int got = 0;
  while (d->receive(2)) ++got;
  EXPECT_EQ(got, 10 - rejected);
}

TEST_F(DynocTest, MaxParallelismCountsActiveLinks) {
  auto d = make(5);
  const std::size_t full = d->max_parallelism();
  // 5x5 mesh: 2 * (2 * 4 * 5) = 80 directed links.
  EXPECT_EQ(full, 80u);
  ASSERT_TRUE(d->attach_at(1, mod(3, 3), {1, 1}));
  EXPECT_LT(d->max_parallelism(), full);
}

TEST_F(DynocTest, RenderShowsModulesAndAccess) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(2, 2), {1, 1}));
  const std::string r = d->render();
  EXPECT_NE(r.find('a'), std::string::npos);
  EXPECT_NE(r.find('*'), std::string::npos);
  EXPECT_NE(r.find('+'), std::string::npos);
}

TEST_F(DynocTest, DesignParametersMatchTable1) {
  auto d = make();
  auto p = d->design_parameters();
  EXPECT_EQ(p.type, core::ArchType::kNoc);
  EXPECT_EQ(p.topology, core::TopologyClass::kArray2D);
  EXPECT_EQ(p.module_size, core::ModuleShape::kVariableRect);
  EXPECT_EQ(p.switching, core::Switching::kPacket);
}

TEST_F(DynocTest, SendToUnattachedFails) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 1}));
  EXPECT_FALSE(d->send(pkt(1, 9, 4)));
}

TEST_F(DynocTest, LoopbackDelivers) {
  auto d = make();
  ASSERT_TRUE(d->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(d->send(pkt(1, 1, 4)));
  EXPECT_TRUE(d->receive(1).has_value());
}

}  // namespace
}  // namespace recosim::dynoc

// -- Switching-discipline ablation: SAF vs virtual cut-through -------------

namespace recosim::dynoc {
namespace {

struct DynocVctTest : DynocTest {};

TEST_F(DynocVctTest, VctDeliversSamePacketsAsSaf) {
  for (auto mode : {RouterSwitching::kStoreAndForward,
                    RouterSwitching::kVirtualCutThrough}) {
    sim::Kernel k;
    DynocConfig c;
    c.width = c.height = 6;
    c.switching = mode;
    Dynoc d(k, c);
    ASSERT_TRUE(d.attach_at(1, mod(), {1, 1}));
    ASSERT_TRUE(d.attach_at(2, mod(), {4, 4}));
    int sent = 0;
    for (int i = 0; i < 6; ++i) {
      proto::Packet p = pkt(1, 2, 200);
      if (d.send(p)) ++sent;
      k.run(50);
    }
    k.run(5'000);
    int got = 0;
    while (d.receive(2)) ++got;
    EXPECT_EQ(got, sent);
    EXPECT_GT(sent, 0);
  }
}

TEST_F(DynocVctTest, CutThroughBeatsStoreAndForwardOnLargePackets) {
  auto measure = [this](RouterSwitching mode) {
    sim::Kernel k;
    DynocConfig c;
    c.width = c.height = 7;
    c.switching = mode;
    Dynoc d(k, c);
    fpga::HardwareModule m;
    d.attach_at(1, m, {1, 1});
    d.attach_at(2, m, {5, 5});
    proto::Packet p = pkt(1, 2, 1'024);  // 33 flits
    d.send(p);
    const sim::Cycle start = k.now();
    k.run_until([&] { return d.receive(2).has_value(); }, 20'000);
    return k.now() - start;
  };
  const auto saf = measure(RouterSwitching::kStoreAndForward);
  const auto vct = measure(RouterSwitching::kVirtualCutThrough);
  // 8 hops: SAF pays ~hops x flits; VCT pays flits once plus per-hop
  // head latency.
  EXPECT_LT(vct, saf / 2);
}

TEST_F(DynocVctTest, SmallPacketsAreInsensitiveToDiscipline) {
  auto measure = [](RouterSwitching mode) {
    sim::Kernel k;
    DynocConfig c;
    c.switching = mode;
    Dynoc d(k, c);
    fpga::HardwareModule m;
    d.attach_at(1, m, {1, 1});
    d.attach_at(2, m, {3, 3});
    proto::Packet p;
    p.src = 1;
    p.dst = 2;
    p.payload_bytes = 4;  // 2 flits with header
    d.send(p);
    const sim::Cycle start = k.now();
    k.run_until([&] { return d.receive(2).has_value(); }, 5'000);
    return k.now() - start;
  };
  const auto saf = measure(RouterSwitching::kStoreAndForward);
  const auto vct = measure(RouterSwitching::kVirtualCutThrough);
  EXPECT_LE(vct, saf);
  EXPECT_GE(vct * 3, saf);  // same ballpark for tiny packets
}

TEST_F(DynocVctTest, VctSurvivesReconfigurationChurn) {
  sim::Kernel k;
  DynocConfig c;
  c.width = c.height = 7;
  c.switching = RouterSwitching::kVirtualCutThrough;
  Dynoc d(k, c);
  fpga::HardwareModule m, big;
  big.width_clbs = big.height_clbs = 2;
  ASSERT_TRUE(d.attach_at(1, m, {1, 3}));
  ASSERT_TRUE(d.attach_at(2, m, {5, 3}));
  int sent = 0, got = 0;
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 3; ++i) {
      proto::Packet p = pkt(1, 2, 64);
      if (d.send(p)) ++sent;
    }
    k.run(200);
    if (burst == 1) {
      ASSERT_TRUE(d.attach_at(3, big, {2, 1}));
    }
    if (burst == 2) {
      ASSERT_TRUE(d.detach(3));
    }
    while (d.receive(2)) ++got;
  }
  k.run(3'000);
  while (d.receive(2)) ++got;
  const auto dropped = static_cast<int>(
      d.stats().counter_value("packets_dropped_reconfig"));
  EXPECT_EQ(got + dropped, sent);
}

}  // namespace
}  // namespace recosim::dynoc
