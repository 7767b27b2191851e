#include <gtest/gtest.h>

#include "conochi/conochi.hpp"
#include "sim/kernel.hpp"

namespace recosim::conochi {
namespace {

fpga::HardwareModule mod() { return {.name = "m"}; }

proto::Packet pkt(fpga::ModuleId src, fpga::ModuleId dst,
                  std::uint32_t bytes) {
  proto::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = bytes;
  return p;
}

struct ConochiTest : ::testing::Test {
  sim::Kernel kernel;
  ConochiConfig cfg;

  /// Row of `n` switches at y=1, x=1,4,7,..., two wire tiles between.
  std::unique_ptr<Conochi> make_row(int n) {
    cfg.grid_width = 3 * n + 1;
    cfg.grid_height = 4;
    auto c = std::make_unique<Conochi>(kernel, cfg);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(c->add_switch({1 + 3 * i, 1}));
      if (i > 0) {
        EXPECT_TRUE(c->lay_wire({3 * i - 1, 1}, {3 * i, 1}));
      }
    }
    return c;
  }

  std::optional<proto::Packet> run_receive(Conochi& c, fpga::ModuleId m,
                                           sim::Cycle budget = 3'000) {
    std::optional<proto::Packet> got;
    kernel.run_until(
        [&] {
          got = c.receive(m);
          return got.has_value();
        },
        budget);
    return got;
  }
};

TEST_F(ConochiTest, AddSwitchRetypesTile) {
  auto c = make_row(2);
  EXPECT_EQ(c->grid().at({1, 1}), TileType::kS);
  EXPECT_EQ(c->grid().at({2, 1}), TileType::kH);
  EXPECT_EQ(c->switch_count(), 2u);
}

TEST_F(ConochiTest, AddSwitchRejectsSwitchTileButSplitsWireRuns) {
  auto c = make_row(2);
  EXPECT_FALSE(c->add_switch({1, 1}));  // already a switch
  const std::size_t links_before = c->link_count();
  EXPECT_TRUE(c->add_switch({2, 1}));  // inserted into the wire run
  EXPECT_EQ(c->switch_count(), 3u);
  EXPECT_EQ(c->link_count(), links_before + 2);  // one link became two
}

TEST_F(ConochiTest, LinksFormAcrossWireRuns) {
  auto c = make_row(3);
  EXPECT_EQ(c->link_count(), 4u);  // 2 bidirectional links
}

TEST_F(ConochiTest, AdjacentSwitchesLinkWithoutWireTiles) {
  cfg.grid_width = 4;
  cfg.grid_height = 3;
  auto c = std::make_unique<Conochi>(kernel, cfg);
  ASSERT_TRUE(c->add_switch({1, 1}));
  ASSERT_TRUE(c->add_switch({2, 1}));
  EXPECT_EQ(c->link_count(), 2u);
}

TEST_F(ConochiTest, VerticalWiresLinkSwitches) {
  cfg.grid_width = 3;
  cfg.grid_height = 6;
  auto c = std::make_unique<Conochi>(kernel, cfg);
  ASSERT_TRUE(c->add_switch({1, 1}));
  ASSERT_TRUE(c->add_switch({1, 4}));
  ASSERT_TRUE(c->lay_wire({1, 2}, {1, 3}));
  EXPECT_EQ(c->link_count(), 2u);
}

TEST_F(ConochiTest, AttachUsesFreePort) {
  auto c = make_row(2);
  EXPECT_TRUE(c->attach_at(1, mod(), {1, 1}));
  EXPECT_TRUE(c->is_attached(1));
  EXPECT_EQ(c->switch_of(1).value(), (fpga::Point{1, 1}));
}

TEST_F(ConochiTest, PacketDeliveredAcrossSwitches) {
  auto c = make_row(3);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(c->attach_at(2, mod(), {7, 1}));
  ASSERT_TRUE(c->send(pkt(1, 2, 64)));
  auto got = run_receive(*c, 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload_bytes, 64u);
}

TEST_F(ConochiTest, PathLatencyScalesWithSwitchCount) {
  auto c = make_row(4);
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(c->attach_at(static_cast<fpga::ModuleId>(i + 1), mod(),
                             {1 + 3 * i, 1}));
  const auto near = c->path_latency(1, 2);
  const auto far = c->path_latency(1, 4);
  EXPECT_GT(near, 0u);
  EXPECT_GT(far, near);
}

TEST_F(ConochiTest, RuntimeSwitchInsertionWithoutStall) {
  auto c = make_row(3);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(c->attach_at(2, mod(), {7, 1}));
  int sent = 0, got = 0;
  for (int i = 0; i < 4; ++i)
    if (c->send(pkt(1, 2, 32))) ++sent;
  kernel.run(10);
  // Insert a switch into the middle of the wire run while traffic flows.
  ASSERT_TRUE(c->add_switch({5, 1}));
  EXPECT_EQ(c->switch_count(), 4u);
  kernel.run(3'000);
  while (c->receive(2)) ++got;
  for (int i = 0; i < 4; ++i)
    if (c->send(pkt(1, 2, 32))) ++sent;
  kernel.run(3'000);
  while (c->receive(2)) ++got;
  EXPECT_EQ(got, sent);
}

TEST_F(ConochiTest, TablesConvergeAfterChange) {
  auto c = make_row(3);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(c->send(pkt(1, 1, 4)));  // loopback keeps network non-quiet
  ASSERT_TRUE(c->add_switch({5, 1}));
  kernel.run(10 * cfg.table_update_cycles + 10);
  EXPECT_FALSE(c->tables_converging());
}

TEST_F(ConochiTest, RemoveSwitchRequiresNoModules) {
  auto c = make_row(3);
  ASSERT_TRUE(c->attach_at(1, mod(), {4, 1}));
  EXPECT_FALSE(c->remove_switch({4, 1}));
  ASSERT_TRUE(c->detach(1));
  EXPECT_TRUE(c->remove_switch({4, 1}));
  EXPECT_EQ(c->switch_count(), 2u);
}

TEST_F(ConochiTest, ModuleMoveWithRedirectionLosesNothing) {
  auto c = make_row(3);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(c->attach_at(2, mod(), {4, 1}));
  int sent = 0, got = 0;
  for (int i = 0; i < 3; ++i)
    if (c->send(pkt(1, 2, 16))) ++sent;
  kernel.run(5);
  // Move module 2 to the far switch; senders still use the old address.
  ASSERT_TRUE(c->move_module(2, {7, 1}));
  for (int i = 0; i < 3; ++i)
    if (c->send(pkt(1, 2, 16))) ++sent;
  kernel.run(5'000);
  while (c->receive(2)) ++got;
  EXPECT_EQ(got, sent);
  EXPECT_GT(c->stats().counter_value("packets_redirected"), 0u);
}

TEST_F(ConochiTest, ModuleMoveWithoutRedirectionDropsInFlight) {
  cfg.enable_redirection = false;
  auto c = make_row(3);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(c->attach_at(2, mod(), {4, 1}));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(c->send(pkt(1, 2, 16)));
  ASSERT_TRUE(c->move_module(2, {7, 1}));
  kernel.run(5'000);
  int got = 0;
  while (c->receive(2)) ++got;
  EXPECT_LT(got, 3);
  EXPECT_GT(c->stats().counter_value("dropped_no_module"), 0u);
}

TEST_F(ConochiTest, OversizePacketFragmentedAndReassembled) {
  auto c = make_row(2);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(c->attach_at(2, mod(), {4, 1}));
  ASSERT_TRUE(c->send(pkt(1, 2, 3'000)));  // > 1024 B cap -> 3 fragments
  auto got = run_receive(*c, 2, 10'000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload_bytes, 3'000u);
  EXPECT_EQ(got->fragment_count, 1u);
}

TEST_F(ConochiTest, HeaderEfficiencyNearNinetyPercent) {
  proto::Framing f{proto::ConochiHeader::kBits,
                   proto::ConochiHeader::kMaxPayloadBytes};
  const double eff = f.efficiency(1024, 32);
  EXPECT_GT(eff, 0.85);
  EXPECT_LT(eff, 1.0);
}

TEST_F(ConochiTest, VctLatencyBeatsStoreAndForwardShape) {
  // Virtual cut-through: end-to-end latency for a large packet over h
  // hops ~ h * header_latency + serialization, NOT h * (serialization).
  auto c = make_row(4);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(c->attach_at(2, mod(), {10, 1}));
  const auto flits = (1024u * 8 + 96 + 31) / 32;
  ASSERT_TRUE(c->send(pkt(1, 2, 1'024)));
  const sim::Cycle start = kernel.now();
  ASSERT_TRUE(run_receive(*c, 2, 10'000).has_value());
  const sim::Cycle latency = kernel.now() - start;
  // Store-and-forward over 4 switches would cost >= 4 * flits cycles.
  EXPECT_LT(latency, static_cast<sim::Cycle>(4 * flits));
  EXPECT_GT(latency, static_cast<sim::Cycle>(flits));
}

TEST_F(ConochiTest, DesignParametersMatchTable1) {
  auto c = make_row(2);
  auto d = c->design_parameters();
  EXPECT_EQ(d.type, core::ArchType::kNoc);
  EXPECT_EQ(d.switching, core::Switching::kVirtualCutThrough);
  EXPECT_EQ(d.overhead, "96 bit");
  EXPECT_EQ(d.max_payload, "1024 bytes");
  EXPECT_EQ(d.protocol_layers, 3u);
}

TEST_F(ConochiTest, RenderShowsTileTypes) {
  auto c = make_row(2);
  const std::string r = c->render();
  EXPECT_NE(r.find('S'), std::string::npos);
  EXPECT_NE(r.find('H'), std::string::npos);
  EXPECT_NE(r.find('O'), std::string::npos);
}

TEST_F(ConochiTest, LoopbackDelivers) {
  auto c = make_row(2);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  ASSERT_TRUE(c->send(pkt(1, 1, 4)));
  EXPECT_TRUE(c->receive(1).has_value());
}

TEST_F(ConochiTest, SendFailsWithoutAttachment) {
  auto c = make_row(2);
  ASSERT_TRUE(c->attach_at(1, mod(), {1, 1}));
  EXPECT_FALSE(c->send(pkt(1, 9, 4)));
  EXPECT_FALSE(c->send(pkt(9, 1, 4)));
}

TEST_F(ConochiTest, PerModuleSwitchScaling) {
  // Paper §4.1: one new switch per added module suffices for CoNoChi.
  for (int n = 2; n <= 5; ++n) {
    sim::Kernel k;
    ConochiConfig c2;
    c2.grid_width = 3 * n + 1;
    c2.grid_height = 4;
    Conochi c(k, c2);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(c.add_switch({1 + 3 * i, 1}));
      if (i > 0) {
        ASSERT_TRUE(c.lay_wire({3 * i - 1, 1}, {3 * i, 1}));
      }
      ASSERT_TRUE(c.attach_at(static_cast<fpga::ModuleId>(i + 1), mod(),
                              {1 + 3 * i, 1}));
    }
    EXPECT_EQ(c.switch_count(), static_cast<std::size_t>(n));
  }
}

}  // namespace
}  // namespace recosim::conochi
