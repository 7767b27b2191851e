// Failure-injection / reconfiguration-churn suite: modules attach and
// detach continuously under live traffic and random hard faults on every
// architecture. The invariant is exact conservation, checked at every
// step: every accepted packet is delivered, counted as an intentional
// drop, still in flight, or waiting in a delivery queue — and once every
// fault is healed and the network drained with no further churn,
// accepted == delivered + dropped.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "buscom/buscom.hpp"
#include "conochi/conochi.hpp"
#include "core/comparison.hpp"
#include "dynoc/dynoc.hpp"
#include "rmboc/rmboc.hpp"
#include "sim/rng.hpp"

namespace recosim::core {
namespace {

enum class Kind { kRmboc, kBuscom, kDynoc, kConochi, kHierbus };

struct ChurnParams {
  Kind kind;
  std::uint64_t seed;
};

std::string churn_name(const ::testing::TestParamInfo<ChurnParams>& info) {
  switch (info.param.kind) {
    case Kind::kRmboc: return "Rmboc_s" + std::to_string(info.param.seed);
    case Kind::kBuscom: return "Buscom_s" + std::to_string(info.param.seed);
    case Kind::kDynoc: return "Dynoc_s" + std::to_string(info.param.seed);
    case Kind::kConochi:
      return "Conochi_s" + std::to_string(info.param.seed);
    case Kind::kHierbus:
      return "Hierbus_s" + std::to_string(info.param.seed);
  }
  return "?";
}

/// sent == delivered + dropped + in flight + delivery backlog.
::testing::AssertionResult conserves(const CommArchitecture& arch) {
  const std::uint64_t in_flight = arch.in_flight_packets();
  const std::uint64_t backlog = arch.delivered_backlog();
  if (arch.packets_sent() == arch.packets_delivered() +
                                 arch.packets_dropped() + in_flight +
                                 backlog)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "sent=" << arch.packets_sent()
         << " delivered=" << arch.packets_delivered()
         << " dropped=" << arch.packets_dropped()
         << " in_flight=" << in_flight << " backlog=" << backlog;
}

class ChurnTest : public ::testing::TestWithParam<ChurnParams> {
 protected:
  MinimalSystem build() {
    switch (GetParam().kind) {
      case Kind::kRmboc: return make_minimal_rmboc();
      case Kind::kBuscom: return make_minimal_buscom();
      case Kind::kDynoc: return make_minimal_dynoc(4, 6);
      case Kind::kConochi: return make_minimal_conochi();
      case Kind::kHierbus: return make_minimal_hierbus();
    }
    return make_minimal_rmboc();
  }

  /// Re-attach a module by id. For the NoCs the position is chosen by
  /// the architecture; the bus systems reuse any free slot.
  bool reattach(CommArchitecture& arch, fpga::ModuleId id) {
    fpga::HardwareModule m;
    m.name = "churn";
    return arch.attach(id, m);
  }
};

TEST_P(ChurnTest, ConservationUnderAttachDetachChurn) {
  auto sys = build();
  auto& arch = *sys.arch;
  auto& kernel = *sys.kernel;
  sim::Rng rng(GetParam().seed);

  std::uint64_t accepted = 0;
  std::uint64_t received = 0;
  std::map<fpga::ModuleId, bool> attached;
  for (auto m : sys.modules) attached[m] = true;

  auto drain = [&] {
    for (auto m : sys.modules)
      if (attached[m])
        while (arch.receive(m)) ++received;
  };

  for (int step = 0; step < 200; ++step) {
    // Offer traffic between currently attached modules.
    std::vector<fpga::ModuleId> live;
    for (auto m : sys.modules)
      if (attached[m]) live.push_back(m);
    if (live.size() >= 2) {
      for (int i = 0; i < 3; ++i) {
        proto::Packet p;
        p.src = live[static_cast<std::size_t>(rng.index(live.size()))];
        do {
          p.dst = live[static_cast<std::size_t>(rng.index(live.size()))];
        } while (p.dst == p.src);
        p.payload_bytes = static_cast<std::uint32_t>(rng.uniform(4, 300));
        if (arch.send(p)) ++accepted;
      }
    }
    ASSERT_TRUE(conserves(arch)) << "after the sends, step " << step;
    kernel.run(rng.uniform(5, 60));
    ASSERT_TRUE(conserves(arch)) << "after the run, step " << step;
    drain();
    ASSERT_TRUE(conserves(arch)) << "after the drain, step " << step;
    // Churn: detach a random module or re-attach a missing one.
    if (rng.chance(0.15)) {
      const auto m =
          sys.modules[static_cast<std::size_t>(rng.index(sys.modules.size()))];
      if (attached[m]) {
        EXPECT_TRUE(arch.detach(m));
        attached[m] = false;
      } else if (reattach(arch, m)) {
        attached[m] = true;
      }
    }
    ASSERT_TRUE(conserves(arch)) << "after the churn, step " << step;
    // Faults: fail or heal a random resource, or re-plan around the
    // current failures. Each backend refuses coordinates it has no
    // resource for.
    if (rng.chance(0.2)) {
      const int a = static_cast<int>(rng.uniform(0, 7));
      const int b = static_cast<int>(rng.uniform(0, 7));
      switch (rng.index(5)) {
        case 0: arch.fail_node(a, b); break;
        case 1: arch.fail_link(a, b); break;
        case 2: arch.heal_node(a, b); break;
        case 3: arch.heal_link(a, b); break;
        default: arch.replan_paths(); break;
      }
    }
    ASSERT_TRUE(conserves(arch)) << "after the fault, step " << step;
  }
  // Quiesce: heal every fault and reattach everyone so all delivery
  // queues are reachable, stop churning, let in-flight traffic land.
  for (int a = 0; a <= 7; ++a)
    for (int b = 0; b <= 7; ++b) {
      arch.heal_node(a, b);
      arch.heal_link(a, b);
    }
  for (auto m : sys.modules)
    if (!attached[m] && reattach(arch, m)) attached[m] = true;
  for (int i = 0; i < 200; ++i) {
    kernel.run(100);
    drain();
  }
  EXPECT_EQ(received + arch.packets_dropped(), accepted)
      << "received=" << received << " dropped=" << arch.packets_dropped();
  EXPECT_LE(received, accepted);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ChurnTest,
    ::testing::Values(ChurnParams{Kind::kRmboc, 1},
                      ChurnParams{Kind::kRmboc, 2},
                      ChurnParams{Kind::kBuscom, 1},
                      ChurnParams{Kind::kBuscom, 2},
                      ChurnParams{Kind::kDynoc, 1},
                      ChurnParams{Kind::kDynoc, 2},
                      // S-XY finds no direction around fresh obstacles;
                      // seed 186 loses such a packet at step 137.
                      ChurnParams{Kind::kDynoc, 186},
                      ChurnParams{Kind::kDynoc, 309},
                      ChurnParams{Kind::kConochi, 1},
                      ChurnParams{Kind::kConochi, 2},
                      ChurnParams{Kind::kHierbus, 1},
                      ChurnParams{Kind::kHierbus, 2}),
    churn_name);

}  // namespace
}  // namespace recosim::core
