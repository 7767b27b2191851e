// Failure-injection / reconfiguration-churn suite: modules attach and
// detach continuously under live traffic on every architecture. The
// invariant is exact conservation: every accepted packet is eventually
// delivered, counted as an intentional drop, or still in flight when the
// run is cut — after a drain with no further churn, accepted ==
// delivered + dropped.

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
    kernel.run(rng.uniform(5, 60));
    drain();
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
  }
  // Quiesce: reattach everyone so all delivery queues are reachable,
  // stop churning, let in-flight traffic land.
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
                      ChurnParams{Kind::kConochi, 1},
                      ChurnParams{Kind::kConochi, 2},
                      ChurnParams{Kind::kHierbus, 1},
                      ChurnParams{Kind::kHierbus, 2}),
    churn_name);

}  // namespace
}  // namespace recosim::core
