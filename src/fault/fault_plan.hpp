#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace recosim::fault {

/// Classes of injectable faults. Node/link coordinates are interpreted by
/// each architecture (see core::CommArchitecture fault hooks): a DyNoC
/// router or CoNoChi switch is (x, y), an RMBoC lane is (segment, bus), a
/// BUS-COM bus is (bus, -).
enum class FaultKind {
  kNodeFail,   ///< hard failure of a router / switch / cross-point / bus
  kNodeHeal,   ///< repair of a previously failed node
  kLinkFail,   ///< hard failure of one link / bus lane
  kLinkHeal,   ///< repair of a previously failed link
  kIcapAbort,  ///< abort the next finishing ICAP transfer
};

/// The kinds as .fplan and chaos-schedule files spell them, indexed by
/// FaultKind.
inline constexpr std::string_view kFaultKindNames[] = {
    "fail_node", "heal_node", "fail_link", "heal_link", "abort_icap"};

inline std::string_view to_string(FaultKind k) {
  return kFaultKindNames[static_cast<std::size_t>(k)];
}

/// One scheduled fault, dispatched at the start of cycle `at`.
struct FaultEvent {
  sim::Cycle at = 0;
  FaultKind kind = FaultKind::kNodeFail;
  int a = 0;
  int b = 0;
};

/// A complete, reproducible fault scenario: deterministic scheduled
/// events plus stochastic per-packet rates drawn from the injector's own
/// forked Rng. The same seed and plan always yield the same fault
/// sequence, so every failure run can be replayed bit-for-bit.
struct FaultPlan {
  std::vector<FaultEvent> scheduled;

  /// Probability that a packet leaving the network has one bit of its
  /// integrity tag flipped (detected by the CRC check and dropped).
  double bit_flip_rate = 0.0;
  /// Probability that a packet leaving the network is lost outright.
  double drop_rate = 0.0;
  /// Probability that a finishing ICAP transfer aborts (in addition to
  /// scheduled kIcapAbort events).
  double icap_abort_rate = 0.0;

  FaultPlan& fail_node_at(sim::Cycle at, int a, int b = 0) {
    scheduled.push_back({at, FaultKind::kNodeFail, a, b});
    return *this;
  }
  FaultPlan& heal_node_at(sim::Cycle at, int a, int b = 0) {
    scheduled.push_back({at, FaultKind::kNodeHeal, a, b});
    return *this;
  }
  FaultPlan& fail_link_at(sim::Cycle at, int a, int b = 0) {
    scheduled.push_back({at, FaultKind::kLinkFail, a, b});
    return *this;
  }
  FaultPlan& heal_link_at(sim::Cycle at, int a, int b = 0) {
    scheduled.push_back({at, FaultKind::kLinkHeal, a, b});
    return *this;
  }
  FaultPlan& abort_icap_at(sim::Cycle at) {
    scheduled.push_back({at, FaultKind::kIcapAbort, 0, 0});
    return *this;
  }
};

/// The stochastic rates as .fplan and chaos-schedule files spell them,
/// and the FaultPlan field each one sets.
inline constexpr std::string_view kRateNames[] = {"bit_flip", "drop",
                                                  "icap_abort"};
inline constexpr double FaultPlan::*kRateFields[] = {
    &FaultPlan::bit_flip_rate, &FaultPlan::drop_rate,
    &FaultPlan::icap_abort_rate};
static_assert(std::size(kRateNames) == std::size(kRateFields));

}  // namespace recosim::fault
