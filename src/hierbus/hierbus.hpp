#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/comm_arch.hpp"

namespace recosim::hierbus {

/// Which bus of the hierarchy a module hangs off.
enum class BusTier {
  kSystem,      // high-speed system bus (AHB/PLB class)
  kPeripheral,  // low-speed peripheral bus (APB/OPB class)
};

/// Configuration of the hierarchical-bus baseline (paper §2.2: AMBA,
/// CoreConnect — "a low-speed peripheral bus connected to a high-speed
/// system bus through a bridge").
struct HierBusConfig {
  unsigned system_width_bits = 32;
  unsigned peripheral_width_bits = 32;
  /// Peripheral-bus clock divider: one data beat every N kernel cycles.
  sim::Cycle peripheral_divider = 2;
  /// Address/arbitration phase preceding every burst.
  sim::Cycle arbitration_cycles = 1;
  /// Packets the bridge can buffer per direction.
  std::size_t bridge_buffer_packets = 4;
  std::size_t tx_queue_depth = 32;
};

/// Conventional (non-reconfigurable) hierarchical bus: the baseline the
/// paper's surveyed architectures improve on. One master transfer at a
/// time per bus, granted by a round-robin arbiter; cross-tier traffic is
/// store-and-forwarded by the bridge, which competes for the target bus
/// like any master — the bottleneck §2.2 warns about ("bridges may lead
/// to bottlenecks between hardware modules on separated buses").
///
/// Modules attach before traffic starts (conventional SoCs fix the module
/// set at design time); detach exists for API completeness but models a
/// redesign, not runtime reconfiguration.
class HierBus final : public core::CommArchitecture {
 public:
  HierBus(sim::Kernel& kernel, const HierBusConfig& config);

  const HierBusConfig& config() const { return config_; }

  /// Attach to a specific tier.
  bool attach_to(fpga::ModuleId id, BusTier tier);

  // CommArchitecture ---------------------------------------------------------
  /// attach() alternates tiers (even ids to the system bus) — use
  /// attach_to() for explicit placement.
  bool attach(fpga::ModuleId id, const fpga::HardwareModule& m) override;
  bool detach(fpga::ModuleId id) override;
  core::DesignParameters design_parameters() const override;
  core::StructuralScores structural_scores() const override;
  unsigned link_width_bits() const override {
    return config_.system_width_bits;
  }
  std::size_t max_parallelism() const override { return 2; }  // one per bus
  sim::Cycle path_latency(fpga::ModuleId src,
                          fpga::ModuleId dst) const override;

  std::optional<BusTier> tier_of(fpga::ModuleId id) const;
  std::size_t bridge_backlog() const {
    return to_system_.size() + to_peripheral_.size();
  }

  /// Packets in a TX queue, occupying a bus or buffered in the bridge;
  /// `involving` filters by packet endpoint.
  std::size_t in_flight_packets(
      fpga::ModuleId involving = fpga::kInvalidModule) const override;

  // Component -----------------------------------------------------------------
  void eval() override {}
  void commit() override;
  /// The per-cycle work is per-transfer; with idle buses, empty TX queues
  /// and an empty bridge the baseline sleeps (commit() deactivates, sends
  /// and mutators wake it).
  bool is_quiescent() const override { return network_empty(); }

 protected:
  bool do_send(const proto::Packet& p) override;

 private:
  struct Transfer {
    proto::Packet packet;
    bool to_bridge = false;       // first leg of a cross-tier transfer
    sim::Cycle remaining = 0;     // cycles until the burst completes
  };

  struct Bus {
    BusTier tier;
    std::optional<Transfer> active;
    std::vector<fpga::ModuleId> members;
    std::size_t rr = 0;  // round-robin arbitration pointer
  };

  bool network_empty() const;
  sim::Cycle burst_cycles(const proto::Packet& p, BusTier tier) const;
  Bus& bus_for(BusTier tier) {
    return tier == BusTier::kSystem ? system_ : peripheral_;
  }
  void arbitrate(Bus& bus);
  void advance(Bus& bus);

  HierBusConfig config_;
  Bus system_;
  Bus peripheral_;
  std::map<fpga::ModuleId, BusTier> tier_;
  std::map<fpga::ModuleId, std::deque<proto::Packet>> tx_;
  /// Bridge buffers per direction.
  std::deque<proto::Packet> to_system_;
  std::deque<proto::Packet> to_peripheral_;
};

}  // namespace recosim::hierbus
