#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "buscom/schedule.hpp"
#include "core/comm_arch.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace recosim::buscom {

/// Configuration of a BUS-COM instance (paper §3.1, figure 2).
struct BuscomConfig {
  int buses = 4;                   ///< k unsegmented buses
  int max_modules = 4;             ///< BUS-COM interface slots
  unsigned in_width_bits = 32;     ///< module -> bus width (prototype)
  unsigned out_width_bits = 16;    ///< bus -> module width (prototype)
  int slots_per_round = 32;        ///< FlexRay: 32 time slots per bus
  sim::Cycle cycles_per_slot = 16; ///< duration of one time slot
  /// Fraction of each round left as dynamic (priority-arbitrated) slots.
  double dynamic_fraction = 0.25;
  std::size_t tx_queue_depth = 64;
};

/// BUS-COM — unsegmented multi-bus with FlexRay-style TDMA arbitration.
///
/// All modules are physically connected to all k buses; *virtual* network
/// topologies arise from the slot tables: a module owning no slot towards a
/// bus simply never transmits there. Static slots guarantee bandwidth;
/// dynamic slots go to the highest-priority module with pending traffic.
/// Frames carry a 20-bit header; payload per packet is capped at 256 bytes
/// (larger packets are fragmented and reassembled by (src, packet id)).
class Buscom final : public core::CommArchitecture, public sim::Component {
 public:
  Buscom(sim::Kernel& kernel, const BuscomConfig& config);

  const BuscomConfig& config() const { return config_; }

  // CommArchitecture ---------------------------------------------------------
  bool attach(fpga::ModuleId id, const fpga::HardwareModule& m) override;
  bool detach(fpga::ModuleId id) override;
  bool is_attached(fpga::ModuleId id) const override;
  std::size_t attached_count() const override;
  core::DesignParameters design_parameters() const override;
  core::StructuralScores structural_scores() const override;
  unsigned link_width_bits() const override { return config_.in_width_bits; }
  std::size_t max_parallelism() const override {
    return static_cast<std::size_t>(config_.buses);  // d_max = k
  }
  sim::Cycle path_latency(fpga::ModuleId, fpga::ModuleId) const override {
    return 1;  // within an owned slot, the bus is a direct wire
  }

  /// BUS001 unattached slot owners, BUS003 round length, BUS004 modules
  /// without guaranteed bandwidth, BUS006 configuration ranges.
  void verify_invariants(verify::DiagnosticSink& sink) const override;

  /// Undelivered packets in the TX queues (drain census); dynamic-slot
  /// arbitration prefers quiesced modules so their backlog drains fast.
  std::size_t in_flight_packets(
      fpga::ModuleId involving = fpga::kInvalidModule) const override;
  std::size_t delivered_backlog() const override;

  /// Hard-fail bus `bus`: its slots are masked from arbitration, the
  /// fragment it carried is rolled back into the sender's TX queue (so no
  /// payload is lost), and its static slots are redistributed onto
  /// same-index dynamic slots of surviving buses at the next round
  /// boundary ("recovered_paths" per moved slot). heal_node() unmasks the
  /// bus; redistributed slots stay where they moved.
  bool fail_node(int bus, int unused = 0) override;
  bool heal_node(int bus, int unused = 0) override;

  /// Re-run the dead-bus slot redistribution for owners still without a
  /// static slot on a surviving bus (e.g. attached after the failure).
  std::size_t replan_paths() override;

  // BUS-COM specific ----------------------------------------------------------

  SystemSchedule& schedule() { return schedule_; }
  const SystemSchedule& schedule() const { return schedule_; }

  /// Runtime slot reassignment = the paper's virtual-topology adaptation.
  /// Takes effect at the start of the next round (the arbiter's tables are
  /// rewritten by partial reconfiguration between rounds).
  void reassign_static_slot(int bus, int slot, fpga::ModuleId owner);
  void reassign_dynamic_slot(int bus, int slot);

  /// Transmission priority used in dynamic-slot arbitration (lower value =
  /// higher priority). Default priority is the attach order.
  void set_priority(fpga::ModuleId id, int priority);

  /// Bytes of payload one slot can carry after the 20-bit header.
  std::uint32_t payload_bytes_per_slot() const;

  /// Worst-case cycles a static-slot owner waits for its next slot.
  sim::Cycle worst_case_slot_wait(fpga::ModuleId id) const;

  /// Number of transfers currently in flight in this TDMA slot (for the
  /// parallelism measurement; at most k).
  std::size_t active_transfers_now() const { return active_transfers_; }

  std::size_t tx_backlog(fpga::ModuleId id) const;

  sim::Trace& trace() { return trace_; }

  // Component -----------------------------------------------------------------
  void eval() override {}
  void commit() override;
  // With no TX backlog, no fragment on a bus and no staged table edit,
  // the per-cycle commit is pure TDMA phase bookkeeping — reconstructed
  // exactly in on_fast_forward() (slot counter advance plus the slot-start
  // reset of the bus-transfer registers), so an idle bus never blocks
  // idle-cycle fast-forward. With burst transfers enabled, commits
  // strictly inside a slot are the same pure bookkeeping even under load,
  // so a busy bus is quiescent up to the next slot boundary
  // (quiescent_deadline(); docs/performance.md).
  bool is_quiescent() const override;
  sim::Cycle quiescent_deadline() const override;
  void on_fast_forward(sim::Cycle from, sim::Cycle to) override;

 protected:
  bool do_send(const proto::Packet& p) override;
  std::optional<proto::Packet> do_receive(fpga::ModuleId at) override;

 private:
  struct TxPacket {
    proto::Packet packet;
    std::uint32_t bytes_sent = 0;
    bool started = false;
  };
  struct InFlight {
    bool valid = false;
    proto::Packet packet;
    std::uint32_t bytes = 0;
    bool last = false;
  };
  struct ReassemblyKey {
    fpga::ModuleId src;
    std::uint64_t packet_id;
    auto operator<=>(const ReassemblyKey&) const = default;
  };
  struct Reassembly {
    proto::Packet packet;
    std::uint32_t bytes_received = 0;
    bool got_last = false;
  };

  /// Pick the module transmitting on bus `b` in round slot `slot_idx`.
  fpga::ModuleId arbitrate(int b, int slot_idx) const;
  /// The fully idle quiescence condition (no traffic, no staged edits).
  bool idle_quiescent() const;
  void finish_slot_transfers();
  void begin_slot_transfers(int slot_idx);

  BuscomConfig config_;
  sim::Trace trace_;
  SystemSchedule schedule_;
  /// Slot-table edits staged until the next round start.
  std::vector<std::function<void()>> pending_ops_;

  std::vector<fpga::ModuleId> attach_order_;
  std::map<fpga::ModuleId, int> priority_;
  std::map<fpga::ModuleId, std::deque<TxPacket>> tx_;
  std::map<fpga::ModuleId, std::deque<proto::Packet>> delivered_;
  std::map<ReassemblyKey, Reassembly> reassembly_;
  /// Per-bus transfer active in the current slot: transmitting module,
  /// or kInvalidModule when the slot is idle.
  std::vector<fpga::ModuleId> bus_tx_;
  /// Fragment on each bus during the current slot.
  std::vector<InFlight> in_flight_;
  /// Buses taken down by fail_node(); masked from arbitration.
  std::set<int> failed_buses_;
  std::size_t active_transfers_ = 0;
  sim::Cycle slot_cycle_ = 0;  // cycle position inside the current slot
  int slot_idx_ = 0;           // position in the round
};

}  // namespace recosim::buscom
