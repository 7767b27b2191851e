#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/comm_arch.hpp"
#include "sim/trace.hpp"

namespace recosim::rmboc {

/// Configuration of an RMBoC instance (paper §3.1, figure 1).
struct RmbocConfig {
  int slots = 4;                  ///< m: module slots, one cross-point each
  int buses = 4;                  ///< k: parallel segmented buses
  unsigned link_width_bits = 32;  ///< data width of each bus
  /// Packets a cross-point can queue while its channel is being set up.
  std::size_t xp_queue_depth = 16;
  /// Cycles a blocked sender waits before re-issuing a channel request.
  sim::Cycle retry_backoff = 8;
  /// Close an established channel after this many idle cycles (0 keeps
  /// channels open forever). The paper notes RMBoC's protocol "demands the
  /// system application to deal fairly with the resources"; the idle close
  /// is that fairness policy — without it, long-lived channels pin all
  /// segment lanes and later connection requests starve.
  sim::Cycle idle_close_cycles = 64;
};

/// RMBoC — Reconfigurable Multiple Bus on Chip.
///
/// m cross-points in a row, one per module slot; k buses run along the row,
/// *segmented* between neighbouring cross-points. A channel is built by a
/// REQUEST walking hop-by-hop towards the destination, reserving a free bus
/// in each segment (the bus index may differ per segment — that is the RMB
/// trick); the destination answers with a REPLY along the reserved path,
/// CANCEL releases a partly built path when a segment has no free bus, and
/// DESTROY tears an established channel down.
///
/// Timing model (calibrated to the paper): each cross-point spends 2 cycles
/// on a control message, so a channel over d hops costs 4*(d+1) cycles to
/// establish — 8 cycles minimum for adjacent slots, matching the paper's
/// "minimum of 8 clock cycles" for the 4-module system. Established
/// channels move one word per cycle end-to-end with path latency l_p = 1.
class Rmboc final : public core::CommArchitecture {
 public:
  Rmboc(sim::Kernel& kernel, const RmbocConfig& config);

  const RmbocConfig& config() const { return config_; }

  // CommArchitecture ---------------------------------------------------------
  bool attach(fpga::ModuleId id, const fpga::HardwareModule& m) override;
  bool detach(fpga::ModuleId id) override;
  core::DesignParameters design_parameters() const override;
  core::StructuralScores structural_scores() const override;
  unsigned link_width_bits() const override {
    return config_.link_width_bits;
  }
  std::size_t max_parallelism() const override;
  sim::Cycle path_latency(fpga::ModuleId src,
                          fpga::ModuleId dst) const override;

  /// RMB001 lane ranges, RMB002 orphaned circuits, RMB004 reservation-
  /// table/channel consistency, RMB006 slot ranges.
  void verify_invariants(verify::DiagnosticSink& sink) const override;

  /// Packets queued on channels (established or under construction) that
  /// have not yet been delivered; the drain census of reconfiguration
  /// transactions. `involving` filters by endpoint module.
  std::size_t in_flight_packets(
      fpga::ModuleId involving = fpga::kInvalidModule) const override;

  /// Hard-fail the cross-point of `slot`. On a 1-D segmented bus there is
  /// no way around a dead cross-point, so every circuit touching or
  /// crossing the slot is torn down and its queued traffic is lost
  /// ("packets_dropped_fault"); the slot's module is isolated until
  /// heal_node(). Channel requests towards/through the slot CANCEL and
  /// back off until then.
  bool fail_node(int slot, int unused = 0) override;
  bool heal_node(int slot, int unused = 0) override;

  /// Hard-fail one bus lane of one segment: (segment, bus). The channel
  /// holding the lane is destroyed and re-established from its source
  /// around the failure — the RMB trick lets it pick a different bus in
  /// that segment — keeping its queued traffic ("recovered_paths").
  bool fail_link(int segment, int bus) override;
  bool heal_link(int segment, int bus) override;

  /// Re-establish every channel holding a reservation on a lane that has
  /// since become unusable (failed lane or bounding cross-point); the new
  /// REQUEST picks healthy buses segment by segment.
  std::size_t replan_paths() override;

  // RMBoC-specific ------------------------------------------------------------

  /// Slot a module is attached to.
  std::optional<int> slot_of(fpga::ModuleId id) const;

  /// Open a channel src->dst reserving up to `lanes` parallel bus lanes
  /// per segment — the paper's §4.3 bandwidth adaptation ("a variable
  /// number of connections between two modules"). The request reserves as
  /// many free lanes as it finds per segment (at least one, else CANCEL);
  /// the channel then moves min-lanes words per cycle. Returns false if a
  /// channel for the pair already exists or the modules are unknown.
  bool open_channel(fpga::ModuleId src, fpga::ModuleId dst, int lanes = 1);

  /// Effective lane count of an established channel (min over segments);
  /// 0 when no channel is established.
  int channel_lanes(fpga::ModuleId src, fpga::ModuleId dst) const;

  /// Explicitly tear down the (src,dst) channel with a DESTROY message.
  /// Returns false if no such channel is established.
  bool close_channel(fpga::ModuleId src, fpga::ModuleId dst);

  /// True once a channel src->dst is established.
  bool has_channel(fpga::ModuleId src, fpga::ModuleId dst) const;

  /// Channels currently established (for d_max measurements).
  std::size_t established_channels() const;

  /// Bus segments currently reserved.
  std::size_t reserved_segments() const;

  /// Setup latency of a d-hop channel under the timing model, in cycles.
  static sim::Cycle setup_latency(int hops) {
    return 4 * (static_cast<sim::Cycle>(hops) + 1);
  }

  sim::Trace& trace() { return trace_; }

  // Component -----------------------------------------------------------------
  void eval() override {}
  void commit() override;
  /// The per-cycle work is entirely per-channel; with no channels the bus
  /// sleeps (commit() deactivates, sends and mutators wake it). With burst
  /// transfers enabled the bus is additionally fast-forward pollable:
  /// established channels that are mid-burst or waiting out the idle-close
  /// window make commit() a no-op until a known future cycle, so the
  /// kernel may jump straight to it (docs/performance.md).
  bool is_quiescent() const override;
  sim::Cycle quiescent_deadline() const override;

 protected:
  bool do_send(const proto::Packet& p) override;

 private:
  enum class ChannelState {
    kRequesting,   // REQUEST walking towards destination
    kReplying,     // REPLY walking back along the reserved path
    kCancelling,   // CANCEL walking back, releasing segments
    kBackoff,      // blocked request waiting before retrying
    kEstablished,  // data may flow
    kDestroying,   // DESTROY walking along the path
    kClosed,       // torn down, awaiting removal
  };

  struct Channel {
    std::uint32_t id;
    int src_slot;
    int dst_slot;
    fpga::ModuleId src_module;
    fpga::ModuleId dst_module;
    ChannelState state;
    /// Lanes requested at open time (bandwidth adaptation).
    int lanes_requested = 1;
    /// Bus indices reserved per segment along the path (path order);
    /// inner vector = the parallel lanes grabbed in that segment.
    std::vector<std::vector<int>> bus_per_segment;
    /// Control-message progress: index of the cross-point currently
    /// processing the in-flight message (slot index), plus a cycle timer.
    int msg_at_slot;
    sim::Cycle msg_timer;
    /// Data in flight: words remaining of the packet at queue front.
    std::uint32_t words_remaining = 0;
    /// Bulk transfer: cycle the scheduled burst delivers the front packet
    /// (kNeverCycle = moving word-by-word). An uncontended established
    /// circuit computes its delivery cycle up front and skips the
    /// per-cycle decrements; faults and teardown drop back to word mode
    /// via replan_channel()/reopen, which restart the packet from word 0
    /// exactly as the per-cycle path would.
    sim::Cycle burst_until = sim::kNeverCycle;
    std::deque<proto::Packet> queue;
    sim::Cycle last_activity = 0;
  };

  int direction(const Channel& c) const { return c.dst_slot > c.src_slot ? 1 : -1; }
  /// Segment index between slot s and slot s+1.
  int segment_between(int a, int b) const { return std::min(a, b); }
  bool lane_usable(int segment, int bus) const;
  /// Tear the channel's reservations down and restart its REQUEST from
  /// the source, keeping the queued traffic.
  void replan_channel(Channel& c);
  int find_free_bus(int segment) const;
  /// Up to `want` free bus indices in `segment`.
  std::vector<int> find_free_buses(int segment, int want) const;
  int effective_lanes(const Channel& c) const;
  Channel& create_channel(int src_slot, int dst_slot, fpga::ModuleId src,
                          fpga::ModuleId dst, int lanes);
  Channel* find_channel(int src_slot, int dst_slot);
  const Channel* find_channel(int src_slot, int dst_slot) const;
  void release_segments(Channel& c, std::size_t keep_first_n);
  void advance_request(Channel& c);
  void advance_cancel(Channel& c);
  void advance_destroy(Channel& c);
  void pump_data(Channel& c);

  RmbocConfig config_;
  sim::Trace trace_;

  std::map<fpga::ModuleId, int> slot_by_module_;
  std::vector<fpga::ModuleId> module_by_slot_;

  /// reservation_[segment][bus] = channel id or kFreeSegment.
  static constexpr std::uint32_t kFreeSegment = 0;
  std::vector<std::vector<std::uint32_t>> reservation_;

  /// failed_lanes_[segment][bus]: lanes taken down by fail_link().
  std::vector<std::vector<bool>> failed_lanes_;
  /// Cross-points taken down by fail_node().
  std::set<int> failed_xp_;

  std::map<std::uint32_t, Channel> channels_;
  std::uint32_t next_channel_id_ = 1;

  /// Senders backing off after a blocked request: slot -> retry cycle.
  std::map<std::pair<int, int>, sim::Cycle> backoff_until_;
};

}  // namespace recosim::rmboc
