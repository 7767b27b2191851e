#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "conochi/tile_grid.hpp"
#include "core/comm_arch.hpp"
#include "proto/address.hpp"
#include "sim/anchor.hpp"
#include "sim/arena.hpp"
#include "sim/component.hpp"
#include "sim/trace.hpp"

namespace recosim::conochi {

/// Configuration of a CoNoChi instance (paper §3.2, figure 4).
struct ConochiConfig {
  int grid_width = 8;
  int grid_height = 8;
  unsigned link_width_bits = 32;
  /// Whole packets one switch input port can buffer (virtual cut-through
  /// falls back to buffering the complete packet when blocked).
  std::size_t input_buffer_packets = 4;
  /// Header-processing latency of a switch.
  sim::Cycle switch_delay = 2;
  /// Latency added by each H/V wire tile (pipelined line macros).
  sim::Cycle wire_tile_delay = 1;
  /// Cycles the global control unit needs to rewrite one switch's routing
  /// table after a topology change.
  sim::Cycle table_update_cycles = 8;
  /// Keep redirect entries after a module moved (packet redirection,
  /// paper §4.2). Disabled in the ablation to show its value.
  bool enable_redirection = true;
  /// Delay until senders learn a moved module's new physical address
  /// (logical->physical map update latency of the interface modules).
  sim::Cycle address_update_delay = 64;
};

/// Port directions of a CoNoChi switch (four equal full-duplex links).
enum class Port { kNorth = 0, kEast = 1, kSouth = 2, kWest = 3 };
inline constexpr int kSwitchPorts = 4;

/// CoNoChi — Configurable Network on Chip.
///
/// The network lives on a TileGrid; switches (S tiles) are connected by
/// straight runs of H/V wire tiles. The *global control unit* — part of
/// this class — derives the switch graph from the grid, computes routing
/// tables centrally (shortest path by latency) and installs them one
/// switch at a time without stalling traffic; until a switch's new table
/// is installed it keeps forwarding with the old one. Packets carry a
/// three-layer, 96-bit header: physical addresses route (table lookup),
/// logical addresses are resolved by interface modules, and redirection
/// entries forward traffic for modules that moved.
class Conochi final : public core::CommArchitecture, public sim::Component {
 public:
  Conochi(sim::Kernel& kernel, const ConochiConfig& config);

  const ConochiConfig& config() const { return config_; }
  const TileGrid& grid() const { return grid_; }

  // CommArchitecture ---------------------------------------------------------
  bool attach(fpga::ModuleId id, const fpga::HardwareModule& m) override;
  bool detach(fpga::ModuleId id) override;
  bool is_attached(fpga::ModuleId id) const override;
  std::size_t attached_count() const override;
  core::DesignParameters design_parameters() const override;
  core::StructuralScores structural_scores() const override;
  unsigned link_width_bits() const override {
    return config_.link_width_bits;
  }
  std::size_t max_parallelism() const override;
  sim::Cycle path_latency(fpga::ModuleId src,
                          fpga::ModuleId dst) const override;

  /// CON001 table loops, CON002 reachability, CON003 dangling table
  /// entries, CON004 redirect chains, CON005 stale resolutions, CON006
  /// grid/switch/link consistency. Table walks are skipped while the
  /// control unit is still installing tables (tables_converging()).
  void verify_invariants(verify::DiagnosticSink& sink) const override;

  /// Packets queued inside switches (drain census); `involving` filters
  /// by packet endpoint. move_module() refuses quiesced modules so a
  /// transaction's snapshot stays stable while it drains.
  std::size_t in_flight_packets(
      fpga::ModuleId involving = fpga::kInvalidModule) const override;
  std::size_t delivered_backlog() const override;

  /// Hard-fail the switch at (x, y). Unlike remove_switch() this works
  /// with modules attached (they are isolated until heal_node()), drops
  /// the switch's buffered packets ("packets_dropped_fault") and has the
  /// control unit re-plan every surviving routing table around the dead
  /// switch; first-hop routes that found another way are counted as
  /// "recovered_paths".
  bool fail_node(int x, int y) override;
  /// Reactivate a failed switch, rebuild links/tables, and re-park any
  /// module interface sitting on a port whose wire run now reaches an
  /// active switch (interfaces fall back onto such "parked line" ports
  /// only when a blackout leaves no line-free port — see attach()).
  /// Locally if the switch has a line-free port, else to another switch
  /// through the move_module() redirect machinery; quiesced modules are
  /// pinned and stay put.
  bool heal_node(int x, int y) override;

  /// Have the control unit rebuild links and routing tables from the
  /// current failure set; returns the number of switches whose effective
  /// table changed.
  std::size_t replan_paths() override;

  // Topology management (the global control unit's interface) ---------------

  /// Place a switch on an O tile. Links to neighbouring switches form
  /// where unbroken H/V runs exist. Triggers staged routing-table updates.
  bool add_switch(fpga::Point pos);

  /// Remove the switch at `pos` (must have no attached modules). Buffered
  /// packets are re-routed by their upstream switches' new tables;
  /// packets inside the removed switch are lost and counted.
  bool remove_switch(fpga::Point pos);

  /// Lay a straight run of wire tiles (H for horizontal, V for vertical)
  /// between two points on one row/column of O tiles.
  bool lay_wire(fpga::Point from, fpga::Point to);

  /// Inverse of lay_wire: retype a straight run of wire tiles back to O
  /// (used when garbage-collecting topology after a switch removal).
  bool clear_wire(fpga::Point from, fpga::Point to);

  /// Number of modules attached to the switch at `pos` (0 if none/no
  /// switch).
  int modules_at(fpga::Point pos) const;

  /// Number of connected inter-switch links of the switch at `pos`.
  int links_at(fpga::Point pos) const;

  /// Attach a module to a free port of the switch at `pos`.
  bool attach_at(fpga::ModuleId id, const fpga::HardwareModule& m,
                 fpga::Point pos);

  /// Move an attached module to (a free port of) another switch. Installs
  /// a redirect at the old switch; senders learn the new address after
  /// config().address_update_delay cycles.
  bool move_module(fpga::ModuleId id, fpga::Point new_switch);

  std::size_t switch_count() const;
  std::size_t link_count() const;  // directed inter-switch links
  std::optional<fpga::Point> switch_of(fpga::ModuleId id) const;
  bool has_switch_at(fpga::Point pos) const;

  /// True while any switch still runs on a stale routing table.
  bool tables_converging() const;

  std::uint64_t packets_lost() const {
    return stats().counter_value("dropped_stale_route") +
           stats().counter_value("dropped_reconfig") +
           stats().counter_value("dropped_no_module");
  }

  std::string render() const { return grid_.render(); }

  sim::Trace& trace() { return trace_; }

  // Component -----------------------------------------------------------------
  void eval() override {}
  void commit() override;
  /// The per-cycle work is per-queued-packet plus time-triggered table
  /// installs; with empty switch queues and converged tables the network
  /// sleeps (commit() deactivates, sends and mutators wake it).
  bool is_quiescent() const override { return network_empty(); }

 protected:
  bool do_send(const proto::Packet& p) override;
  std::optional<proto::Packet> do_receive(fpga::ModuleId at) override;

 private:
  struct QueuedPacket {
    proto::Packet packet;
    int dst_switch = -1;          // physical address (switch id)
    sim::Cycle head_ready = 0;    // cycle the header is available here
  };

  struct Link {
    bool connected = false;
    int peer_switch = -1;
    Port peer_port{};
    sim::Cycle wire_delay = 0;    // from intervening H/V tiles
    sim::Cycle busy_until = 0;    // output occupied while the tail leaves
  };

  struct Switch {
    int id = -1;
    fpga::Point pos;
    bool active = true;
    std::array<Link, kSwitchPorts> links{};
    /// Module attached per port (kInvalidModule = none / link use).
    std::array<fpga::ModuleId, kSwitchPorts> module{};
    std::array<sim::PoolDeque<QueuedPacket>, kSwitchPorts + 1>
        in;  // +injection
    std::array<std::uint32_t, kSwitchPorts + 1> reserved{};
    std::array<int, kSwitchPorts + 1> rr{};
    /// dst switch id -> output port.
    std::map<int, int> table;
    /// Staged table and the cycle it becomes active.
    std::map<int, int> pending_table;
    sim::Cycle table_install_at = 0;
    bool table_pending = false;
    /// Redirection entries: module id -> current switch id.
    std::map<fpga::ModuleId, int> redirect;
  };

  bool network_empty() const;
  Switch* switch_at(fpga::Point pos);
  const Switch* switch_at(fpga::Point pos) const;
  Switch& sw(int id) { return switches_[static_cast<std::size_t>(id)]; }
  const Switch& sw(int id) const {
    return switches_[static_cast<std::size_t>(id)];
  }
  void rebuild_links();
  void recompute_tables();
  /// True when the port's wire run reaches another switch tile — i.e. the
  /// port carries (or, while the peer is failed, will carry again) an
  /// inter-switch line that a module interface must not squat on.
  bool port_has_parked_wire(const Switch& s, int p) const;
  std::uint32_t total_flits(const proto::Packet& p) const;
  void process_switch(Switch& s);
  bool try_forward(Switch& s, int in_port);
  void deliver_or_redirect(Switch& s, int in_port);

  // -- per-switch work set (busy-path gating, docs/performance.md) -----------
  // Bit i set iff switch i has cycle work: a non-empty input queue or a
  // staged table install (time-triggered work). Mirrors network_empty(),
  // so work_count_ == 0 <=> the network may sleep. Sends and forwards mark
  // bits, the commit walk clears drained switches, topology mutators and
  // recompute_tables() rebuild the set.
  bool switch_has_work(const Switch& s) const;
  void mark_work(int i);
  void update_work_bit(int i);
  void rebuild_work_set();

  /// Take the first acceptable free port of `s` for `id`; with
  /// allow_parked false, ports whose wire run reaches another switch are
  /// refused (see attach()/attach_at() for the two-pass protocol).
  bool attach_on(Switch& s, fpga::ModuleId id, bool allow_parked);

  /// The switch a wire run leaving `s` through port `p` reaches, or
  /// nullptr when the run peters out before hitting an S tile.
  const Switch* wire_peer(const Switch& s, int p) const;

  /// Move interfaces off ports whose wire run reaches an active switch,
  /// as long as an alternative port exists; returns the number moved.
  /// Called after a heal reconnects lines (see heal_node()).
  std::size_t repark_blocked_interfaces();
  /// move_module() without its closing invariant check, for callers that
  /// rebuild links and tables after the move and check at their end.
  bool relocate_module(fpga::ModuleId id, fpga::Point new_switch);

  ConochiConfig config_;
  sim::Trace trace_;
  TileGrid grid_;
  std::vector<Switch> switches_;  // slot reuse: inactive entries stay
  std::vector<std::uint64_t> work_bits_;
  std::size_t work_count_ = 0;
  /// Switches taken down by fail_node() (distinguishes a faulted switch,
  /// whose S tile and attachments persist, from a removed one).
  std::set<int> failed_switches_;

  struct Attachment {
    int switch_id;
    int port;
  };
  std::map<fpga::ModuleId, Attachment> attachments_;
  /// The interface modules' logical->physical view used at injection.
  std::map<fpga::ModuleId, int> resolution_;
  std::map<fpga::ModuleId, sim::PoolDeque<proto::Packet>> delivered_;
  /// Fragment counting for transfers above the 1024-byte payload cap,
  /// keyed by (source module, packet id).
  struct FragmentReassembly {
    std::uint32_t fragments_received = 0;
  };
  std::map<std::pair<fpga::ModuleId, std::uint64_t>, FragmentReassembly>
      reassembly_;
  sim::Cycle next_table_install_ = 0;
  sim::CallbackAnchor anchor_;  ///< last member: invalidated first
};

}  // namespace recosim::conochi
