#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/comm_arch.hpp"
#include "dynoc/sxy_routing.hpp"
#include "fpga/geometry.hpp"
#include "sim/arena.hpp"
#include "sim/work_set.hpp"

namespace recosim::dynoc {

/// Router forwarding discipline. The DyNoC prototype buffers whole
/// packets (store-and-forward); the virtual cut-through option exists to
/// isolate how much of CoNoChi's latency advantage comes from switching
/// discipline rather than topology (ablation, DESIGN.md §5).
enum class RouterSwitching {
  kStoreAndForward,
  kVirtualCutThrough,
};

/// Configuration of a DyNoC instance (paper §3.2, figure 3).
struct DynocConfig {
  int width = 5;                   ///< router/PE columns
  int height = 5;                  ///< router/PE rows
  unsigned link_width_bits = 32;
  std::uint32_t header_bits = 32;  ///< per-packet framing (1 head flit)
  /// Whole packets an input port can buffer (store-and-forward).
  std::size_t input_buffer_packets = 2;
  /// Routing-decision pipeline depth of a router, in cycles.
  sim::Cycle routing_delay = 2;
  RouterSwitching switching = RouterSwitching::kStoreAndForward;
};

/// DyNoC — Dynamic Network on Chip.
///
/// A width x height array of processing elements, each with a router.
/// A module placed over a rectangle of PEs removes the routers inside the
/// rectangle and gains their fabric; placement keeps every module fully
/// surrounded by active routers (one tile from the array border and from
/// other modules), which is the invariant S-XY routing relies on. 1x1
/// modules keep their router, matching the paper's table-3 assumption that
/// four 1-PE modules need only four switches.
///
/// Switching is store-and-forward at packet granularity with per-port
/// input buffers, credit-reserved link transfers of one flit per cycle and
/// a fixed routing-decision delay per hop.
class Dynoc final : public core::CommArchitecture {
 public:
  Dynoc(sim::Kernel& kernel, const DynocConfig& config);

  const DynocConfig& config() const { return config_; }

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

  /// DYN001 border fit, DYN002 surround invariant, DYN003 reachability
  /// (warning while routers are failed: the degradation is the fault's),
  /// DYN004 access-router liveness, FLP001 placement overlap.
  void verify_invariants(verify::DiagnosticSink& sink) const override;

  /// Packets buffered in router input ports or occupying links (drain
  /// census); `involving` filters by packet endpoint.
  std::size_t in_flight_packets(
      fpga::ModuleId involving = fpga::kInvalidModule) const override;

  /// Hard-fail the router at (x, y): its buffered and in-flight traffic is
  /// lost (counted as "packets_dropped_fault"), it becomes a 1x1 S-XY
  /// obstacle so live traffic routes around it, and modules whose access
  /// router died re-select one from their ring ("recovered_paths"). A 1x1
  /// module whose own router fails is isolated until heal_node().
  bool fail_node(int x, int y) override;
  bool heal_node(int x, int y) override;

  /// Re-select the access router of every module whose access point is
  /// currently dead; traffic then routes around the obstacle.
  std::size_t replan_paths() override;

  // DyNoC-specific ------------------------------------------------------------

  /// Place at an explicit position (top-left of the PE rectangle); the
  /// rectangle must keep the surround invariant. attach() chooses the
  /// first feasible position itself.
  bool attach_at(fpga::ModuleId id, const fpga::HardwareModule& m,
                 fpga::Point top_left);

  bool router_active(fpga::Point p) const;
  std::size_t active_router_count() const;
  std::optional<fpga::Rect> region_of(fpga::ModuleId id) const;
  std::optional<fpga::Point> access_router_of(fpga::ModuleId id) const;

  /// Hop count of the S-XY route between two attached modules (walks the
  /// routing function; includes no queueing).
  std::optional<int> route_hops(fpga::ModuleId src, fpga::ModuleId dst) const;

  /// ASCII rendering of the array (routers, modules, access points) for
  /// the figure-3 bench.
  std::string render() const;

  /// Packets dropped because routing failed (walled-in; should stay 0
  /// under the placement invariant). Each is also counted under
  /// "dropped_stale_route", so packets_dropped() includes them.
  std::uint64_t routing_failures() const {
    return stats().counter_value("routing_failures");
  }

  /// Busy-cycle count of every directed link between active routers, in
  /// row-major (router, direction) order. Quantifies the paper's remark
  /// that minimal routing does not load links equally.
  std::vector<std::uint64_t> link_busy_cycles() const;

  /// max/mean of the non-zero link loads (1.0 = perfectly even).
  double link_load_imbalance() const;

  // Component -----------------------------------------------------------------
  void eval() override {}
  void commit() override;
  /// The per-cycle work is entirely per-packet and per-busy-link; with
  /// nothing in the network the NoC sleeps (commit() deactivates, sends
  /// and mutators wake it).
  bool is_quiescent() const override { return network_empty(); }

 protected:
  bool do_send(const proto::Packet& p) override;

 private:
  static constexpr int kPorts = 5;  // N,E,S,W,Local

  struct FlyingPacket {
    proto::Packet packet;
    fpga::Point dest;            // destination access router
    sim::Cycle route_timer = 0;  // remaining routing-decision cycles
    SurroundState sxy;           // S-XY surround mode carried in the packet
    /// Cycle the packet's tail fully arrives where it currently queues
    /// (cut-through heads run ahead of their tails; ejection waits).
    sim::Cycle tail_arrival = 0;
  };

  struct OutLink {
    bool busy = false;
    /// False for cut-through transfers: the packet already queues
    /// downstream and the link only models tail occupancy.
    bool carries_packet = true;
    FlyingPacket packet;
    std::uint32_t flits_remaining = 0;
    std::uint64_t busy_cycles = 0;  // utilization accounting
  };

  struct Router {
    bool active = true;
    std::array<sim::PoolDeque<FlyingPacket>, kPorts> in;
    /// Slots in each input buffer promised to in-flight upstream
    /// transfers (credit reservation).
    std::array<std::uint32_t, kPorts> reserved{};
    std::array<OutLink, kDirCount> out{};
    /// Round-robin arbitration pointer per output (incl. local ejection).
    std::array<int, kPorts> rr{};
  };

  struct Placement {
    fpga::Rect rect;
    fpga::Point access;  // router the module sends/receives through
  };

  int idx(fpga::Point p) const { return p.y * config_.width + p.x; }
  bool in_array(fpga::Point p) const {
    return p.x >= 0 && p.x < config_.width && p.y >= 0 &&
           p.y < config_.height;
  }
  Router& at(fpga::Point p) { return routers_[static_cast<std::size_t>(idx(p))]; }
  const Router& at(fpga::Point p) const {
    return routers_[static_cast<std::size_t>(idx(p))];
  }
  bool network_empty() const;
  std::optional<fpga::Rect> obstacle_at(fpga::Point p) const;
  bool placement_keeps_surround(const fpga::Rect& r) const;
  fpga::Point choose_access(const fpga::Rect& r) const;
  std::uint32_t total_flits(const proto::Packet& p) const;
  void advance_links();
  void start_transfers();
  void advance_router_links(fpga::Point here, Router& router);
  void start_router_transfers(fpga::Point here, Router& router);
  void purge_router_traffic(fpga::Point p, const char* counter);
  void drop_traffic_towards(fpga::Point p, const char* counter);

  // -- per-router work set (busy-path gating, docs/performance.md) -----------
  // Invariant: router i is in work_ iff it has cycle work — a non-empty
  // input queue or a busy outgoing link (tail-only transfers included), so
  // work_.empty() <=> the network is empty. Sends and link arrivals mark
  // routers; the commit walk drops a router once it drains; topology
  // mutators rebuild the set wholesale. Maintained in both gated and
  // ungated modes — only the iteration strategy differs.
  bool router_has_work(const Router& r) const;
  void rebuild_work_set();

  DynocConfig config_;
  std::vector<Router> routers_;
  sim::WorkSet work_;
  std::set<int> failed_;  // router indices taken down by fail_node()
  std::map<fpga::ModuleId, Placement> placements_;
  SxyRouter sxy_;
};

}  // namespace recosim::dynoc
