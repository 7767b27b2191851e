#pragma once

// The static analyzer's model of one scenario: its architecture settings,
// each with its one default, its module footprints, and the structure the
// paper compares the architectures by — the BUS-COM TDMA slot payload,
// RMBoC's d_max = s*k segment lanes, the DyNoC router mesh in which placed
// modules are obstacles S-XY routes around, and the CoNoChi switch graph
// with its default routing tables. The rule families (snapshot checkers,
// timeline, envelope pass, fault-plan rules) ask this model; none of them
// derives the structure itself.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fpga/geometry.hpp"
#include "verify/scenario.hpp"

namespace recosim::verify {

/// Failed nodes or links, keyed by their fault-plan coordinates (a, b).
using FailedSet = std::set<std::pair<int, int>>;

/// "module <id>", the object name of module findings.
std::string module_str(int id);

/// Compact deterministic number rendering for messages: integers without
/// the ".000000" std::to_string(double) appends.
std::string num(double v);

/// BUS-COM buses and RMBoC cross-points are one-dimensional: a node fault
/// names them by its first coordinate only.
bool node_failed_1d(const FailedSet& failed, int a);

/// The DyNoC router mesh: one router per tile of the width x height array,
/// minus the tiles covered by modules of area > 1 (unit modules keep their
/// router). Which modules count is the caller's data.
class DynocMesh {
 public:
  DynocMesh(int width, int height, const std::vector<fpga::Rect>& modules);

  /// A live router: inside the array, not under a module, not failed.
  bool open(fpga::Point p, const FailedSet* failed = nullptr) const;
  /// Where a module at `r` meets the mesh: its own tile when it is a unit
  /// module, else the open routers of its ring.
  std::vector<fpga::Point> access_routers(const fpga::Rect& r) const;
  /// Hops from the nearest of `starts` to the routers over open routers,
  /// indexed by index(); -1 where unreached. The starts are taken as given.
  /// The flood stops once it reaches one of `goals` (none: everywhere), so
  /// the nearest goal carries the least hop count of them all.
  std::vector<int> flood(const std::vector<fpga::Point>& starts,
                         const FailedSet* failed,
                         const std::vector<fpga::Point>& goals = {}) const;
  /// Hops between the open access routers of two modules; -1 when none
  /// connect.
  int distance(const fpga::Rect& a, const fpga::Rect& b,
               const FailedSet* failed) const;
  /// Position of the router at `p` in a flood() result.
  std::size_t index(fpga::Point p) const {
    return static_cast<std::size_t>(p.y * width_ + p.x);
  }

 private:
  int width_;
  int height_;
  std::vector<char> obstacle_;
};

/// One scenario read once. The scenario must outlive the model.
class Topology {
 public:
  explicit Topology(const Scenario& s);

  const Scenario& scenario() const { return s_; }

  // Settings (`set <key> <value>`), named after their keys.
  const int buses;                // BUS-COM buses, RMBoC lanes k
  const int slots_per_round;      // BUS-COM TDMA round
  const double cycles_per_slot;   // BUS-COM
  const double in_width_bits;     // BUS-COM bus width
  const double dynamic_fraction;  // BUS-COM dynamic share of the round
  const int slots;                // RMBoC cross-point slots s
  const int width;                // DyNoC array
  const int height;
  const int grid_width;           // CoNoChi tile grid
  const int grid_height;
  const double hop_cycles;        // latency per hop (RMBoC, DyNoC, CoNoChi)
  const bool full_column;         // floorplan: full-column reconfiguration
  const long long drain_timeout;  // timeline: drain budget of a txn

  // --- Modules -------------------------------------------------------------

  /// Where module `id` sits: RMBoC {slot, 0}, DyNoC top-left tile, CoNoChi
  /// attach switch; nullopt when unplaced.
  std::optional<fpga::Point> placement(int id) const;
  /// The tiles module `id` covers at its placement: its declared size, 1x1
  /// when undeclared; nullopt when unplaced.
  std::optional<fpga::Rect> footprint(int id) const;
  /// The failed node that takes module `id`'s own access point down — its
  /// RMBoC cross-point, a DyNoC router inside its footprint (the first in
  /// `nodes` order), its CoNoChi attach switch — or nullopt.
  std::optional<fpga::Point> failed_access(int id,
                                           const FailedSet& nodes) const;

  // --- BUS-COM -------------------------------------------------------------

  /// Payload bytes one TDMA slot carries: its bits minus the 20-bit header,
  /// in [1, 256].
  double slot_payload() const;
  bool slot_in_range(const Scenario::SlotAssign& a) const;
  /// Buses with no failed node.
  int buses_up(const FailedSet& nodes) const;
  /// Static slots per owner in the scenario's table (in range, the first
  /// assignment of a (bus, slot) wins), and those on un-failed buses.
  struct SlotShares {
    std::map<int, int> owned;
    std::map<int, int> owned_up;
  };
  SlotShares slot_shares(const FailedSet& nodes) const;

  // --- RMBoC ---------------------------------------------------------------

  int segments() const;
  /// The segments [lo, hi) a circuit between two placed modules crosses.
  struct Span {
    int lo = 0;
    int hi = 0;
  };
  std::optional<Span> span(int a, int b) const;
  /// Lanes the channels hold per segment, counting every placed channel of
  /// at least one lane: as requested, and clamped to the bus count.
  struct SegmentLanes {
    std::vector<int> requested;
    std::vector<int> held;
  };
  SegmentLanes segment_lanes(
      const std::vector<Scenario::Channel>& channels) const;
  /// Lanes of segment `seg` not failed in `links`, never below 0.
  int lanes_up(int seg, const FailedSet& links) const;

  // --- DyNoC ---------------------------------------------------------------

  DynocMesh mesh(const std::vector<fpga::Rect>& modules) const {
    return DynocMesh(width, height, modules);
  }

  // --- CoNoChi -------------------------------------------------------------

  /// Index of the first switch declared at `p`; -1 when none.
  int switch_index(fpga::Point p) const;
  /// The switch a routing entry's port (0 N, 1 E, 2 S, 3 W) of switch `sw`
  /// leads to; -1 when the port has no link.
  int port_peer(int sw, int port) const;
  /// The default routing table of switch `src`: per destination switch,
  /// the first-hop port of a shortest path; -1 when unreachable.
  std::vector<int> first_ports(int src) const;
  /// Hops between two switches transiting only un-failed switches; -1
  /// when none connect.
  int switch_distance(int a, int b, const FailedSet* failed) const;

 private:
  /// One derived CoNoChi link, seen from one of its switches.
  struct Link {
    int peer = 0;
    int port = 0;
  };
  using SwitchGraph = std::vector<std::vector<Link>>;
  struct Hops {
    std::vector<int> dist;
    std::vector<int> first_port;
  };
  Hops hops(const SwitchGraph& graph, int src, const FailedSet* failed) const;

  const Scenario& s_;
  /// Every link: two switches on a row or column, a declared wire run over
  /// the tiles between them (none needed when adjacent), no switch between.
  SwitchGraph links_;
  /// Per port the one link a routing entry takes: of switches sharing a
  /// tile, the last declared.
  SwitchGraph routed_;
};

}  // namespace recosim::verify
