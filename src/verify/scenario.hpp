#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fpga/geometry.hpp"
#include "verify/diagnostic.hpp"

namespace recosim::verify {

/// Which architecture a scenario describes.
enum class ArchKind { kNone, kBuscom, kRmboc, kDynoc, kConochi };

const char* to_string(ArchKind k);

/// Declarative description of a communication-architecture configuration,
/// checkable without instantiating (or running) the simulator. This is the
/// input recosim-lint works on: the guarded runtime APIs refuse most
/// invalid states outright, so the linter needs a representation that can
/// express the *intended* configuration — including infeasible ones — and
/// explain why it cannot work.
///
/// Scenarios are written in a line-oriented text format (.rcs):
///
///   # comment
///   arch dynoc                 # buscom | rmboc | dynoc | conochi
///   set width 5                # numeric setting (architecture config)
///   module 1 2 2               # id [width height]
///
///   slot 0 3 1                 # BUS-COM: bus, slot, owner module
///   demand 1 4096              # BUS-COM: payload bytes per round
///   place 1 0                  # RMBoC: module, slot
///   channel 1 2 2              # RMBoC: src, dst [, lanes]
///   place 1 1 1                # DyNoC: module, x, y (top-left)
///   switch 2 2                 # CoNoChi: x, y
///   wire 2 2 5 2               # CoNoChi: straight H/V run
///   attach 1 2 2               # CoNoChi: module at switch (x, y)
///   route 2 2 3 1              # CoNoChi: at (x,y) towards switch
///                              #   index 3, leave on port 1 (N,E,S,W)
///   deadline 1 2 400           # envelope: worst-case latency bound in
///                              #   cycles for traffic src 1 -> dst 2
///   device 48 32               # floorplan: fabric size in CLBs
///   region 1 0 0 12 16         # floorplan: module, x, y, w, h
///   port 1 12                  # floorplan: module interface bits
///
/// Timed events (the timeline verifier's input; `at <cycle> <event>`):
///
///   at 1000 load 3             # load module (static placement, if any)
///   at 1000 load 3 2           # RMBoC: load into cross-point slot 2
///   at 1000 load 3 4 1         # DyNoC place / CoNoChi attach at (4, 1)
///   at 2000 unload 3           # unload module
///   at 2000 swap 3 4           # swap: 4 replaces 3 (inherits placement)
///   at 1200 open 1 2 2         # open channel src -> dst [, lanes]
///   at 1800 close 1 2          # close one matching channel
///   at 1500 epoch 1 4096       # BUS-COM: demand becomes bytes/round
///   at 1500 slot 0 3 1         # BUS-COM: reassign (bus, slot) to owner
///   at 2500 unslot 0 3         # BUS-COM: release (bus, slot)
struct Scenario {
  ArchKind arch = ArchKind::kNone;
  std::string source;  ///< file name (diagnostics location)

  struct Module {
    int id = 0;
    int width = 1;
    int height = 1;
  };
  std::vector<Module> modules;

  /// Architecture settings ("buses", "slots_per_round", "width", ...);
  /// their defaults live in the analyzer's model (verify/topology.hpp).
  std::map<std::string, double, std::less<>> settings;

  /// Where each placed module sits: RMBoC {slot, 0}, DyNoC top-left tile,
  /// CoNoChi attach switch (a scenario has one architecture).
  std::map<int, fpga::Point> placement;

  // BUS-COM
  struct SlotAssign {
    int bus = 0;
    int slot = 0;
    int owner = 0;
  };
  std::vector<SlotAssign> slots;
  std::map<int, double> demand;  ///< module -> payload bytes per round

  // RMBoC
  struct Channel {
    int src = 0;
    int dst = 0;
    int lanes = 1;
  };
  std::vector<Channel> channels;

  // CoNoChi
  std::vector<fpga::Point> switches;
  struct Wire {
    fpga::Point a, b;
  };
  std::vector<Wire> wires;
  struct Route {
    fpga::Point at;       ///< switch the entry lives in
    int dst_switch = 0;   ///< destination switch index (declaration order)
    int port = 0;         ///< 0 N, 1 E, 2 S, 3 W
  };
  std::vector<Route> routes;  ///< explicit overrides of the computed tables

  // Envelope analysis (any architecture): declared worst-case latency
  // bounds per flow, checked by ENV002 in every window where both
  // endpoints are live.
  std::map<std::pair<int, int>, long long> deadlines;

  // Floorplan
  int device_width = 0;  ///< 0 = no floorplan checks
  int device_height = 0;
  struct Region {
    int module = 0;
    fpga::Rect rect;
  };
  std::vector<Region> regions;
  std::map<int, int> port_bits;  ///< module -> interface width in bits

  // Timeline (events are kept in file order; the timeline verifier
  // stable-sorts by cycle so same-cycle events apply in file order).
  struct TimedEvent {
    enum class Kind {
      kLoad, kUnload, kSwap, kOpen, kClose, kEpoch, kSlot, kUnslot
    };
    long long at = 0;
    Kind kind = Kind::kLoad;
    // Meaning per kind: load (a = module, b[,c] = optional placement),
    // unload (a), swap (a = old, b = new), open/close (a = src, b = dst,
    // c = lanes), epoch (a = module, value = bytes), slot (a = bus,
    // b = slot, c = owner), unslot (a = bus, b = slot).
    int a = 0;
    int b = 0;
    int c = 0;
    double value = 0;
    bool has_place = false;
    int line = 0;    ///< source position (diagnostics)
    int column = 0;
  };
  std::vector<TimedEvent> events;

  bool has_module(int id) const {
    for (const auto& m : modules)
      if (m.id == id) return true;
    return false;
  }
  /// Setting value with a default.
  double setting(std::string_view key, double fallback) const {
    auto it = settings.find(key);
    return it == settings.end() ? fallback : it->second;
  }
};

/// Parse a scenario from text. Malformed lines and directives that do not
/// fit the declared architecture are reported as LNT001/LNT002 with the
/// line number; parsing continues so one bad line does not hide the rest.
/// Returns nullopt only when nothing useful could be parsed (no arch).
std::optional<Scenario> parse_scenario(const std::string& text,
                                       const std::string& source_name,
                                       DiagnosticSink& sink);

/// Parse a scenario file; reports LNT001 when the file cannot be read.
std::optional<Scenario> parse_scenario_file(const std::string& path,
                                            DiagnosticSink& sink);

}  // namespace recosim::verify
