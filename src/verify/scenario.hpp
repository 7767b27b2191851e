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

/// One architecture setting (`set <key> <value>`): its key, its default,
/// and whether it takes whole numbers only. A whole-number setting must lie
/// in [0, max]; a real one need only be finite, its range being a rule's
/// business (BUS006).
struct SettingDecl {
  std::string_view key;
  double fallback;
  bool integral;
  double max;
};

/// Cap of the fabric-size settings: a 1024x1024 DyNoC mesh keeps every
/// router index inside int and the analyzer's mesh buffers at a few MB.
inline constexpr double kSettingCap = 1024;

/// Every setting a scenario may declare, with its default.
inline constexpr SettingDecl kSettings[] = {
    {"buses", 4, true, kSettingCap},             // BUS-COM buses, RMBoC k
    {"slots_per_round", 32, true, kSettingCap},  // BUS-COM TDMA round
    {"cycles_per_slot", 16, false, 0},           // BUS-COM
    {"in_width_bits", 32, false, 0},             // BUS-COM bus width
    {"dynamic_fraction", 0.25, false, 0},        // BUS-COM dynamic share
    {"slots", 4, true, kSettingCap},             // RMBoC cross-point slots
    {"width", 5, true, kSettingCap},             // DyNoC array
    {"height", 5, true, kSettingCap},
    {"grid_width", 8, true, kSettingCap},        // CoNoChi tile grid
    {"grid_height", 8, true, kSettingCap},
    {"hop_cycles", 4, false, 0},                 // latency per hop
    {"full_column", 1, true, 1},                 // floorplan: 0 or 1
    {"drain_timeout", 20000, true, 1e9},         // timeline: txn drain
};

/// Declarative description of a communication-architecture configuration,
/// checkable without instantiating (or running) the simulator. This is the
/// input recosim-lint works on: the guarded runtime APIs refuse most
/// invalid states outright, so the linter needs a representation that can
/// express the *intended* configuration — including infeasible ones — and
/// explain why it cannot work. Its text form (.rcs) is one line per
/// directive, read by verify/line_reader.hpp; the grammar is in
/// docs/static-analysis.md.
struct Scenario {
  ArchKind arch = ArchKind::kNone;
  std::string source;  ///< file name (diagnostics location)

  struct Module {
    int id = 0;
    int width = 1;
    int height = 1;
  };
  std::vector<Module> modules;

  /// Architecture settings, keyed by kSettings keys.
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
  /// The value of declared setting `key`: as set, else its default.
  double setting(std::string_view key) const {
    if (auto it = settings.find(key); it != settings.end()) return it->second;
    for (const SettingDecl& d : kSettings)
      if (d.key == key) return d.fallback;
    return 0.0;
  }
};

/// Parse a scenario from text. Malformed lines and directives that do not
/// fit the declared architecture are reported as LNT001/LNT002 at their
/// line:column; parsing continues so one bad line does not hide the rest.
/// Returns nullopt only when nothing useful could be parsed (no arch).
std::optional<Scenario> parse_scenario(const std::string& text,
                                       const std::string& source_name,
                                       DiagnosticSink& sink);

/// Parse a scenario file; reports LNT001 when the file cannot be read.
std::optional<Scenario> parse_scenario_file(const std::string& path,
                                            DiagnosticSink& sink);

}  // namespace recosim::verify
