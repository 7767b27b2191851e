#include "conochi/conochi.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <string>

#include "verify/diagnostic.hpp"

namespace recosim::conochi {

namespace {
std::string point_str(fpga::Point p) {
  return "(" + std::to_string(p.x) + "," + std::to_string(p.y) + ")";
}

/// Ascending scan over set bits, re-reading each word live so bits set at
/// *higher* indices during the scan are visited this same pass (matching
/// the full walk, where a forward push is seen by the later iteration) and
/// bits set at indices already passed wait until the next cycle (the full
/// walk had already moved past them).
template <typename Fn>
void scan_work_bits(const std::vector<std::uint64_t>& bits, Fn&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    std::uint64_t mask = ~std::uint64_t{0};
    while (const std::uint64_t pending = bits[w] & mask) {
      const int b = std::countr_zero(pending);
      mask = b == 63 ? 0 : ~std::uint64_t{0} << (b + 1);
      fn(static_cast<int>(w * 64) + b);
    }
  }
}
}  // namespace

Conochi::Conochi(sim::Kernel& kernel, const ConochiConfig& config)
    : core::CommArchitecture(kernel, "CoNoChi"),
      sim::Component(kernel, "CoNoChi"),
      config_(config),
      trace_(kernel),
      grid_(config.grid_width, config.grid_height) {
  assert(config.grid_width >= 2 && config.grid_height >= 2);
  assert(config.link_width_bits >= 1);
  bind_activity(this);
}

bool Conochi::network_empty() const { return work_count_ == 0; }

bool Conochi::switch_has_work(const Switch& s) const {
  if (!s.active) return false;
  // A pending table install is time-triggered work: the switch must be
  // evaluated at table_install_at even with empty queues.
  if (s.table_pending) return true;
  for (const auto& q : s.in)
    if (!q.empty()) return true;
  return false;
}

void Conochi::mark_work(int i) {
  const std::size_t w = static_cast<std::size_t>(i) / 64;
  const std::uint64_t bit = std::uint64_t{1} << (static_cast<unsigned>(i) % 64);
  if (!(work_bits_[w] & bit)) {
    work_bits_[w] |= bit;
    ++work_count_;
  }
}

void Conochi::update_work_bit(int i) {
  const std::size_t w = static_cast<std::size_t>(i) / 64;
  const std::uint64_t bit = std::uint64_t{1} << (static_cast<unsigned>(i) % 64);
  const bool want = switch_has_work(switches_[static_cast<std::size_t>(i)]);
  const bool have = (work_bits_[w] & bit) != 0;
  if (want && !have) {
    work_bits_[w] |= bit;
    ++work_count_;
  } else if (!want && have) {
    work_bits_[w] &= ~bit;
    --work_count_;
  }
}

void Conochi::rebuild_work_set() {
  // switches_ only grows (inactive slots are kept for id stability), so
  // resizing here — every structural mutation funnels through
  // recompute_tables() — keeps the bitmap in step with add_switch().
  work_bits_.assign((switches_.size() + 63) / 64, 0);
  work_count_ = 0;
  for (const auto& s : switches_)
    if (switch_has_work(s)) mark_work(s.id);
}

std::size_t Conochi::delivered_backlog() const {
  std::size_t n = 0;
  for (const auto& [m, queue] : delivered_) n += queue.size();
  return n;
}

Conochi::Switch* Conochi::switch_at(fpga::Point pos) {
  for (auto& s : switches_)
    if (s.active && s.pos == pos) return &s;
  return nullptr;
}

const Conochi::Switch* Conochi::switch_at(fpga::Point pos) const {
  for (const auto& s : switches_)
    if (s.active && s.pos == pos) return &s;
  return nullptr;
}

bool Conochi::has_switch_at(fpga::Point pos) const {
  return switch_at(pos) != nullptr;
}

std::size_t Conochi::switch_count() const {
  std::size_t n = 0;
  for (const auto& s : switches_)
    if (s.active) ++n;
  return n;
}

std::size_t Conochi::link_count() const {
  std::size_t n = 0;
  for (const auto& s : switches_) {
    if (!s.active) continue;
    for (const auto& l : s.links)
      if (l.connected) ++n;
  }
  return n;
}

bool Conochi::add_switch(fpga::Point pos) {
  if (!grid_.in_bounds(pos)) return false;
  // A switch can replace a module tile or be *inserted into a wire run*,
  // splitting one link into two — the canonical CoNoChi topology edit.
  const TileType t = grid_.at(pos);
  if (t != TileType::kO && t != TileType::kH && t != TileType::kV)
    return false;
  grid_.set(pos, TileType::kS);
  Switch s;
  s.id = static_cast<int>(switches_.size());
  s.pos = pos;
  s.module.fill(fpga::kInvalidModule);
  switches_.push_back(std::move(s));
  rebuild_links();
  recompute_tables();
  stats().counter("switches_added").add();
  debug_check_invariants();
  return true;
}

bool Conochi::remove_switch(fpga::Point pos) {
  Switch* s = switch_at(pos);
  if (!s) return false;
  for (auto m : s->module)
    if (m != fpga::kInvalidModule) return false;  // detach modules first
  for (auto& q : s->in) {
    stats().counter("dropped_reconfig").add(q.size());
    q.clear();
  }
  s->active = false;
  s->table.clear();
  s->table_pending = false;
  grid_.set(pos, TileType::kO);
  rebuild_links();
  recompute_tables();
  stats().counter("switches_removed").add();
  debug_check_invariants();
  return true;
}

bool Conochi::lay_wire(fpga::Point from, fpga::Point to) {
  if (!grid_.in_bounds(from) || !grid_.in_bounds(to)) return false;
  if (from.x != to.x && from.y != to.y) return false;
  const bool horizontal = from.y == to.y;
  const TileType wire = horizontal ? TileType::kH : TileType::kV;
  const int lo = horizontal ? std::min(from.x, to.x) : std::min(from.y, to.y);
  const int hi = horizontal ? std::max(from.x, to.x) : std::max(from.y, to.y);
  for (int i = lo; i <= hi; ++i) {
    const fpga::Point p = horizontal ? fpga::Point{i, from.y}
                                     : fpga::Point{from.x, i};
    if (grid_.at(p) != TileType::kO && grid_.at(p) != wire) return false;
  }
  for (int i = lo; i <= hi; ++i) {
    const fpga::Point p = horizontal ? fpga::Point{i, from.y}
                                     : fpga::Point{from.x, i};
    grid_.set(p, wire);
  }
  rebuild_links();
  recompute_tables();
  debug_check_invariants();
  return true;
}

bool Conochi::clear_wire(fpga::Point from, fpga::Point to) {
  if (!grid_.in_bounds(from) || !grid_.in_bounds(to)) return false;
  if (from.x != to.x && from.y != to.y) return false;
  const bool horizontal = from.y == to.y;
  const TileType wire = horizontal ? TileType::kH : TileType::kV;
  const int lo = horizontal ? std::min(from.x, to.x) : std::min(from.y, to.y);
  const int hi = horizontal ? std::max(from.x, to.x) : std::max(from.y, to.y);
  for (int i = lo; i <= hi; ++i) {
    const fpga::Point p = horizontal ? fpga::Point{i, from.y}
                                     : fpga::Point{from.x, i};
    if (grid_.at(p) != wire) return false;
  }
  for (int i = lo; i <= hi; ++i) {
    const fpga::Point p = horizontal ? fpga::Point{i, from.y}
                                     : fpga::Point{from.x, i};
    grid_.set(p, TileType::kO);
  }
  rebuild_links();
  recompute_tables();
  debug_check_invariants();
  return true;
}

bool Conochi::fail_node(int x, int y) {
  Switch* s = switch_at({x, y});
  if (!s) return false;
  const int dead = s->id;
  for (auto& q : s->in) {
    if (!q.empty()) stats().counter("packets_dropped_fault").add(q.size());
    q.clear();
  }
  s->reserved.fill(0);
  s->active = false;
  s->table.clear();
  s->pending_table.clear();
  s->table_pending = false;
  failed_switches_.insert(dead);
  // Remember every surviving switch's first hops through the dead switch,
  // then let the control unit re-plan; routes that come back with another
  // first hop recovered.
  std::map<int, std::set<int>> via_dead;
  for (const auto& o : switches_) {
    if (!o.active) continue;
    for (const auto& [dst, port] : o.table) {
      const Link& l = o.links[static_cast<std::size_t>(port)];
      if (l.connected && l.peer_switch == dead && dst != dead)
        via_dead[o.id].insert(dst);
    }
  }
  rebuild_links();
  recompute_tables();
  for (const auto& [sw_id, dsts] : via_dead) {
    const Switch& o = sw(sw_id);
    const auto& table = o.table_pending ? o.pending_table : o.table;
    for (int dst : dsts)
      if (table.count(dst)) stats().counter("recovered_paths").add();
  }
  stats().counter("switch_failures").add();
  debug_check_invariants();
  return true;
}

std::size_t Conochi::replan_paths() {
  // Global re-plan: the control unit rebuilds the link graph and routing
  // tables from the current failure set. Switches whose effective table
  // changes have had routes moved off a dead resource.
  std::map<int, std::map<int, int>> before;
  for (const auto& s : switches_) {
    if (!s.active) continue;
    before[s.id] = s.table_pending ? s.pending_table : s.table;
  }
  rebuild_links();
  recompute_tables();
  std::size_t changed = 0;
  for (const auto& s : switches_) {
    if (!s.active) continue;
    const auto& now = s.table_pending ? s.pending_table : s.table;
    auto it = before.find(s.id);
    if (it == before.end() || it->second != now) {
      stats().counter("recovered_paths").add();
      ++changed;
    }
  }
  if (changed) wake_network();
  return changed;
}

bool Conochi::heal_node(int x, int y) {
  for (auto& s : switches_) {
    if (s.active || !(s.pos == fpga::Point{x, y})) continue;
    if (!failed_switches_.count(s.id)) continue;  // removed, not failed
    s.active = true;
    failed_switches_.erase(s.id);
    rebuild_links();
    recompute_tables();
    repark_blocked_interfaces();
    stats().counter("switch_heals").add();
    debug_check_invariants();
    return true;
  }
  return false;
}

std::size_t Conochi::repark_blocked_interfaces() {
  // A blackout can force attach() onto a parked-line port (no line-free
  // port anywhere); once the line's far switch is active again the
  // interface blocks rebuild_links() from reconnecting it. Move such
  // interfaces to harmless ports until none can be moved. Every move
  // lands on a port with no wire run at all, so a moved interface can
  // never become blocked again and the loop terminates.
  std::size_t moved = 0;
  for (bool again = true; again;) {
    again = false;
    for (auto& s : switches_) {
      if (again) break;  // link state changed: rebuild before rescanning
      if (!s.active) continue;
      for (int p = 0; p < kSwitchPorts && !again; ++p) {
        const fpga::ModuleId id = s.module[static_cast<std::size_t>(p)];
        if (id == fpga::kInvalidModule) continue;
        const Switch* peer = wire_peer(s, p);
        if (peer == nullptr || !peer->active) continue;
        if (is_quiesced(id)) continue;  // pinned by a reconfig snapshot
        // Local first: another port of the same switch keeps the
        // module's address and needs no redirect.
        for (int q = 0; q < kSwitchPorts; ++q) {
          if (q == p ||
              s.module[static_cast<std::size_t>(q)] !=
                  fpga::kInvalidModule ||
              s.links[static_cast<std::size_t>(q)].connected ||
              port_has_parked_wire(s, q))
            continue;
          s.module[static_cast<std::size_t>(p)] = fpga::kInvalidModule;
          s.module[static_cast<std::size_t>(q)] = id;
          attachments_[id] = Attachment{s.id, q};
          ++moved;
          again = true;
          break;
        }
        if (again) break;
        // Else any active switch with a line-free free port, through the
        // regular redirect machinery.
        for (const auto& t : switches_) {
          if (!t.active || t.id == s.id) continue;
          bool line_free = false;
          for (int q = 0; q < kSwitchPorts && !line_free; ++q)
            line_free =
                t.module[static_cast<std::size_t>(q)] ==
                    fpga::kInvalidModule &&
                !t.links[static_cast<std::size_t>(q)].connected &&
                !port_has_parked_wire(t, q);
          if (line_free && relocate_module(id, t.pos)) {
            ++moved;
            again = true;
            break;
          }
        }
      }
    }
    if (again) {
      // The freed port's line can reconnect now.
      rebuild_links();
      recompute_tables();
    }
  }
  if (moved > 0) {
    stats().counter("interfaces_reparked").add(moved);
    wake_network();
  }
  return moved;
}

int Conochi::modules_at(fpga::Point pos) const {
  const Switch* s = switch_at(pos);
  if (!s) return 0;
  int n = 0;
  for (auto m : s->module)
    if (m != fpga::kInvalidModule) ++n;
  return n;
}

int Conochi::links_at(fpga::Point pos) const {
  const Switch* s = switch_at(pos);
  if (!s) return 0;
  int n = 0;
  for (const auto& l : s->links)
    if (l.connected) ++n;
  return n;
}

void Conochi::rebuild_links() {
  for (auto& s : switches_) {
    if (!s.active) continue;
    for (int p = 0; p < kSwitchPorts; ++p)
      s.links[static_cast<std::size_t>(p)] = Link{};
  }
  auto connect = [this](Switch& a, Port pa, Switch& b, Port pb,
                        sim::Cycle wire_delay) {
    if (a.module[static_cast<std::size_t>(static_cast<int>(pa))] !=
            fpga::kInvalidModule ||
        b.module[static_cast<std::size_t>(static_cast<int>(pb))] !=
            fpga::kInvalidModule)
      return;  // port is taken by an interface module
    auto& la = a.links[static_cast<std::size_t>(static_cast<int>(pa))];
    auto& lb = b.links[static_cast<std::size_t>(static_cast<int>(pb))];
    la = Link{true, b.id, pb, wire_delay, 0};
    lb = Link{true, a.id, pa, wire_delay, 0};
  };
  for (auto& s : switches_) {
    if (!s.active) continue;
    auto east = grid_.trace_run(s.pos, 1, 0, TileType::kH);
    if (east.hit_switch) {
      if (Switch* t = switch_at(east.end)) {
        connect(s, Port::kEast, *t, Port::kWest,
                static_cast<sim::Cycle>(east.wire_tiles) *
                    config_.wire_tile_delay);
      }
    }
    auto south = grid_.trace_run(s.pos, 0, 1, TileType::kV);
    if (south.hit_switch) {
      if (Switch* t = switch_at(south.end)) {
        connect(s, Port::kSouth, *t, Port::kNorth,
                static_cast<sim::Cycle>(south.wire_tiles) *
                    config_.wire_tile_delay);
      }
    }
  }
}

void Conochi::recompute_tables() {
  // All-pairs shortest path (Dijkstra per source; graphs are tiny). The
  // edge weight models the header's traversal cost: the sending switch's
  // processing delay plus the line latency.
  std::size_t queued = 0;
  for (const auto& s : switches_)
    if (s.active)
      for (const auto& q : s.in) queued += q.size();

  for (auto& src : switches_) {
    if (!src.active) continue;
    const std::size_t n = switches_.size();
    std::vector<sim::Cycle> dist(n, std::numeric_limits<sim::Cycle>::max());
    std::vector<int> first_port(n, -1);
    std::vector<bool> done(n, false);
    dist[static_cast<std::size_t>(src.id)] = 0;
    for (;;) {
      int u = -1;
      sim::Cycle best = std::numeric_limits<sim::Cycle>::max();
      for (std::size_t i = 0; i < n; ++i)
        if (!done[i] && switches_[i].active && dist[i] < best) {
          best = dist[i];
          u = static_cast<int>(i);
        }
      if (u < 0) break;
      done[static_cast<std::size_t>(u)] = true;
      const Switch& us = sw(u);
      for (int p = 0; p < kSwitchPorts; ++p) {
        const Link& l = us.links[static_cast<std::size_t>(p)];
        if (!l.connected) continue;
        const auto v = static_cast<std::size_t>(l.peer_switch);
        if (!switches_[v].active) continue;
        const sim::Cycle w =
            dist[static_cast<std::size_t>(u)] + config_.switch_delay +
            l.wire_delay + 1;
        if (w < dist[v]) {
          dist[v] = w;
          first_port[v] =
              (u == src.id) ? p : first_port[static_cast<std::size_t>(u)];
        }
      }
    }
    src.pending_table.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) == src.id || !switches_[i].active) continue;
      if (first_port[i] >= 0)
        src.pending_table[static_cast<int>(i)] = first_port[i];
    }
    if (queued == 0) {
      // Quiescent network: the control unit installs instantly.
      src.table = src.pending_table;
      src.table_pending = false;
    } else {
      // Live network: one switch is rewritten at a time, without stalling
      // the others (paper §3.2).
      next_table_install_ =
          std::max(next_table_install_, sim::Component::kernel().now()) +
          config_.table_update_cycles;
      src.table_install_at = next_table_install_;
      src.table_pending = true;
    }
  }
  // Every structural mutation funnels through here; staged installs are
  // time-triggered, so the network must run until they land.
  rebuild_work_set();
  wake_network();
}

bool Conochi::attach(fpga::ModuleId id, const fpga::HardwareModule& m) {
  // Fleet-wide parked-wire preference: exhaust genuinely line-free ports
  // on *every* switch before occupying any port whose wire run reaches
  // another switch. Doing the fallback per switch instead (as attach_at()
  // must, given a fixed position) would park a module on the first
  // switch's downed line while a later switch still had a free port —
  // permanently severing the line if the module is never unloaded.
  for (const bool allow_parked : {false, true})
    for (auto& s : switches_) {
      if (!s.active) continue;
      if (attach_on(s, id, allow_parked)) return true;
    }
  return false;
}

const Conochi::Switch* Conochi::wire_peer(const Switch& s, int p) const {
  int dx = 0, dy = 0;
  TileType wire = TileType::kH;
  switch (static_cast<Port>(p)) {
    case Port::kNorth: dy = -1; wire = TileType::kV; break;
    case Port::kEast: dx = 1; wire = TileType::kH; break;
    case Port::kSouth: dy = 1; wire = TileType::kV; break;
    case Port::kWest: dx = -1; wire = TileType::kH; break;
  }
  const auto run = grid_.trace_run(s.pos, dx, dy, wire);
  if (!run.hit_switch) return nullptr;
  return switch_at(run.end);
}

bool Conochi::port_has_parked_wire(const Switch& s, int p) const {
  return wire_peer(s, p) != nullptr;
}

bool Conochi::attach_on(Switch& s, fpga::ModuleId id, bool allow_parked) {
  if (id == fpga::kInvalidModule || attachments_.count(id)) return false;
  for (int p = 0; p < kSwitchPorts; ++p) {
    if (s.module[static_cast<std::size_t>(p)] != fpga::kInvalidModule ||
        s.links[static_cast<std::size_t>(p)].connected)
      continue;
    if (!allow_parked && port_has_parked_wire(s, p)) continue;
    s.module[static_cast<std::size_t>(p)] = id;
    attachments_[id] = Attachment{s.id, p};
    resolution_[id] = s.id;
    delivered_[id];
    wake_network();
    debug_check_invariants();
    return true;
  }
  return false;
}

bool Conochi::attach_at(fpga::ModuleId id, const fpga::HardwareModule&,
                        fpga::Point pos) {
  Switch* s = switch_at(pos);
  if (!s) return false;
  // Two passes: a port whose wire run reaches another switch carries (or
  // will carry again, once a failed neighbour heals) an inter-switch
  // line. Taking such a port while the line is down would permanently
  // sever it — rebuild_links() refuses ports held by module interfaces —
  // so prefer genuinely line-free ports and fall back only if none exist.
  for (const bool allow_parked : {false, true})
    if (attach_on(*s, id, allow_parked)) return true;
  return false;
}

bool Conochi::detach(fpga::ModuleId id) {
  auto it = attachments_.find(id);
  if (it == attachments_.end()) return false;
  Switch& s = sw(it->second.switch_id);
  s.module[static_cast<std::size_t>(it->second.port)] = fpga::kInvalidModule;
  attachments_.erase(it);
  resolution_.erase(id);
  if (auto dit = delivered_.find(id); dit != delivered_.end()) {
    stats().counter("dropped_detach").add(dit->second.size());
    delivered_.erase(dit);
  }
  for (auto& sx : switches_) sx.redirect.erase(id);
  rebuild_links();  // the freed port may reconnect a parked line
  recompute_tables();
  debug_check_invariants();
  return true;
}

std::size_t Conochi::in_flight_packets(fpga::ModuleId involving) const {
  std::size_t n = 0;
  for (const auto& s : switches_) {
    if (s.id < 0) continue;  // never-initialized slot
    for (const auto& q : s.in)
      for (const auto& qp : q) {
        if (involving != fpga::kInvalidModule &&
            qp.packet.src != involving && qp.packet.dst != involving)
          continue;
        ++n;
      }
  }
  return n;
}

bool Conochi::move_module(fpga::ModuleId id, fpga::Point new_switch) {
  if (!relocate_module(id, new_switch)) return false;
  debug_check_invariants();
  return true;
}

bool Conochi::relocate_module(fpga::ModuleId id, fpga::Point new_switch) {
  // A quiesced module is pinned: a reconfiguration transaction relies on
  // its attachment snapshot staying valid through drain and streaming.
  if (is_quiesced(id)) return false;
  auto it = attachments_.find(id);
  if (it == attachments_.end()) return false;
  Switch* t = switch_at(new_switch);
  if (!t) return false;
  int free_port = -1;
  // Same preference as attach_at: keep module interfaces off ports whose
  // wire run reaches another switch, so downed lines can come back.
  for (const bool allow_parked : {false, true}) {
    for (int p = 0; p < kSwitchPorts && free_port < 0; ++p) {
      if (t->module[static_cast<std::size_t>(p)] == fpga::kInvalidModule &&
          !t->links[static_cast<std::size_t>(p)].connected &&
          (allow_parked || !port_has_parked_wire(*t, p)))
        free_port = p;
    }
    if (free_port >= 0) break;
  }
  if (free_port < 0) return false;
  Switch& old_sw = sw(it->second.switch_id);
  old_sw.module[static_cast<std::size_t>(it->second.port)] =
      fpga::kInvalidModule;
  if (config_.enable_redirection) {
    old_sw.redirect[id] = t->id;
    stats().counter("redirects_installed").add();
  }
  t->module[static_cast<std::size_t>(free_port)] = id;
  it->second = Attachment{t->id, free_port};
  // The interface modules' logical->physical caches update later; until
  // then senders keep injecting towards the old switch.
  const int new_id = t->id;
  // Anchored: the update is queued in the kernel, which outlives this
  // network — it must degrade to a no-op if the network is torn down
  // before the delay elapses.
  sim::Component::kernel().schedule_in(
      config_.address_update_delay, anchor_.wrap([this, id, new_id] {
        if (attachments_.count(id)) resolution_[id] = new_id;
      }));
  stats().counter("module_moves").add();
  wake_network();
  return true;
}

bool Conochi::is_attached(fpga::ModuleId id) const {
  return attachments_.count(id) > 0;
}

std::size_t Conochi::attached_count() const { return attachments_.size(); }

core::DesignParameters Conochi::design_parameters() const {
  core::DesignParameters d;
  d.name = "CoNoChi";
  d.type = core::ArchType::kNoc;
  d.topology = core::TopologyClass::kArray2D;
  d.module_size = core::ModuleShape::kVariableRect;
  d.switching = core::Switching::kVirtualCutThrough;
  d.bit_width_min = 8;
  d.bit_width_max = 32;
  d.overhead = "96 bit";
  d.max_payload = "1024 bytes";
  d.protocol_layers = 3;
  return d;
}

core::StructuralScores Conochi::structural_scores() const {
  return core::StructuralScores{"CoNoChi", core::Grade::kHigh,
                                core::Grade::kHigh, core::Grade::kHigh,
                                core::Grade::kHigh};
}

std::size_t Conochi::max_parallelism() const { return link_count(); }

sim::Cycle Conochi::path_latency(fpga::ModuleId src,
                                 fpga::ModuleId dst) const {
  auto sit = attachments_.find(src);
  auto dit = attachments_.find(dst);
  if (sit == attachments_.end() || dit == attachments_.end()) return 0;
  int cur = sit->second.switch_id;
  const int target = dit->second.switch_id;
  sim::Cycle total = config_.switch_delay;  // source switch processing
  std::size_t guard = switches_.size() + 1;
  while (cur != target && guard-- > 0) {
    const Switch& s = sw(cur);
    auto it = s.table.find(target);
    if (it == s.table.end()) return 0;
    const Link& l = s.links[static_cast<std::size_t>(it->second)];
    if (!l.connected) return 0;
    total += l.wire_delay + 1 + config_.switch_delay;
    cur = l.peer_switch;
  }
  return cur == target ? total : 0;
}

std::optional<fpga::Point> Conochi::switch_of(fpga::ModuleId id) const {
  auto it = attachments_.find(id);
  if (it == attachments_.end()) return std::nullopt;
  return sw(it->second.switch_id).pos;
}

void Conochi::verify_invariants(verify::DiagnosticSink& sink) const {
  const std::string arch = core::CommArchitecture::name();
  const bool faults_present = !failed_switches_.empty();

  // CON006: grid/switch/link bookkeeping must agree with itself.
  for (const auto& s : switches_) {
    if (!s.active) continue;
    const std::string obj = "switch " + point_str(s.pos);
    if (grid_.at(s.pos) != TileType::kS) {
      sink.report("CON006", verify::Severity::kError, {arch, obj},
                  "active switch sits on a tile not typed S");
    }
    for (const auto& o : switches_) {
      if (o.active && o.id != s.id && o.pos == s.pos) {
        sink.report("CON006", verify::Severity::kError, {arch, obj},
                    "two active switches share the tile");
      }
    }
    for (int p = 0; p < kSwitchPorts; ++p) {
      const Link& l = s.links[static_cast<std::size_t>(p)];
      const fpga::ModuleId m = s.module[static_cast<std::size_t>(p)];
      if (l.connected && m != fpga::kInvalidModule) {
        sink.report("CON006", verify::Severity::kError, {arch, obj},
                    "port " + std::to_string(p) +
                        " is both an inter-switch link and module " +
                        std::to_string(m) + "'s interface");
      }
      if (!l.connected) continue;
      if (l.peer_switch < 0 ||
          l.peer_switch >= static_cast<int>(switches_.size()) ||
          !sw(l.peer_switch).active) {
        sink.report("CON006", verify::Severity::kError, {arch, obj},
                    "port " + std::to_string(p) +
                        " links to a missing or inactive switch");
        continue;
      }
      const Link& back =
          sw(l.peer_switch)
              .links[static_cast<std::size_t>(static_cast<int>(l.peer_port))];
      if (!back.connected || back.peer_switch != s.id) {
        sink.report("CON006", verify::Severity::kError, {arch, obj},
                    "link on port " + std::to_string(p) +
                        " is not mirrored by the peer switch (asymmetric "
                        "topology)");
      }
    }
  }
  // Attachment records must match the switches' port bookkeeping. A module
  // parked on a failed switch is the fault's doing: isolated but handled.
  for (const auto& [id, att] : attachments_) {
    const std::string obj = "module " + std::to_string(id);
    if (att.switch_id < 0 ||
        att.switch_id >= static_cast<int>(switches_.size()) ||
        att.port < 0 || att.port >= kSwitchPorts) {
      sink.report("CON006", verify::Severity::kError, {arch, obj},
                  "attachment references switch " +
                      std::to_string(att.switch_id) + " port " +
                      std::to_string(att.port) + " which do not exist");
      continue;
    }
    const Switch& s = sw(att.switch_id);
    if (s.module[static_cast<std::size_t>(att.port)] != id) {
      sink.report("CON006", verify::Severity::kError, {arch, obj},
                  "switch " + point_str(s.pos) + " port " +
                      std::to_string(att.port) +
                      " does not hold the module the attachment claims");
    }
  }

  // Table walks are meaningful only once the control unit finished
  // installing: stale tables during convergence are the designed state.
  const bool converging = tables_converging();
  if (!converging) {
    for (const auto& s : switches_) {
      if (!s.active) continue;
      for (const auto& [dst, port] : s.table) {
        int cur = s.id;
        int next_port = port;
        std::set<int> visited{cur};
        bool broken = false;
        while (cur != dst && !broken) {
          const Switch& c = sw(cur);
          const Link& l = c.links[static_cast<std::size_t>(next_port)];
          // CON003: the table names a port that leads nowhere.
          if (next_port < 0 || next_port >= kSwitchPorts || !l.connected ||
              !sw(l.peer_switch).active) {
            sink.report("CON003", verify::Severity::kError,
                        {arch, "switch " + point_str(c.pos)},
                        "route towards switch " + std::to_string(dst) +
                            " leaves through port " +
                            std::to_string(next_port) +
                            " which is disconnected or leads to an "
                            "inactive switch",
                        "recompute the routing tables");
            broken = true;
            break;
          }
          cur = l.peer_switch;
          // CON001: the walk must never revisit a switch.
          if (!visited.insert(cur).second) {
            sink.report("CON001", verify::Severity::kError,
                        {arch, "switch " + point_str(s.pos)},
                        "routing tables loop while walking towards switch " +
                            std::to_string(dst),
                        "recompute the routing tables");
            broken = true;
            break;
          }
          if (cur == dst) break;
          const auto it = sw(cur).table.find(dst);
          if (it == sw(cur).table.end()) break;  // gap, not a loop
          next_port = it->second;
        }
      }
    }
    // CON002: every pair of modules on live switches must have a table
    // path. With failed switches present the partition is fault-made.
    for (auto a = attachments_.begin(); a != attachments_.end(); ++a) {
      if (!sw(a->second.switch_id).active) continue;
      for (auto b = std::next(a); b != attachments_.end(); ++b) {
        if (!sw(b->second.switch_id).active) continue;
        if (a->second.switch_id == b->second.switch_id) continue;
        if (path_latency(a->first, b->first) > 0) continue;
        sink.report("CON002",
                    faults_present ? verify::Severity::kWarning
                                   : verify::Severity::kError,
                    {arch, "modules " + std::to_string(a->first) + " and " +
                               std::to_string(b->first)},
                    "no routing-table path between the modules' switches",
                    "connect the switches or heal the failed ones");
      }
    }
  }

  // CON004: redirect chains must stay inside known switches and terminate.
  // Entries left on inactive switches are unreachable and harmless.
  for (const auto& s : switches_) {
    if (!s.active) continue;
    for (const auto& [mod, target] : s.redirect) {
      const std::string obj = "switch " + point_str(s.pos);
      if (target < 0 || target >= static_cast<int>(switches_.size())) {
        sink.report("CON004", verify::Severity::kError, {arch, obj},
                    "redirect for module " + std::to_string(mod) +
                        " names unknown switch " + std::to_string(target));
        continue;
      }
      const auto att = attachments_.find(mod);
      if (att == attachments_.end()) {
        sink.report("CON004", verify::Severity::kError, {arch, obj},
                    "redirect survives for detached module " +
                        std::to_string(mod),
                    "detach() must erase the module's redirects");
        continue;
      }
      // Follow the chain; reaching the module's current switch is success
      // (a redirect there is shadowed by delivery). A stale tail pointing
      // at an inactive switch drops traffic but is a handled, healable
      // state; only a cycle that never reaches the module is corruption.
      int cur = target;
      std::set<int> visited{s.id};
      bool resolved = false;
      bool cycled = false;
      while (true) {
        if (cur == att->second.switch_id) {
          resolved = true;
          break;
        }
        if (!visited.insert(cur).second) {
          sink.report("CON004", verify::Severity::kError, {arch, obj},
                      "redirects for module " + std::to_string(mod) +
                          " form a cycle that never reaches the module");
          cycled = true;
          break;
        }
        const auto next = sw(cur).redirect.find(mod);
        if (next == sw(cur).redirect.end() || !sw(cur).active) break;
        cur = next->second;
      }
      if (!resolved && !cycled) {
        sink.report("CON004", verify::Severity::kWarning, {arch, obj},
                    "redirect chain for module " + std::to_string(mod) +
                        " ends at switch " + std::to_string(cur) +
                        " where the module is not attached",
                    "senders drop to the stale address until the "
                    "resolution update lands");
      }
    }
  }

  // CON005: a sender-side resolution disagreeing with the attachment is
  // the designed transient after a move; flag it so lint runs on frozen
  // state can tell "converging" from "converged".
  for (const auto& [id, res_sw] : resolution_) {
    const auto att = attachments_.find(id);
    if (att == attachments_.end() || res_sw == att->second.switch_id)
      continue;
    const bool covered =
        res_sw >= 0 && res_sw < static_cast<int>(switches_.size()) &&
        sw(res_sw).redirect.count(id) > 0;
    if (covered) continue;
    sink.report("CON005", verify::Severity::kNote,
                {arch, "module " + std::to_string(id)},
                "sender-side resolution points at switch " +
                    std::to_string(res_sw) +
                    " but the module sits on switch " +
                    std::to_string(att->second.switch_id) +
                    " with no redirect covering the gap");
  }
}

bool Conochi::tables_converging() const {
  for (const auto& s : switches_)
    if (s.active && s.table_pending) return true;
  return false;
}

std::uint32_t Conochi::total_flits(const proto::Packet& p) const {
  const std::uint64_t bits = static_cast<std::uint64_t>(p.payload_bytes) * 8 +
                             proto::ConochiHeader::kBits;
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (bits + config_.link_width_bits - 1) /
                                     config_.link_width_bits));
}

bool Conochi::do_send(const proto::Packet& p) {
  auto sit = attachments_.find(p.src);
  if (sit == attachments_.end()) return false;
  auto rit = resolution_.find(p.dst);
  if (rit == resolution_.end()) return false;  // unresolvable logical addr
  if (p.src == p.dst) {
    delivered_[p.dst].push_back(p);
    return true;
  }
  // A module behind a failed switch cannot inject; traffic aimed at one
  // is rejected at the source instead of being blackholed.
  if (!sw(sit->second.switch_id).active || !sw(rit->second).active)
    return false;
  Switch& s = sw(sit->second.switch_id);
  auto& inj = s.in[kSwitchPorts];
  // Fragment to the 1024-byte payload cap; all fragments must fit now.
  const std::uint32_t cap = proto::ConochiHeader::kMaxPayloadBytes;
  const std::uint32_t frags =
      p.payload_bytes == 0 ? 1 : (p.payload_bytes + cap - 1) / cap;
  if (inj.size() + frags > config_.input_buffer_packets) return false;
  const sim::Cycle now = sim::Component::kernel().now();
  for (std::uint32_t f = 0; f < frags; ++f) {
    proto::Packet frag = p;
    frag.fragment_index = f;
    frag.fragment_count = frags;
    frag.total_bytes = p.payload_bytes;
    frag.payload_bytes =
        std::min(cap, p.payload_bytes - f * cap);
    inj.push_back(QueuedPacket{frag, rit->second, now + 1});
  }
  mark_work(s.id);
  return true;
}

std::optional<proto::Packet> Conochi::do_receive(fpga::ModuleId at) {
  auto it = delivered_.find(at);
  if (it == delivered_.end() || it->second.empty()) return std::nullopt;
  proto::Packet p = it->second.front();
  it->second.pop_front();
  return p;
}

void Conochi::deliver_or_redirect(Switch& s, int in_port) {
  auto& q = s.in[static_cast<std::size_t>(in_port)];
  QueuedPacket qp = q.front();
  const sim::Cycle now = sim::Component::kernel().now();
  // The module sees the packet once the tail has arrived.
  if (now < qp.head_ready + total_flits(qp.packet)) return;
  auto ait = attachments_.find(qp.packet.dst);
  if (ait != attachments_.end() && ait->second.switch_id == s.id) {
    q.pop_front();
    // Reassemble fragmented transfers before handing them to the module.
    if (qp.packet.fragment_count > 1) {
      auto key = std::make_pair(qp.packet.src, qp.packet.id);
      auto& re = reassembly_[key];
      ++re.fragments_received;
      if (re.fragments_received < qp.packet.fragment_count) return;
      reassembly_.erase(key);
      qp.packet.payload_bytes = qp.packet.total_bytes;
      qp.packet.fragment_index = 0;
      qp.packet.fragment_count = 1;
    }
    delivered_[qp.packet.dst].push_back(qp.packet);
    return;
  }
  auto redir = s.redirect.find(qp.packet.dst);
  if (redir != s.redirect.end()) {
    q.pop_front();
    qp.dst_switch = redir->second;
    qp.head_ready = now + config_.switch_delay;
    q.push_back(qp);
    stats().counter("packets_redirected").add();
    return;
  }
  q.pop_front();
  stats().counter("dropped_no_module").add();
}

bool Conochi::try_forward(Switch& s, int in_port) {
  auto& q = s.in[static_cast<std::size_t>(in_port)];
  QueuedPacket& qp = q.front();
  const sim::Cycle now = sim::Component::kernel().now();
  auto it = s.table.find(qp.dst_switch);
  if (it == s.table.end()) {
    if (s.table_pending) return false;  // table update under way: wait
    q.pop_front();
    stats().counter("dropped_stale_route").add();
    return true;
  }
  Link& l = s.links[static_cast<std::size_t>(it->second)];
  if (!l.connected || !sw(l.peer_switch).active) {
    if (s.table_pending) return false;
    q.pop_front();
    stats().counter("dropped_stale_route").add();
    return true;
  }
  if (l.busy_until > now) return false;  // output serializing another tail
  Switch& t = sw(l.peer_switch);
  auto& tq = t.in[static_cast<std::size_t>(static_cast<int>(l.peer_port))];
  if (tq.size() >= config_.input_buffer_packets) return false;  // no credit
  QueuedPacket moved = qp;
  q.pop_front();
  // Virtual cut-through: the header leaves after the switch delay and
  // arrives after the line latency; the tail occupies the output for the
  // serialization time.
  moved.head_ready = now + config_.switch_delay + l.wire_delay + 1;
  l.busy_until = now + config_.switch_delay +
                 total_flits(moved.packet);
  tq.push_back(std::move(moved));
  mark_work(t.id);
  stats().counter("hops").add();
  return true;
}

void Conochi::process_switch(Switch& s) {
  const sim::Cycle now = sim::Component::kernel().now();
  if (s.table_pending && now >= s.table_install_at) {
    s.table = s.pending_table;
    s.table_pending = false;
    stats().counter("tables_installed").add();
  }
  for (int p = 0; p <= kSwitchPorts; ++p) {
    auto& q = s.in[static_cast<std::size_t>(p)];
    if (q.empty()) continue;
    if (q.front().head_ready > now) continue;
    if (q.front().dst_switch == s.id) {
      deliver_or_redirect(s, p);
    } else {
      try_forward(s, p);
    }
  }
}

void Conochi::commit() {
  if (sim::Component::kernel().busy_path_tuning().router_gating) {
    // Visit only switches with queued packets or a staged table install;
    // the live ascending scan matches the full walk bit-identically (a
    // forward within one pass is seen by the target's later visit, a push
    // behind the cursor waits for the next cycle — exactly as the full
    // walk would have it).
    scan_work_bits(work_bits_, [&](int i) {
      Switch& s = sw(i);
      if (s.active) process_switch(s);
      update_work_bit(i);
    });
  } else {
    for (auto& s : switches_) {
      if (s.active) process_switch(s);
      if (s.id >= 0) update_work_bit(s.id);
    }
  }
  // Sleep once every queue drains and every staged table is installed;
  // do_send() (via the base wrapper) and the mutators wake the component.
  if (network_empty()) set_active(false);
}

}  // namespace recosim::conochi
