#include "dynoc/dynoc.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "verify/diagnostic.hpp"

namespace recosim::dynoc {

namespace {
std::string rect_str(const fpga::Rect& r) {
  return std::to_string(r.w) + "x" + std::to_string(r.h) + "@(" +
         std::to_string(r.x) + "," + std::to_string(r.y) + ")";
}
}  // namespace

Dynoc::Dynoc(sim::Kernel& kernel, const DynocConfig& config)
    : core::CommArchitecture(kernel, "DyNoC"),
      config_(config),
      routers_(static_cast<std::size_t>(config.width) *
               static_cast<std::size_t>(config.height)),
      sxy_([this](fpga::Point p) { return router_active(p); },
           [this](fpga::Point p) { return obstacle_at(p); }) {
  assert(config.width >= 3 && config.height >= 3);
  assert(config.link_width_bits >= 1);
  assert(config.input_buffer_packets >= 1);
  work_.reset(routers_.size());
}

bool Dynoc::network_empty() const { return work_.empty(); }

bool Dynoc::router_has_work(const Router& r) const {
  for (const auto& port : r.in)
    if (!port.empty()) return true;
  for (const auto& link : r.out)
    if (link.busy) return true;
  return false;
}

void Dynoc::rebuild_work_set() {
  work_.reset(routers_.size());
  for (std::size_t i = 0; i < routers_.size(); ++i)
    if (routers_[i].active && router_has_work(routers_[i]))
      work_.mark(static_cast<int>(i));
}

bool Dynoc::router_active(fpga::Point p) const {
  return in_array(p) && at(p).active;
}

std::size_t Dynoc::active_router_count() const {
  std::size_t n = 0;
  for (const auto& r : routers_)
    if (r.active) ++n;
  return n;
}

std::size_t Dynoc::in_flight_packets(fpga::ModuleId involving) const {
  auto counts = [involving](const proto::Packet& p) {
    return involving == fpga::kInvalidModule || p.src == involving ||
           p.dst == involving;
  };
  std::size_t n = 0;
  for (const auto& r : routers_) {
    for (const auto& port : r.in)
      for (const auto& fp : port)
        if (counts(fp.packet)) ++n;
    for (const auto& link : r.out)
      if (link.busy && link.carries_packet && counts(link.packet.packet))
        ++n;
  }
  return n;
}

std::optional<fpga::Rect> Dynoc::obstacle_at(fpga::Point p) const {
  // A hard-failed router is a 1x1 obstacle: S-XY wraps live traffic
  // around it exactly as it would around a placed module.
  if (in_array(p) && failed_.count(idx(p)))
    return fpga::Rect{p.x, p.y, 1, 1};
  for (const auto& [id, pl] : placements_)
    if (pl.rect.contains(p) && pl.rect.area() > 1) return pl.rect;
  return std::nullopt;
}

bool Dynoc::placement_keeps_surround(const fpga::Rect& r) const {
  // The module together with its one-tile ring must fit into the array
  // (keeps the border row/column of routers), and neither the rectangle
  // nor its ring may hit an existing module or removed router.
  const fpga::Rect ring = r.inflated(1);
  if (ring.x < 0 || ring.y < 0 || ring.right() > config_.width ||
      ring.bottom() > config_.height)
    return false;
  for (int y = ring.y; y < ring.bottom(); ++y) {
    for (int x = ring.x; x < ring.right(); ++x) {
      const fpga::Point p{x, y};
      if (!at(p).active) return false;  // overlaps a removed router
      if (r.contains(p)) {
        // Tiles the module itself takes must be unowned (also excludes
        // overlap with active 1x1 modules).
        for (const auto& [id, pl] : placements_)
          if (pl.rect.contains(p)) return false;
      }
    }
  }
  return true;
}

fpga::Point Dynoc::choose_access(const fpga::Rect& r) const {
  if (r.area() == 1) return {r.x, r.y};  // 1x1 keeps its own router
  // Prefer the ring router north of the top-left corner, then walk the
  // ring clockwise until an active router is found.
  std::vector<fpga::Point> ring;
  for (int x = r.x; x < r.right(); ++x) ring.push_back({x, r.y - 1});
  for (int y = r.y; y < r.bottom(); ++y) ring.push_back({r.right(), y});
  for (int x = r.right() - 1; x >= r.x; --x) ring.push_back({x, r.bottom()});
  for (int y = r.bottom() - 1; y >= r.y; --y) ring.push_back({r.x - 1, y});
  for (const auto& p : ring)
    if (router_active(p)) return p;
  return {r.x, r.y - 1};  // unreachable under the surround invariant
}

bool Dynoc::attach(fpga::ModuleId id, const fpga::HardwareModule& m) {
  for (int y = 1; y + m.height_clbs < config_.height; ++y)
    for (int x = 1; x + m.width_clbs < config_.width; ++x)
      if (attach_at(id, m, {x, y})) return true;
  return false;
}

bool Dynoc::attach_at(fpga::ModuleId id, const fpga::HardwareModule& m,
                      fpga::Point top_left) {
  if (id == fpga::kInvalidModule || placements_.count(id)) return false;
  const fpga::Rect r{top_left.x, top_left.y, m.width_clbs, m.height_clbs};
  if (!placement_keeps_surround(r)) return false;
  if (r.area() > 1) {
    // Remove the covered routers; traffic caught inside is lost (counted),
    // exactly as a reconfiguration overwriting the region would lose it.
    for (int y = r.y; y < r.bottom(); ++y) {
      for (int x = r.x; x < r.right(); ++x) {
        Router& router = at({x, y});
        router.active = false;
        for (auto& q : router.in) {
          stats().counter("packets_dropped_reconfig").add(q.size());
          q.clear();
        }
        router.reserved.fill(0);
        for (auto& o : router.out) {
          if (o.busy && o.carries_packet) {
            stats().counter("packets_dropped_reconfig").add();
            // Give back the credit reserved downstream.
            const fpga::Point t =
                step({x, y}, static_cast<Dir>(&o - router.out.data()));
            if (in_array(t)) {
              auto& res =
                  at(t).reserved[static_cast<std::size_t>(
                      static_cast<int>(opposite(
                          static_cast<Dir>(&o - router.out.data()))))];
              if (res > 0) --res;
            }
          }
          o.busy = false;
        }
      }
    }
    // In-flight transfers *into* the removed region are lost as well.
    for (int y = 0; y < config_.height; ++y) {
      for (int x = 0; x < config_.width; ++x) {
        Router& router = at({x, y});
        if (!router.active) continue;
        for (int d = 0; d < kDirCount; ++d) {
          auto& o = router.out[static_cast<std::size_t>(d)];
          if (o.busy && r.contains(step({x, y}, static_cast<Dir>(d)))) {
            // Cut-through transfers were already counted when the removed
            // router's buffers were cleared; only store-and-forward
            // payloads die on the wire here.
            if (o.carries_packet)
              stats().counter("packets_dropped_reconfig").add();
            o.busy = false;
          }
        }
      }
    }
  }
  placements_.emplace(id, Placement{r, choose_access(r)});
  open_endpoint(id);
  rebuild_work_set();
  wake_network();
  debug_check_invariants();
  return true;
}

bool Dynoc::detach(fpga::ModuleId id) {
  auto it = placements_.find(id);
  if (it == placements_.end()) return false;
  const fpga::Rect r = it->second.rect;
  if (r.area() > 1) {
    for (int y = r.y; y < r.bottom(); ++y)
      for (int x = r.x; x < r.right(); ++x) at({x, y}).active = true;
  }
  placements_.erase(it);
  close_endpoint(id);
  rebuild_work_set();
  wake_network();
  debug_check_invariants();
  return true;
}

void Dynoc::purge_router_traffic(fpga::Point p, const char* counter) {
  Router& router = at(p);
  for (auto& q : router.in) {
    if (!q.empty()) stats().counter(counter).add(q.size());
    q.clear();
  }
  router.reserved.fill(0);
  for (int d = 0; d < kDirCount; ++d) {
    OutLink& o = router.out[static_cast<std::size_t>(d)];
    if (o.busy && o.carries_packet) {
      stats().counter(counter).add();
      // Give back the credit reserved downstream.
      const fpga::Point t = step(p, static_cast<Dir>(d));
      if (in_array(t)) {
        auto& res = at(t).reserved[static_cast<std::size_t>(
            static_cast<int>(opposite(static_cast<Dir>(d))))];
        if (res > 0) --res;
      }
    }
    o.busy = false;
  }
}

void Dynoc::drop_traffic_towards(fpga::Point p, const char* counter) {
  for (int y = 0; y < config_.height; ++y) {
    for (int x = 0; x < config_.width; ++x) {
      Router& router = at({x, y});
      if (!router.active) continue;
      for (int d = 0; d < kDirCount; ++d) {
        OutLink& o = router.out[static_cast<std::size_t>(d)];
        if (!o.busy) continue;
        const fpga::Point t = step({x, y}, static_cast<Dir>(d));
        const bool into = t == p;
        // Packets still addressed to the dead router can never eject;
        // kill them on the wire rather than letting them orbit the new
        // obstacle forever.
        const bool doomed = o.carries_packet && o.packet.dest == p;
        if (!into && !doomed) continue;
        if (o.carries_packet) {
          stats().counter(counter).add();
          if (!into && router_active(t)) {
            auto& res = at(t).reserved[static_cast<std::size_t>(
                static_cast<int>(opposite(static_cast<Dir>(d))))];
            if (res > 0) --res;
          }
        }
        o.busy = false;
      }
      for (auto& q : router.in) {
        const std::size_t before = q.size();
        q.erase(std::remove_if(
                    q.begin(), q.end(),
                    [&](const FlyingPacket& fp) { return fp.dest == p; }),
                q.end());
        if (before != q.size())
          stats().counter(counter).add(before - q.size());
      }
    }
  }
}

bool Dynoc::fail_node(int x, int y) {
  const fpga::Point p{x, y};
  if (!in_array(p) || !at(p).active) return false;
  at(p).active = false;
  failed_.insert(idx(p));
  purge_router_traffic(p, "packets_dropped_fault");
  drop_traffic_towards(p, "packets_dropped_fault");
  // Modules that talked through the dead router pick a surviving ring
  // router; their future traffic routes around the obstacle.
  for (auto& [id, pl] : placements_) {
    if (pl.rect.area() > 1 && pl.access == p) {
      const fpga::Point next = choose_access(pl.rect);
      if (router_active(next)) {
        pl.access = next;
        stats().counter("recovered_paths").add();
      }
    }
  }
  stats().counter("router_failures").add();
  rebuild_work_set();
  wake_network();
  debug_check_invariants();
  return true;
}

std::size_t Dynoc::replan_paths() {
  // Move every module whose access router is dead (or was never
  // re-selected after a failure) onto a surviving ring router.
  std::size_t moved = 0;
  for (auto& [id, pl] : placements_) {
    if (pl.rect.area() <= 1 || router_active(pl.access)) continue;
    const fpga::Point next = choose_access(pl.rect);
    if (router_active(next)) {
      pl.access = next;
      stats().counter("recovered_paths").add();
      ++moved;
    }
  }
  if (moved) wake_network();
  return moved;
}

bool Dynoc::heal_node(int x, int y) {
  const fpga::Point p{x, y};
  if (!in_array(p) || !failed_.count(idx(p))) return false;
  failed_.erase(idx(p));
  at(p).active = true;
  // Re-run access selection so modules isolated by the failure (or pushed
  // to a detour router) regain their preferred access point.
  for (auto& [id, pl] : placements_)
    if (pl.rect.area() > 1) pl.access = choose_access(pl.rect);
  stats().counter("router_heals").add();
  rebuild_work_set();
  wake_network();
  debug_check_invariants();
  return true;
}

void Dynoc::verify_invariants(verify::DiagnosticSink& sink) const {
  const std::string arch = name();
  // Fault-injected router failures legitimately degrade reachability and
  // the surround; findings they explain are warnings, not errors.
  const bool faults_present = !failed_.empty();
  for (const auto& [id, pl] : placements_) {
    const std::string obj =
        "module " + std::to_string(id) + " " + rect_str(pl.rect);
    // DYN001: the module plus its router ring must fit inside the array
    // (a border placement leaves S-XY nothing to wrap around).
    const fpga::Rect ring = pl.rect.inflated(1);
    if (ring.x < 0 || ring.y < 0 || ring.right() > config_.width ||
        ring.bottom() > config_.height) {
      sink.report("DYN001", verify::Severity::kError, {arch, obj},
                  "placement (with its one-tile router ring) leaves the " +
                      std::to_string(config_.width) + "x" +
                      std::to_string(config_.height) + " array",
                  "keep one router row/column between the module and the "
                  "border");
      continue;  // ring walk below would leave the array
    }
    // DYN002: every ring router must be active unless a fault removed it.
    if (pl.rect.area() > 1) {
      for (int y = ring.y; y < ring.bottom(); ++y) {
        for (int x = ring.x; x < ring.right(); ++x) {
          const fpga::Point p{x, y};
          if (pl.rect.contains(p)) continue;
          if (at(p).active || failed_.count(idx(p))) continue;
          sink.report("DYN002", verify::Severity::kError, {arch, obj},
                      "ring router (" + std::to_string(x) + "," +
                          std::to_string(y) +
                          ") is removed but not failed: another module "
                          "touches the ring",
                      "re-place the modules one tile apart");
        }
      }
    }
    // DYN004: an inactive access router isolates the module (reachable
    // when the whole ring, or a 1x1 module's own router, failed).
    if (!router_active(pl.access)) {
      sink.report("DYN004", verify::Severity::kWarning, {arch, obj},
                  "access router (" + std::to_string(pl.access.x) + "," +
                      std::to_string(pl.access.y) + ") is not active",
                  "heal the router or move the module");
    }
    // FLP001: placements must not share tiles.
    for (const auto& [oid, opl] : placements_) {
      if (oid <= id) continue;
      if (!pl.rect.overlaps(opl.rect)) continue;
      sink.report("FLP001", verify::Severity::kError, {arch, obj},
                  "placement overlaps module " + std::to_string(oid) + " " +
                      rect_str(opl.rect));
    }
  }
  // DYN003: every pair of modules with live access routers must have an
  // S-XY path. With failed routers present the trap is the fault's doing
  // (handled, counted, healable) — a warning; without any it is a
  // placement the router function cannot serve — an error.
  for (auto a = placements_.begin(); a != placements_.end(); ++a) {
    if (!router_active(a->second.access)) continue;
    for (auto b = std::next(a); b != placements_.end(); ++b) {
      if (!router_active(b->second.access)) continue;
      if (route_hops(a->first, b->first)) continue;
      sink.report(
          "DYN003",
          faults_present ? verify::Severity::kWarning
                         : verify::Severity::kError,
          {arch, "modules " + std::to_string(a->first) + " and " +
                     std::to_string(b->first)},
          "no S-XY route between the modules' access routers",
          "re-place the modules or heal the routers walling them in");
    }
  }
}

core::DesignParameters Dynoc::design_parameters() const {
  core::DesignParameters d;
  d.name = "DyNoC";
  d.type = core::ArchType::kNoc;
  d.topology = core::TopologyClass::kArray2D;
  d.module_size = core::ModuleShape::kVariableRect;
  d.switching = core::Switching::kPacket;
  d.bit_width_min = 8;
  d.bit_width_max = 32;
  d.overhead = "> 4 bit";
  d.max_payload = "n. p.";
  d.protocol_layers = 1;
  return d;
}

core::StructuralScores Dynoc::structural_scores() const {
  return core::StructuralScores{"DyNoC", core::Grade::kLow,
                                core::Grade::kHigh, core::Grade::kHigh,
                                core::Grade::kHigh};
}

std::size_t Dynoc::max_parallelism() const {
  // Independent transfers are bounded by the number of directed links
  // between active routers (paper §4.2).
  std::size_t links = 0;
  for (int y = 0; y < config_.height; ++y) {
    for (int x = 0; x < config_.width; ++x) {
      if (!router_active({x, y})) continue;
      for (int d = 0; d < kDirCount; ++d)
        if (router_active(step({x, y}, static_cast<Dir>(d)))) ++links;
    }
  }
  return links;
}

std::optional<int> Dynoc::route_hops(fpga::ModuleId src,
                                     fpga::ModuleId dst) const {
  auto s = access_router_of(src);
  auto d = access_router_of(dst);
  if (!s || !d) return std::nullopt;
  fpga::Point cur = *s;
  int hops = 0;
  SurroundState state;
  const int limit = config_.width * config_.height * 4;
  while (!(cur == *d)) {
    auto dir = sxy_.route(cur, *d, state);
    if (!dir || *dir == Dir::kLocal) return std::nullopt;
    cur = step(cur, *dir);
    if (++hops > limit) return std::nullopt;
  }
  return hops;
}

sim::Cycle Dynoc::path_latency(fpga::ModuleId src,
                               fpga::ModuleId dst) const {
  auto hops = route_hops(src, dst);
  if (!hops) return 0;
  // Each traversed router (link hops + 1) contributes its routing delay
  // plus one cycle of link/crossbar traversal.
  return static_cast<sim::Cycle>(*hops + 1) * (config_.routing_delay + 1);
}

std::optional<fpga::Rect> Dynoc::region_of(fpga::ModuleId id) const {
  auto it = placements_.find(id);
  if (it == placements_.end()) return std::nullopt;
  return it->second.rect;
}

std::optional<fpga::Point> Dynoc::access_router_of(fpga::ModuleId id) const {
  auto it = placements_.find(id);
  if (it == placements_.end()) return std::nullopt;
  return it->second.access;
}

std::uint32_t Dynoc::total_flits(const proto::Packet& p) const {
  const std::uint64_t bits =
      static_cast<std::uint64_t>(p.payload_bytes) * 8 + config_.header_bits;
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, (bits + config_.link_width_bits - 1) /
                                     config_.link_width_bits));
}

bool Dynoc::do_send(const proto::Packet& p) {
  auto sit = placements_.find(p.src);
  auto dit = placements_.find(p.dst);
  if (sit == placements_.end() || dit == placements_.end()) return false;
  if (p.src == p.dst) return deliver(p);
  // An isolated endpoint (its access router failed and no ring router
  // survives) rejects traffic instead of blackholing it.
  if (!router_active(sit->second.access) ||
      !router_active(dit->second.access))
    return false;
  Router& a = at(sit->second.access);
  auto& inj = a.in[static_cast<std::size_t>(Dir::kLocal)];
  if (inj.size() + a.reserved[static_cast<std::size_t>(Dir::kLocal)] >=
      config_.input_buffer_packets)
    return false;
  FlyingPacket fp;
  fp.packet = p;
  fp.dest = dit->second.access;
  fp.route_timer = config_.routing_delay;
  inj.push_back(std::move(fp));
  work_.mark(idx(sit->second.access));
  return true;
}

void Dynoc::advance_router_links(fpga::Point here, Router& router) {
  if (!router.active) return;
  for (int d = 0; d < kDirCount; ++d) {
    OutLink& o = router.out[static_cast<std::size_t>(d)];
    if (!o.busy) continue;
    ++o.busy_cycles;
    if (o.flits_remaining > 0) --o.flits_remaining;
    if (o.flits_remaining == 0) {
      if (o.carries_packet) {
        const fpga::Point t = step(here, static_cast<Dir>(d));
        if (router_active(t)) {
          Router& target = at(t);
          const auto inport = static_cast<std::size_t>(
              static_cast<int>(opposite(static_cast<Dir>(d))));
          if (target.reserved[inport] > 0) --target.reserved[inport];
          o.packet.route_timer = config_.routing_delay;
          o.packet.tail_arrival = kernel().now();
          target.in[inport].push_back(std::move(o.packet));
          work_.mark(idx(t));
        } else {
          stats().counter("packets_dropped_reconfig").add();
        }
      }
      o.busy = false;
    }
  }
}

void Dynoc::start_router_transfers(fpga::Point here, Router& router) {
  if (!router.active) return;

  // Count down routing pipelines at the buffer heads.
  for (auto& q : router.in)
    if (!q.empty() && q.front().route_timer > 0) --q.front().route_timer;

  // Local ejection: one packet per cycle.
  {
    int& rr = router.rr[static_cast<std::size_t>(Dir::kLocal)];
    for (int k = 0; k < kPorts; ++k) {
      const int port = (rr + k) % kPorts;
      auto& q = router.in[static_cast<std::size_t>(port)];
      if (q.empty() || q.front().route_timer > 0) continue;
      if (!(q.front().dest == here)) continue;
      // A cut-through head must wait for its tail before ejecting.
      if (q.front().tail_arrival > kernel().now()) continue;
      if (!deliver(q.front().packet))
        stats().counter("dropped_no_module").add();
      q.pop_front();
      rr = (port + 1) % kPorts;
      break;
    }
  }

  // Link outputs.
  for (int d = 0; d < kDirCount; ++d) {
    OutLink& o = router.out[static_cast<std::size_t>(d)];
    if (o.busy) continue;
    int& rr = router.rr[static_cast<std::size_t>(d)];
    for (int k = 0; k < kPorts; ++k) {
      const int port = (rr + k) % kPorts;
      auto& q = router.in[static_cast<std::size_t>(port)];
      if (q.empty() || q.front().route_timer > 0) continue;
      if (q.front().dest == here) continue;  // handled by ejection
      auto dir = sxy_.route(here, q.front().dest, q.front().sxy);
      if (!dir) {
        // No direction left around the obstacles: the packet is lost, and
        // counted as a drop so packets_dropped() keeps the conservation
        // law.
        stats().counter("routing_failures").add();
        stats().counter("dropped_stale_route").add();
        q.pop_front();
        continue;
      }
      if (static_cast<int>(*dir) != d) continue;
      const fpga::Point t = step(here, *dir);
      Router& target = at(t);
      const auto inport = static_cast<std::size_t>(
          static_cast<int>(opposite(*dir)));
      if (target.in[inport].size() + target.reserved[inport] >=
          config_.input_buffer_packets)
        continue;  // no credit downstream: stall
      const std::uint32_t flits = total_flits(q.front().packet);
      if (config_.switching == RouterSwitching::kVirtualCutThrough) {
        // Head cuts through after the routing decision; the tail
        // occupies the link for the serialization time while the
        // packet already queues (and may route on) downstream.
        FlyingPacket moved = std::move(q.front());
        q.pop_front();
        moved.route_timer = config_.routing_delay;
        moved.tail_arrival = kernel().now() + flits;
        target.in[inport].push_back(std::move(moved));
        work_.mark(idx(t));
        o.busy = true;
        o.carries_packet = false;
        o.flits_remaining = flits;
      } else {
        ++target.reserved[inport];
        o.busy = true;
        o.carries_packet = true;
        o.packet = std::move(q.front());
        o.flits_remaining = flits;
        q.pop_front();
      }
      rr = (port + 1) % kPorts;
      stats().counter("hops").add();
      break;
    }
  }
}

void Dynoc::advance_links() {
  for (int y = 0; y < config_.height; ++y)
    for (int x = 0; x < config_.width; ++x)
      advance_router_links({x, y}, at({x, y}));
}

void Dynoc::start_transfers() {
  for (int y = 0; y < config_.height; ++y) {
    for (int x = 0; x < config_.width; ++x) {
      const fpga::Point here{x, y};
      start_router_transfers(here, at(here));
      work_.set(idx(here), router_has_work(at(here)));
    }
  }
}

void Dynoc::commit() {
  if (kernel().busy_path_enabled()) {
    // Only routers with queued packets or busy links pay; everything else
    // stays out of the cycle walk entirely. The work set's live ascending
    // scan sees mid-walk wakes exactly as the row-major walk below does.
    const int w = config_.width;
    work_.for_each([this, w](int i) {
      const fpga::Point p{i % w, i / w};
      advance_router_links(p, routers_[static_cast<std::size_t>(i)]);
    });
    work_.for_each([this, w](int i) {
      Router& r = routers_[static_cast<std::size_t>(i)];
      start_router_transfers({i % w, i / w}, r);
      work_.set(i, router_has_work(r));
    });
  } else {
    advance_links();
    start_transfers();
  }
  // Sleep once the network drains; do_send() (via the base wrapper) and
  // the mutators wake the component again.
  if (network_empty()) set_active(false);
}

std::vector<std::uint64_t> Dynoc::link_busy_cycles() const {
  std::vector<std::uint64_t> out;
  for (int y = 0; y < config_.height; ++y) {
    for (int x = 0; x < config_.width; ++x) {
      const Router& r = at({x, y});
      if (!r.active) continue;
      for (int d = 0; d < kDirCount; ++d) {
        if (!router_active(step({x, y}, static_cast<Dir>(d)))) continue;
        out.push_back(r.out[static_cast<std::size_t>(d)].busy_cycles);
      }
    }
  }
  return out;
}

double Dynoc::link_load_imbalance() const {
  const auto loads = link_busy_cycles();
  std::uint64_t max = 0, sum = 0;
  std::size_t used = 0;
  for (auto l : loads) {
    max = std::max(max, l);
    sum += l;
    if (l > 0) ++used;
  }
  if (used == 0 || sum == 0) return 1.0;
  const double mean = static_cast<double>(sum) / static_cast<double>(used);
  return static_cast<double>(max) / mean;
}

std::string Dynoc::render() const {
  std::string out;
  std::vector<char> cell(routers_.size(), '+');
  char label = 'a';
  for (const auto& [id, pl] : placements_) {
    const char c = label <= 'z' ? label : '?';
    ++label;
    for (int y = pl.rect.y; y < pl.rect.bottom(); ++y)
      for (int x = pl.rect.x; x < pl.rect.right(); ++x)
        cell[static_cast<std::size_t>(idx({x, y}))] =
            pl.rect.area() == 1 ? static_cast<char>(c - 'a' + 'A') : c;
    if (pl.rect.area() > 1) {
      auto& acc = cell[static_cast<std::size_t>(idx(pl.access))];
      if (acc == '+') acc = '*';
    }
  }
  for (int y = 0; y < config_.height; ++y) {
    for (int x = 0; x < config_.width; ++x) {
      out += cell[static_cast<std::size_t>(idx({x, y}))];
      out += ' ';
    }
    out += '\n';
  }
  return out;
}

}  // namespace recosim::dynoc
