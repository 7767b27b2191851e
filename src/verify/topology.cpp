#include "verify/topology.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

namespace recosim::verify {

std::string module_str(int id) {
  return std::string("module ").append(std::to_string(id));
}

std::string num(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  return std::to_string(v);
}

bool node_failed_1d(const FailedSet& failed, int a) {
  for (const auto& f : failed)
    if (f.first == a) return true;
  return false;
}

// ---------------------------------------------------------------------------
// DyNoC router mesh

DynocMesh::DynocMesh(int width, int height,
                     const std::vector<fpga::Rect>& modules)
    : width_(width),
      height_(height),
      obstacle_(static_cast<std::size_t>(std::max(0, width * height)), 0) {
  for (const auto& r : modules) {
    if (r.area() <= 1) continue;  // unit modules keep their router
    for (int y = r.y; y < r.bottom(); ++y)
      for (int x = r.x; x < r.right(); ++x)
        if (x >= 0 && x < width && y >= 0 && y < height)
          obstacle_[index({x, y})] = 1;
  }
}

bool DynocMesh::open(fpga::Point p, const FailedSet* failed) const {
  if (p.x < 0 || p.x >= width_ || p.y < 0 || p.y >= height_) return false;
  if (obstacle_[index(p)]) return false;
  return !failed || !failed->count({p.x, p.y});
}

std::vector<fpga::Point> DynocMesh::access_routers(const fpga::Rect& r) const {
  if (r.area() == 1) return {{r.x, r.y}};
  std::vector<fpga::Point> out;
  const fpga::Rect ring = r.inflated(1);
  for (int y = ring.y; y < ring.bottom(); ++y)
    for (int x = ring.x; x < ring.right(); ++x) {
      const fpga::Point p{x, y};
      if (!r.contains(p) && open(p)) out.push_back(p);
    }
  return out;
}

std::vector<int> DynocMesh::flood(const std::vector<fpga::Point>& starts,
                                  const FailedSet* failed,
                                  const std::vector<fpga::Point>& goals) const {
  std::vector<int> dist(obstacle_.size(), -1);
  std::queue<fpga::Point> work;
  for (const auto& p : starts) {
    dist[index(p)] = 0;
    work.push(p);
  }
  while (!work.empty()) {
    const fpga::Point p = work.front();
    work.pop();
    if (std::find(goals.begin(), goals.end(), p) != goals.end()) break;
    const fpga::Point next[4] = {
        {p.x + 1, p.y}, {p.x - 1, p.y}, {p.x, p.y + 1}, {p.x, p.y - 1}};
    for (const auto& n : next) {
      if (!open(n, failed) || dist[index(n)] >= 0) continue;
      dist[index(n)] = dist[index(p)] + 1;
      work.push(n);
    }
  }
  return dist;
}

int DynocMesh::distance(const fpga::Rect& a, const fpga::Rect& b,
                        const FailedSet* failed) const {
  const auto live = [&](const fpga::Rect& r) {
    std::vector<fpga::Point> out = access_routers(r);
    std::erase_if(out, [&](fpga::Point p) { return !open(p, failed); });
    return out;
  };
  const auto starts = live(a);
  const auto goals = live(b);
  if (starts.empty() || goals.empty()) return -1;
  const std::vector<int> dist = flood(starts, failed, goals);
  int best = -1;
  for (const auto& p : goals) {
    const int d = dist[index(p)];
    if (d >= 0 && (best < 0 || d < best)) best = d;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Topology

namespace {

/// True when one declared straight wire run covers every tile strictly
/// between switches a and b (the run may extend past either end); adjacent
/// switches need no wire tile at all.
bool wire_covers(const Scenario& s, fpga::Point a, fpga::Point b) {
  for (const auto& w : s.wires) {
    if (a.y == b.y && w.a.y == a.y && w.b.y == a.y) {
      const int lo = std::min(w.a.x, w.b.x);
      const int hi = std::max(w.a.x, w.b.x);
      if (lo <= std::min(a.x, b.x) + 1 && hi >= std::max(a.x, b.x) - 1)
        return true;
    }
    if (a.x == b.x && w.a.x == a.x && w.b.x == a.x) {
      const int lo = std::min(w.a.y, w.b.y);
      const int hi = std::max(w.a.y, w.b.y);
      if (lo <= std::min(a.y, b.y) + 1 && hi >= std::max(a.y, b.y) - 1)
        return true;
    }
  }
  return std::abs(a.x - b.x) + std::abs(a.y - b.y) == 1;
}

/// A switch strictly between a and b on their shared row or column.
bool switch_between(const Scenario& s, std::size_t i, std::size_t j) {
  const fpga::Point a = s.switches[i];
  const fpga::Point b = s.switches[j];
  for (std::size_t k = 0; k < s.switches.size(); ++k) {
    if (k == i || k == j) continue;
    const fpga::Point c = s.switches[k];
    if (a.y == b.y && c.y == a.y && c.x > std::min(a.x, b.x) &&
        c.x < std::max(a.x, b.x))
      return true;
    if (a.x == b.x && c.x == a.x && c.y > std::min(a.y, b.y) &&
        c.y < std::max(a.y, b.y))
      return true;
  }
  return false;
}

}  // namespace

Topology::Topology(const Scenario& s)
    : buses(static_cast<int>(s.setting("buses"))),
      slots_per_round(static_cast<int>(s.setting("slots_per_round"))),
      cycles_per_slot(s.setting("cycles_per_slot")),
      in_width_bits(s.setting("in_width_bits")),
      dynamic_fraction(s.setting("dynamic_fraction")),
      slots(static_cast<int>(s.setting("slots"))),
      width(static_cast<int>(s.setting("width"))),
      height(static_cast<int>(s.setting("height"))),
      grid_width(static_cast<int>(s.setting("grid_width"))),
      grid_height(static_cast<int>(s.setting("grid_height"))),
      hop_cycles(s.setting("hop_cycles")),
      full_column(s.setting("full_column") != 0),
      drain_timeout(static_cast<long long>(s.setting("drain_timeout"))),
      s_(s) {
  // Port numbering matches the runtime: 0 N, 1 E, 2 S, 3 W.
  const std::size_t n = s.switches.size();
  links_.resize(n);
  routed_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const fpga::Point a = s.switches[i];
    int last[4] = {-1, -1, -1, -1};  // per port, the last peer linked
    for (std::size_t j = 0; j < n; ++j) {
      const fpga::Point b = s.switches[j];
      if (i == j || (a.x != b.x && a.y != b.y)) continue;
      if (switch_between(s, i, j) || !wire_covers(s, a, b)) continue;
      const int port = a.y == b.y ? (b.x > a.x ? 1 : 3) : (b.y > a.y ? 2 : 0);
      links_[i].push_back({static_cast<int>(j), port});
      last[port] = static_cast<int>(j);
    }
    for (int port = 0; port < 4; ++port)
      if (last[port] >= 0) routed_[i].push_back({last[port], port});
  }
}

std::optional<fpga::Point> Topology::placement(int id) const {
  const auto it = s_.placement.find(id);
  if (it == s_.placement.end()) return std::nullopt;
  return it->second;
}

std::optional<fpga::Rect> Topology::footprint(int id) const {
  const auto at = placement(id);
  if (!at) return std::nullopt;
  fpga::Rect r{at->x, at->y, 1, 1};
  for (const auto& m : s_.modules)
    if (m.id == id) {
      r.w = m.width;
      r.h = m.height;
      break;
    }
  return r;
}

std::optional<fpga::Point> Topology::failed_access(
    int id, const FailedSet& nodes) const {
  const auto at = placement(id);
  if (!at) return std::nullopt;
  switch (s_.arch) {
    case ArchKind::kRmboc:
      if (node_failed_1d(nodes, at->x)) return at;
      return std::nullopt;
    case ArchKind::kDynoc: {
      const fpga::Rect r = *footprint(id);
      for (const auto& f : nodes)
        if (r.contains({f.first, f.second}))
          return fpga::Point{f.first, f.second};
      return std::nullopt;
    }
    case ArchKind::kConochi:
      if (nodes.count({at->x, at->y})) return at;
      return std::nullopt;
    case ArchKind::kBuscom:
    case ArchKind::kNone:
      return std::nullopt;
  }
  return std::nullopt;
}

double Topology::slot_payload() const {
  return std::clamp((cycles_per_slot * in_width_bits - 20.0) / 8.0, 1.0,
                    256.0);
}

bool Topology::slot_in_range(const Scenario::SlotAssign& a) const {
  return a.bus >= 0 && a.bus < buses && a.slot >= 0 &&
         a.slot < slots_per_round;
}

int Topology::buses_up(const FailedSet& nodes) const {
  int up = 0;
  for (int b = 0; b < buses; ++b)
    if (!node_failed_1d(nodes, b)) ++up;
  return up;
}

Topology::SlotShares Topology::slot_shares(const FailedSet& nodes) const {
  SlotShares out;
  std::set<std::pair<int, int>> seen;
  for (const auto& a : s_.slots) {
    if (!slot_in_range(a) || !seen.insert({a.bus, a.slot}).second) continue;
    ++out.owned[a.owner];
    if (!node_failed_1d(nodes, a.bus)) ++out.owned_up[a.owner];
  }
  return out;
}

int Topology::segments() const { return std::max(0, slots - 1); }

std::optional<Topology::Span> Topology::span(int a, int b) const {
  const auto pa = placement(a);
  const auto pb = placement(b);
  if (!pa || !pb) return std::nullopt;
  return Span{std::min(pa->x, pb->x), std::max(pa->x, pb->x)};
}

Topology::SegmentLanes Topology::segment_lanes(
    const std::vector<Scenario::Channel>& channels) const {
  const auto segs = static_cast<std::size_t>(segments());
  SegmentLanes out{std::vector<int>(segs, 0), std::vector<int>(segs, 0)};
  for (const auto& c : channels) {
    const auto sp = span(c.src, c.dst);
    if (!sp || c.lanes < 1) continue;
    for (int seg = sp->lo; seg < sp->hi; ++seg) {
      if (seg < 0 || seg >= segments()) continue;
      out.requested[static_cast<std::size_t>(seg)] += c.lanes;
      out.held[static_cast<std::size_t>(seg)] += std::min(c.lanes, buses);
    }
  }
  return out;
}

int Topology::lanes_up(int seg, const FailedSet& links) const {
  int up = buses;
  for (const auto& f : links)
    if (f.first == seg) --up;
  return std::max(0, up);
}

int Topology::switch_index(fpga::Point p) const {
  for (std::size_t i = 0; i < s_.switches.size(); ++i)
    if (s_.switches[i] == p) return static_cast<int>(i);
  return -1;
}

int Topology::port_peer(int sw, int port) const {
  for (const Link& l : routed_[static_cast<std::size_t>(sw)])
    if (l.port == port) return l.peer;
  return -1;
}

Topology::Hops Topology::hops(const SwitchGraph& graph, int src,
                              const FailedSet* failed) const {
  Hops h{std::vector<int>(graph.size(), -1),
         std::vector<int>(graph.size(), -1)};
  const auto at = [](std::vector<int>& v, int i) -> int& {
    return v[static_cast<std::size_t>(i)];
  };
  std::queue<int> work;
  at(h.dist, src) = 0;
  work.push(src);
  while (!work.empty()) {
    const int u = work.front();
    work.pop();
    for (const Link& l : graph[static_cast<std::size_t>(u)]) {
      if (at(h.dist, l.peer) >= 0) continue;
      const fpga::Point p = s_.switches[static_cast<std::size_t>(l.peer)];
      if (failed && failed->count({p.x, p.y})) continue;
      at(h.dist, l.peer) = at(h.dist, u) + 1;
      at(h.first_port, l.peer) = u == src ? l.port : at(h.first_port, u);
      work.push(l.peer);
    }
  }
  return h;
}

std::vector<int> Topology::first_ports(int src) const {
  return hops(routed_, src, nullptr).first_port;
}

int Topology::switch_distance(int a, int b, const FailedSet* failed) const {
  const auto down = [&](int i) {
    const fpga::Point p = s_.switches[static_cast<std::size_t>(i)];
    return failed && failed->count({p.x, p.y}) > 0;
  };
  if (a < 0 || b < 0 || down(a) || down(b)) return -1;
  return hops(links_, a, failed).dist[static_cast<std::size_t>(b)];
}

}  // namespace recosim::verify
