#include "rmboc/rmboc.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "verify/diagnostic.hpp"

namespace recosim::rmboc {

Rmboc::Rmboc(sim::Kernel& kernel, const RmbocConfig& config)
    : core::CommArchitecture(kernel, "RMBoC"),
      config_(config),
      trace_(kernel),
      module_by_slot_(static_cast<std::size_t>(config.slots),
                      fpga::kInvalidModule),
      reservation_(static_cast<std::size_t>(std::max(0, config.slots - 1)),
                   std::vector<std::uint32_t>(
                       static_cast<std::size_t>(config.buses), kFreeSegment)),
      failed_lanes_(static_cast<std::size_t>(std::max(0, config.slots - 1)),
                    std::vector<bool>(static_cast<std::size_t>(config.buses),
                                      false)) {
  assert(config.slots >= 2);
  assert(config.buses >= 1);
  assert(config.link_width_bits >= 1);
  // Stays active while channels exist, but mid-burst and idle-close waits
  // are time-triggered no-ops the kernel may fast-forward across.
  set_ff_pollable(true);
}

bool Rmboc::is_quiescent() const {
  // With the busy path (burst transfers) off this reduces to the legacy
  // condition: any channel at all keeps the bus stepping cycle by cycle.
  if (!kernel().busy_path_enabled()) return channels_.empty();
  const sim::Cycle now = kernel().now();
  for (const auto& [id, c] : channels_) {
    (void)id;
    if (c.state != ChannelState::kEstablished) return false;
    if (c.burst_until != sim::kNeverCycle) {
      // Mid-burst: commit() is a no-op strictly before the landing cycle.
      if (now >= c.burst_until) return false;
      continue;
    }
    if (!c.queue.empty()) return false;  // a word moves this cycle
    // Idle established channel: nothing happens until the idle-close
    // countdown trips (or ever, when the idle close is disabled).
    if (config_.idle_close_cycles > 0 &&
        now - c.last_activity > config_.idle_close_cycles)
      return false;
  }
  return true;
}

sim::Cycle Rmboc::quiescent_deadline() const {
  sim::Cycle deadline = sim::kNeverCycle;
  for (const auto& [id, c] : channels_) {
    (void)id;
    if (c.burst_until != sim::kNeverCycle) {
      deadline = std::min(deadline, c.burst_until);
    } else if (config_.idle_close_cycles > 0) {
      deadline =
          std::min(deadline, c.last_activity + config_.idle_close_cycles + 1);
    }
  }
  return deadline;
}

bool Rmboc::attach(fpga::ModuleId id, const fpga::HardwareModule&) {
  if (id == fpga::kInvalidModule || slot_by_module_.count(id)) return false;
  for (int s = 0; s < config_.slots; ++s) {
    // A slot behind a failed cross-point is isolated; placing a module
    // there (e.g. an evacuation) would strand it, so skip it.
    if (failed_xp_.count(s)) continue;
    if (module_by_slot_[static_cast<std::size_t>(s)] == fpga::kInvalidModule) {
      module_by_slot_[static_cast<std::size_t>(s)] = id;
      slot_by_module_[id] = s;
      open_endpoint(id);
      wake_network();
      debug_check_invariants();
      return true;
    }
  }
  return false;
}

bool Rmboc::detach(fpga::ModuleId id) {
  auto it = slot_by_module_.find(id);
  if (it == slot_by_module_.end()) return false;
  const int slot = it->second;
  // Tear down every channel touching the slot and free its reservations;
  // traffic queued on those channels is lost and accounted.
  for (auto cit = channels_.begin(); cit != channels_.end();) {
    if (cit->second.src_slot == slot || cit->second.dst_slot == slot) {
      stats().counter("dropped_detach").add(cit->second.queue.size());
      release_segments(cit->second, 0);
      cit = channels_.erase(cit);
    } else {
      ++cit;
    }
  }
  module_by_slot_[static_cast<std::size_t>(slot)] = fpga::kInvalidModule;
  slot_by_module_.erase(it);
  close_endpoint(id);
  wake_network();
  debug_check_invariants();
  return true;
}

core::DesignParameters Rmboc::design_parameters() const {
  core::DesignParameters d;
  d.name = "RMBoC";
  d.type = core::ArchType::kBus;
  d.topology = core::TopologyClass::kArray1D;
  d.module_size = core::ModuleShape::kFixedSlot;
  d.switching = core::Switching::kCircuit;
  d.bit_width_min = 1;
  d.bit_width_max = 32;
  d.overhead = "control msg.";
  d.max_payload = "circuit switched";
  d.protocol_layers = 1;
  return d;
}

core::StructuralScores Rmboc::structural_scores() const {
  return core::StructuralScores{"RMBoC", core::Grade::kHigh,
                                core::Grade::kMedium, core::Grade::kLow,
                                core::Grade::kMedium};
}

std::size_t Rmboc::max_parallelism() const {
  // d_max = s * k: every segment of every bus may carry an independent
  // transfer between adjacent cross-points (paper §4.2).
  return static_cast<std::size_t>(config_.slots - 1) *
         static_cast<std::size_t>(config_.buses);
}

sim::Cycle Rmboc::path_latency(fpga::ModuleId src, fpga::ModuleId dst) const {
  (void)src;
  (void)dst;
  // An established channel is a reserved wire path: l_p = 1.
  return 1;
}

void Rmboc::verify_invariants(verify::DiagnosticSink& sink) const {
  const std::string arch = name();
  for (const auto& [id, c] : channels_) {
    const std::string obj = "channel " + std::to_string(id);
    // RMB006: endpoints must name real slots.
    if (c.src_slot < 0 || c.src_slot >= config_.slots || c.dst_slot < 0 ||
        c.dst_slot >= config_.slots || c.src_slot == c.dst_slot) {
      sink.report("RMB006", verify::Severity::kError, {arch, obj},
                  "endpoint slot outside [0, " +
                      std::to_string(config_.slots) + ") or degenerate");
      continue;  // path walk below would index out of range
    }
    // RMB002: both endpoint slots must hold the channel's modules. detach()
    // and fail_node() tear touching circuits down, so an orphan means the
    // bookkeeping was bypassed.
    const auto endpoint_ok = [&](int slot, fpga::ModuleId m) {
      return module_by_slot_[static_cast<std::size_t>(slot)] == m &&
             m != fpga::kInvalidModule;
    };
    if (!endpoint_ok(c.src_slot, c.src_module) ||
        !endpoint_ok(c.dst_slot, c.dst_module)) {
      sink.report("RMB002", verify::Severity::kError, {arch, obj},
                  "circuit endpoint slot has no matching attached module",
                  "close the channel before detaching its endpoints");
    }
    // RMB001 + RMB004: every lane the channel believes it holds must be a
    // real bus index and be reserved for it in the cross-point table.
    const int dir = c.dst_slot > c.src_slot ? 1 : -1;
    for (std::size_t i = 0; i < c.bus_per_segment.size(); ++i) {
      const int from = c.src_slot + dir * static_cast<int>(i);
      const int seg = std::min(from, from + dir);
      for (int bus : c.bus_per_segment[i]) {
        if (bus < 0 || bus >= config_.buses) {
          sink.report("RMB001", verify::Severity::kError, {arch, obj},
                      "reserved lane " + std::to_string(bus) +
                          " outside [0, " + std::to_string(config_.buses) +
                          ")");
          continue;
        }
        if (reservation_[static_cast<std::size_t>(seg)]
                        [static_cast<std::size_t>(bus)] != c.id) {
          sink.report("RMB004", verify::Severity::kError, {arch, obj},
                      "segment " + std::to_string(seg) + " lane " +
                          std::to_string(bus) +
                          " is on the channel's path but reserved for "
                          "someone else");
        }
      }
    }
  }
  // RMB004 (reverse direction): every reservation must belong to a live
  // channel that lists it on its path.
  for (std::size_t seg = 0; seg < reservation_.size(); ++seg) {
    for (std::size_t bus = 0; bus < reservation_[seg].size(); ++bus) {
      const std::uint32_t owner = reservation_[seg][bus];
      if (owner == kFreeSegment) continue;
      const auto it = channels_.find(owner);
      bool listed = false;
      if (it != channels_.end()) {
        const Channel& c = it->second;
        const int dir = c.dst_slot > c.src_slot ? 1 : -1;
        for (std::size_t i = 0; i < c.bus_per_segment.size() && !listed;
             ++i) {
          const int from = c.src_slot + dir * static_cast<int>(i);
          if (static_cast<std::size_t>(std::min(from, from + dir)) != seg)
            continue;
          for (int b : c.bus_per_segment[i])
            if (b == static_cast<int>(bus)) listed = true;
        }
      }
      if (!listed) {
        sink.report("RMB004", verify::Severity::kError,
                    {arch, "segment " + std::to_string(seg) + " lane " +
                               std::to_string(bus)},
                    "lane reserved for channel " + std::to_string(owner) +
                        " which is gone or does not claim it",
                    "release the reservation when tearing the circuit down");
      }
    }
  }
}

std::optional<int> Rmboc::slot_of(fpga::ModuleId id) const {
  auto it = slot_by_module_.find(id);
  if (it == slot_by_module_.end()) return std::nullopt;
  return it->second;
}

bool Rmboc::close_channel(fpga::ModuleId src, fpga::ModuleId dst) {
  auto s = slot_of(src);
  auto d = slot_of(dst);
  if (!s || !d) return false;
  Channel* c = find_channel(*s, *d);
  if (!c || c->state != ChannelState::kEstablished) return false;
  c->state = ChannelState::kDestroying;
  c->msg_at_slot = c->src_slot;
  c->msg_timer = 1;
  c->burst_until = sim::kNeverCycle;  // an interrupted burst is abandoned
  if (trace_.enabled())
    trace_.log(name(),
               "DESTROY " + std::to_string(src) + "->" + std::to_string(dst));
  return true;
}

bool Rmboc::has_channel(fpga::ModuleId src, fpga::ModuleId dst) const {
  auto s = slot_of(src);
  auto d = slot_of(dst);
  if (!s || !d) return false;
  const Channel* c = find_channel(*s, *d);
  return c && c->state == ChannelState::kEstablished;
}

std::size_t Rmboc::established_channels() const {
  std::size_t n = 0;
  for (const auto& [id, c] : channels_)
    if (c.state == ChannelState::kEstablished) ++n;
  return n;
}

std::size_t Rmboc::reserved_segments() const {
  // Counts reserved (segment, lane) pairs.
  std::size_t n = 0;
  for (const auto& seg : reservation_)
    for (auto r : seg)
      if (r != kFreeSegment) ++n;
  return n;
}

bool Rmboc::lane_usable(int segment, int bus) const {
  // A lane is gone when itself failed or when either cross-point bounding
  // the segment (slots `segment` and `segment + 1`) is down.
  return !failed_lanes_[static_cast<std::size_t>(segment)]
                       [static_cast<std::size_t>(bus)] &&
         !failed_xp_.count(segment) && !failed_xp_.count(segment + 1);
}

int Rmboc::find_free_bus(int segment) const {
  const auto& seg = reservation_[static_cast<std::size_t>(segment)];
  for (int b = 0; b < config_.buses; ++b)
    if (seg[static_cast<std::size_t>(b)] == kFreeSegment &&
        lane_usable(segment, b))
      return b;
  return -1;
}

std::vector<int> Rmboc::find_free_buses(int segment, int want) const {
  std::vector<int> out;
  const auto& seg = reservation_[static_cast<std::size_t>(segment)];
  for (int b = 0; b < config_.buses && static_cast<int>(out.size()) < want;
       ++b)
    if (seg[static_cast<std::size_t>(b)] == kFreeSegment &&
        lane_usable(segment, b))
      out.push_back(b);
  return out;
}

void Rmboc::replan_channel(Channel& c) {
  release_segments(c, 0);
  c.state = ChannelState::kRequesting;
  c.msg_at_slot = c.src_slot;
  c.msg_timer = 1;
  c.words_remaining = 0;  // the interrupted packet restarts from word 0
  c.burst_until = sim::kNeverCycle;  // an interrupted burst restarts too
  c.last_activity = kernel().now();
  stats().counter("channels_replanned").add();
}

bool Rmboc::fail_link(int segment, int bus) {
  if (segment < 0 || segment >= config_.slots - 1 || bus < 0 ||
      bus >= config_.buses)
    return false;
  auto lane = failed_lanes_[static_cast<std::size_t>(segment)]
                           [static_cast<std::size_t>(bus)];
  if (lane) return false;
  const std::uint32_t owner = reservation_[static_cast<std::size_t>(segment)]
                                          [static_cast<std::size_t>(bus)];
  if (owner != kFreeSegment) {
    // DESTROY the circuit holding the lane and re-establish it from the
    // source; the RMB trick lets the new REQUEST pick a different bus in
    // this segment, so the queued traffic survives.
    auto it = channels_.find(owner);
    if (it != channels_.end()) {
      replan_channel(it->second);
      stats().counter("recovered_paths").add();
    }
    reservation_[static_cast<std::size_t>(segment)]
                [static_cast<std::size_t>(bus)] = kFreeSegment;
  }
  failed_lanes_[static_cast<std::size_t>(segment)]
               [static_cast<std::size_t>(bus)] = true;
  stats().counter("lane_failures").add();
  wake_network();
  debug_check_invariants();
  return true;
}

bool Rmboc::heal_link(int segment, int bus) {
  if (segment < 0 || segment >= config_.slots - 1 || bus < 0 ||
      bus >= config_.buses)
    return false;
  auto lane = failed_lanes_[static_cast<std::size_t>(segment)]
                           [static_cast<std::size_t>(bus)];
  if (!lane) return false;
  failed_lanes_[static_cast<std::size_t>(segment)]
               [static_cast<std::size_t>(bus)] = false;
  stats().counter("lane_heals").add();
  wake_network();
  debug_check_invariants();
  return true;
}

bool Rmboc::fail_node(int slot, int) {
  if (slot < 0 || slot >= config_.slots || failed_xp_.count(slot))
    return false;
  failed_xp_.insert(slot);
  for (auto it = channels_.begin(); it != channels_.end();) {
    Channel& c = it->second;
    const int lo = std::min(c.src_slot, c.dst_slot);
    const int hi = std::max(c.src_slot, c.dst_slot);
    if (slot < lo || slot > hi) {
      ++it;
      continue;
    }
    // No path around a dead cross-point on the 1-D bus: the circuit and
    // its queued traffic are lost. Senders re-opening a channel CANCEL
    // and back off until the cross-point heals.
    release_segments(c, 0);
    if (!c.queue.empty())
      stats().counter("packets_dropped_fault").add(c.queue.size());
    it = channels_.erase(it);
  }
  stats().counter("xp_failures").add();
  wake_network();
  debug_check_invariants();
  return true;
}

std::size_t Rmboc::replan_paths() {
  std::size_t replanned = 0;
  for (auto& [id, c] : channels_) {
    if (c.bus_per_segment.empty()) continue;
    // A channel whose endpoints sit on or behind a failed cross-point
    // has no alternative on the 1-D bus; leave it for heal/evacuation.
    const int lo = std::min(c.src_slot, c.dst_slot);
    const int hi = std::max(c.src_slot, c.dst_slot);
    bool crosses_dead_xp = false;
    for (int s = lo; s <= hi && !crosses_dead_xp; ++s)
      crosses_dead_xp = failed_xp_.count(s) > 0;
    if (crosses_dead_xp) continue;
    const int dir = direction(c);
    bool broken = false;
    for (std::size_t i = 0; i < c.bus_per_segment.size() && !broken; ++i) {
      const int from = c.src_slot + dir * static_cast<int>(i);
      const int seg = segment_between(from, from + dir);
      for (int bus : c.bus_per_segment[i])
        if (!lane_usable(seg, bus)) {
          broken = true;
          break;
        }
    }
    if (!broken) continue;
    replan_channel(c);
    stats().counter("recovered_paths").add();
    ++replanned;
  }
  if (replanned) wake_network();
  return replanned;
}

bool Rmboc::heal_node(int slot, int) {
  if (failed_xp_.erase(slot) == 0) return false;
  stats().counter("xp_heals").add();
  wake_network();
  debug_check_invariants();
  return true;
}

int Rmboc::effective_lanes(const Channel& c) const {
  if (c.bus_per_segment.empty()) return 0;
  std::size_t lanes = SIZE_MAX;
  for (const auto& seg : c.bus_per_segment)
    lanes = std::min(lanes, seg.size());
  return static_cast<int>(lanes);
}

Rmboc::Channel* Rmboc::find_channel(int src_slot, int dst_slot) {
  for (auto& [id, c] : channels_)
    if (c.src_slot == src_slot && c.dst_slot == dst_slot) return &c;
  return nullptr;
}

const Rmboc::Channel* Rmboc::find_channel(int src_slot, int dst_slot) const {
  for (const auto& [id, c] : channels_)
    if (c.src_slot == src_slot && c.dst_slot == dst_slot) return &c;
  return nullptr;
}

void Rmboc::release_segments(Channel& c, std::size_t keep_first_n) {
  const int dir = direction(c);
  for (std::size_t i = keep_first_n; i < c.bus_per_segment.size(); ++i) {
    const int from = c.src_slot + dir * static_cast<int>(i);
    const int seg = segment_between(from, from + dir);
    for (int bus : c.bus_per_segment[i]) {
      auto& slotres = reservation_[static_cast<std::size_t>(seg)]
                                  [static_cast<std::size_t>(bus)];
      if (slotres == c.id) slotres = kFreeSegment;
    }
  }
  c.bus_per_segment.resize(keep_first_n);
}

bool Rmboc::do_send(const proto::Packet& p) {
  auto s = slot_of(p.src);
  auto d = slot_of(p.dst);
  if (!s || !d) return false;
  // Loopback: a module talking to itself bypasses the bus.
  if (*s == *d) return deliver(p);
  // A module behind a failed cross-point is isolated: reject instead of
  // queueing traffic that can never move.
  if (failed_xp_.count(*s) || failed_xp_.count(*d)) return false;
  Channel* c = find_channel(*s, *d);
  if (c) {
    if (c->state == ChannelState::kDestroying) return false;
    if (c->queue.size() >= config_.xp_queue_depth) return false;
    c->queue.push_back(p);
    c->last_activity = kernel().now();
    return true;
  }
  // Open a new channel: the REQUEST starts processing at the source
  // cross-point this cycle.
  Channel& nc = create_channel(*s, *d, p.src, p.dst, /*lanes=*/1);
  nc.queue.push_back(p);
  return true;
}

Rmboc::Channel& Rmboc::create_channel(int src_slot, int dst_slot,
                                      fpga::ModuleId src,
                                      fpga::ModuleId dst, int lanes) {
  Channel nc;
  nc.id = next_channel_id_++;
  nc.src_slot = src_slot;
  nc.dst_slot = dst_slot;
  nc.src_module = src;
  nc.dst_module = dst;
  nc.state = ChannelState::kRequesting;
  nc.lanes_requested = std::max(1, std::min(lanes, config_.buses));
  nc.msg_at_slot = src_slot;
  nc.msg_timer = 1;
  nc.last_activity = kernel().now();
  if (trace_.enabled())
    trace_.log(name(), "REQUEST " + std::to_string(src) + "->" +
                           std::to_string(dst) + " (channel " +
                           std::to_string(nc.id) + ", " +
                           std::to_string(nc.lanes_requested) + " lanes)");
  const std::uint32_t id = nc.id;
  channels_.emplace(id, std::move(nc));
  stats().counter("channel_requests").add();
  return channels_.at(id);
}

bool Rmboc::open_channel(fpga::ModuleId src, fpga::ModuleId dst,
                         int lanes) {
  // Quiesced endpoints accept no new circuits; channels already standing
  // keep draining (transactional quiesce/drain discipline).
  if (is_quiesced(src) || is_quiesced(dst)) return false;
  auto s = slot_of(src);
  auto d = slot_of(dst);
  if (!s || !d || *s == *d) return false;
  if (find_channel(*s, *d)) return false;
  create_channel(*s, *d, src, dst, lanes);
  wake_network();
  debug_check_invariants();
  return true;
}

std::size_t Rmboc::in_flight_packets(fpga::ModuleId involving) const {
  std::size_t n = 0;
  for (const auto& [id, c] : channels_) {
    (void)id;
    if (involving != fpga::kInvalidModule && c.src_module != involving &&
        c.dst_module != involving)
      continue;
    n += c.queue.size();
  }
  return n;
}

int Rmboc::channel_lanes(fpga::ModuleId src, fpga::ModuleId dst) const {
  auto s = slot_of(src);
  auto d = slot_of(dst);
  if (!s || !d) return 0;
  const Channel* c = find_channel(*s, *d);
  if (!c || c->state != ChannelState::kEstablished) return 0;
  return effective_lanes(*c);
}

void Rmboc::advance_request(Channel& c) {
  if (c.msg_timer > 0) {
    --c.msg_timer;
    return;
  }
  const int dir = direction(c);
  if (c.msg_at_slot == c.dst_slot) {
    // Destination accepted; REPLY walks back along the reserved path,
    // spending its first processing step at the destination cross-point.
    c.state = ChannelState::kReplying;
    c.msg_at_slot = c.dst_slot;
    c.msg_timer = 1;
    if (trace_.enabled())
      trace_.log(name(), "REPLY channel " + std::to_string(c.id));
    return;
  }
  // Reserve lanes in the segment towards the destination: as many free
  // buses as requested, at least one.
  const int seg = segment_between(c.msg_at_slot, c.msg_at_slot + dir);
  const std::vector<int> lanes = find_free_buses(seg, c.lanes_requested);
  if (lanes.empty()) {
    // Fully occupied segment: CANCEL back, releasing what we reserved.
    c.state = ChannelState::kCancelling;
    c.msg_timer = 2 * static_cast<sim::Cycle>(c.bus_per_segment.size() + 1);
    stats().counter("requests_blocked").add();
    if (trace_.enabled())
      trace_.log(name(), "CANCEL channel " + std::to_string(c.id) +
                             " (segment " + std::to_string(seg) + " full)");
    return;
  }
  for (int bus : lanes)
    reservation_[static_cast<std::size_t>(seg)]
                [static_cast<std::size_t>(bus)] = c.id;
  c.bus_per_segment.push_back(lanes);
  c.msg_at_slot += dir;
  c.msg_timer = 1;
}

void Rmboc::advance_cancel(Channel& c) {
  if (c.msg_timer > 0) {
    --c.msg_timer;
    return;
  }
  // CANCEL has reached the source: all reservations released; retry after
  // the backoff (queue is preserved so no traffic is lost).
  release_segments(c, 0);
  c.state = ChannelState::kBackoff;
  c.msg_timer = config_.retry_backoff;
}

void Rmboc::advance_destroy(Channel& c) {
  if (c.msg_timer > 0) {
    --c.msg_timer;
    return;
  }
  const int dir = direction(c);
  if (c.msg_at_slot == c.dst_slot) {
    release_segments(c, 0);
    c.state = ChannelState::kClosed;
    stats().counter("channels_destroyed").add();
    return;
  }
  c.msg_at_slot += dir;
  c.msg_timer = 1;
}

void Rmboc::pump_data(Channel& c) {
  const sim::Cycle now = kernel().now();
  if (c.burst_until != sim::kNeverCycle) {
    // Bulk transfer in flight: the delivery cycle was computed when the
    // burst started; nothing happens until it lands.
    if (now < c.burst_until) return;
    c.burst_until = sim::kNeverCycle;
    c.words_remaining = 0;
    c.last_activity = now;
    if (!deliver(c.queue.front())) stats().counter("dropped_detach").add();
    c.queue.pop_front();
    return;
  }
  if (c.queue.empty()) {
    // Optional idle teardown.
    if (config_.idle_close_cycles > 0 &&
        now - c.last_activity > config_.idle_close_cycles) {
      c.state = ChannelState::kDestroying;
      c.msg_at_slot = c.src_slot;
      c.msg_timer = 1;
    }
    return;
  }
  if (c.words_remaining == 0) {
    c.words_remaining =
        c.queue.front().payload_flits(config_.link_width_bits);
    if (c.words_remaining == 0) c.words_remaining = 1;
  }
  // One word per lane per cycle over the reserved wires.
  const std::uint32_t lanes =
      static_cast<std::uint32_t>(std::max(1, effective_lanes(c)));
  if (kernel().busy_path_enabled() && c.words_remaining > lanes) {
    // The reserved lanes cannot change under an intact circuit (lane and
    // cross-point faults replan, which restarts the packet), so the
    // per-cycle loop is fully determined: it would deliver at
    // now + ceil(words/lanes) - 1. Jump straight there.
    c.burst_until = now + (c.words_remaining - 1) / lanes;
    c.last_activity = now;
    return;
  }
  c.words_remaining -= std::min(c.words_remaining, lanes);
  c.last_activity = now;
  if (c.words_remaining == 0) {
    if (!deliver(c.queue.front())) stats().counter("dropped_detach").add();
    c.queue.pop_front();
  }
}

void Rmboc::commit() {
  for (auto it = channels_.begin(); it != channels_.end();) {
    Channel& c = it->second;
    switch (c.state) {
      case ChannelState::kRequesting:
        advance_request(c);
        break;
      case ChannelState::kReplying:
        if (c.msg_timer > 0) {
          --c.msg_timer;
        } else if (c.msg_at_slot == c.src_slot) {
          c.state = ChannelState::kEstablished;
          stats().counter("channels_established").add();
          if (trace_.enabled())
            trace_.log(name(),
                       "ESTABLISHED channel " + std::to_string(c.id));
        } else {
          c.msg_at_slot -= direction(c);
          c.msg_timer = 1;
        }
        break;
      case ChannelState::kCancelling:
        advance_cancel(c);
        break;
      case ChannelState::kBackoff:
        if (c.msg_timer > 0) {
          --c.msg_timer;
        } else {
          c.state = ChannelState::kRequesting;
          c.msg_at_slot = c.src_slot;
          c.msg_timer = 1;
          stats().counter("channel_retries").add();
        }
        break;
      case ChannelState::kEstablished:
        pump_data(c);
        break;
      case ChannelState::kDestroying:
        advance_destroy(c);
        break;
      case ChannelState::kClosed:
        break;
    }
    if (c.state == ChannelState::kClosed && c.queue.empty()) {
      it = channels_.erase(it);
    } else if (c.state == ChannelState::kClosed) {
      // Packets arrived while the DESTROY was in flight: reopen.
      c.state = ChannelState::kRequesting;
      c.msg_at_slot = c.src_slot;
      c.msg_timer = 1;
      c.words_remaining = 0;
      c.burst_until = sim::kNeverCycle;
      ++it;
    } else {
      ++it;
    }
  }
  // No channels means no per-cycle work at all (delivery queues are
  // drained pull-style by consumers); sleep until a send, channel open or
  // topology mutation wakes the bus. Idle-established channels must keep
  // running for the idle-close countdown, so they hold the bus awake.
  if (channels_.empty()) set_active(false);
}

}  // namespace recosim::rmboc
