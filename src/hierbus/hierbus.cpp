#include "hierbus/hierbus.hpp"

#include <algorithm>
#include <cassert>

namespace recosim::hierbus {

HierBus::HierBus(sim::Kernel& kernel, const HierBusConfig& config)
    : core::CommArchitecture(kernel, "HierBus"), config_(config) {
  assert(config.system_width_bits >= 8);
  assert(config.peripheral_width_bits >= 8);
  assert(config.peripheral_divider >= 1);
  system_.tier = BusTier::kSystem;
  peripheral_.tier = BusTier::kPeripheral;
}

bool HierBus::network_empty() const {
  if (system_.active || peripheral_.active) return false;
  if (!to_system_.empty() || !to_peripheral_.empty()) return false;
  for (const auto& [m, queue] : tx_)
    if (!queue.empty()) return false;
  return true;
}

std::size_t HierBus::in_flight_packets(fpga::ModuleId involving) const {
  auto counts = [involving](const proto::Packet& p) {
    return involving == fpga::kInvalidModule || p.src == involving ||
           p.dst == involving;
  };
  std::size_t n = 0;
  for (const auto& [m, queue] : tx_)
    for (const proto::Packet& p : queue)
      if (counts(p)) ++n;
  for (const Bus* bus : {&system_, &peripheral_})
    if (bus->active && counts(bus->active->packet)) ++n;
  for (const auto* buffer : {&to_system_, &to_peripheral_})
    for (const proto::Packet& p : *buffer)
      if (counts(p)) ++n;
  return n;
}

bool HierBus::attach_to(fpga::ModuleId id, BusTier tier) {
  if (id == fpga::kInvalidModule || tier_.count(id)) return false;
  tier_[id] = tier;
  bus_for(tier).members.push_back(id);
  tx_[id];
  open_endpoint(id);
  wake_network();
  return true;
}

bool HierBus::attach(fpga::ModuleId id, const fpga::HardwareModule&) {
  return attach_to(id, id % 2 == 0 ? BusTier::kSystem
                                   : BusTier::kPeripheral);
}

bool HierBus::detach(fpga::ModuleId id) {
  auto it = tier_.find(id);
  if (it == tier_.end()) return false;
  Bus& bus = bus_for(it->second);
  bus.members.erase(
      std::remove(bus.members.begin(), bus.members.end(), id),
      bus.members.end());
  bus.rr = 0;
  if (auto tit = tx_.find(id); tit != tx_.end()) {
    stats().counter("dropped_detach").add(tit->second.size());
    tx_.erase(tit);
  }
  close_endpoint(id);
  tier_.erase(it);
  wake_network();
  return true;
}

core::DesignParameters HierBus::design_parameters() const {
  core::DesignParameters d;
  d.name = "HierBus";
  d.type = core::ArchType::kBus;
  d.topology = core::TopologyClass::kArray1D;
  d.module_size = core::ModuleShape::kFixedSlot;
  d.switching = core::Switching::kTimeMultiplexed;
  d.bit_width_min = config_.peripheral_width_bits;
  d.bit_width_max = config_.system_width_bits;
  d.overhead = "address phase";
  d.max_payload = "burst";
  d.protocol_layers = 1;
  return d;
}

core::StructuralScores HierBus::structural_scores() const {
  // The conventional baseline: no runtime reconfiguration support at all.
  return core::StructuralScores{"HierBus", core::Grade::kLow,
                                core::Grade::kLow, core::Grade::kLow,
                                core::Grade::kMedium};
}

sim::Cycle HierBus::path_latency(fpga::ModuleId src,
                                 fpga::ModuleId dst) const {
  auto s = tier_of(src);
  auto d = tier_of(dst);
  if (!s || !d) return 0;
  if (*s == *d) return 1;
  // Two bus grants plus the bridge's store-and-forward stage.
  return 2 + config_.arbitration_cycles;
}

std::optional<BusTier> HierBus::tier_of(fpga::ModuleId id) const {
  auto it = tier_.find(id);
  if (it == tier_.end()) return std::nullopt;
  return it->second;
}

sim::Cycle HierBus::burst_cycles(const proto::Packet& p,
                                 BusTier tier) const {
  const unsigned width = tier == BusTier::kSystem
                             ? config_.system_width_bits
                             : config_.peripheral_width_bits;
  const sim::Cycle beat =
      tier == BusTier::kSystem ? 1 : config_.peripheral_divider;
  const std::uint32_t flits = std::max(1u, p.payload_flits(width));
  return config_.arbitration_cycles + beat * flits;
}

bool HierBus::do_send(const proto::Packet& p) {
  if (!is_attached(p.src) || !is_attached(p.dst)) return false;
  auto& q = tx_[p.src];
  if (q.size() >= config_.tx_queue_depth) return false;
  if (p.src == p.dst) return deliver(p);
  q.push_back(p);
  return true;
}

void HierBus::advance(Bus& bus) {
  if (!bus.active) return;
  if (bus.active->remaining > 0) --bus.active->remaining;
  if (bus.active->remaining > 0) return;
  Transfer done = std::move(*bus.active);
  bus.active.reset();
  if (done.to_bridge) {
    // First leg complete: the bridge now owns the packet and will
    // contend for the other bus.
    auto& buffer = bus.tier == BusTier::kSystem ? to_peripheral_
                                                : to_system_;
    buffer.push_back(std::move(done.packet));
    stats().counter("bridge_transfers").add();
  } else if (!deliver(done.packet)) {
    stats().counter("dropped_detach").add();
  }
}

void HierBus::arbitrate(Bus& bus) {
  if (bus.active) return;
  auto& bridge_in = bus.tier == BusTier::kSystem ? to_system_
                                                 : to_peripheral_;
  auto& bridge_out = bus.tier == BusTier::kSystem ? to_peripheral_
                                                  : to_system_;
  const std::size_t slots = bus.members.size() + 1;  // + the bridge
  for (std::size_t k = 0; k < slots; ++k) {
    const std::size_t slot = (bus.rr + k) % slots;
    if (slot == bus.members.size()) {
      // The bridge's turn: drive a buffered packet onto this bus.
      if (bridge_in.empty()) continue;
      Transfer t;
      t.packet = std::move(bridge_in.front());
      bridge_in.pop_front();
      t.to_bridge = false;
      t.remaining = burst_cycles(t.packet, bus.tier);
      bus.active = std::move(t);
      bus.rr = (slot + 1) % slots;
      return;
    }
    const fpga::ModuleId m = bus.members[slot];
    auto& q = tx_[m];
    if (q.empty()) continue;
    const proto::Packet& head = q.front();
    const auto dst = tier_.find(head.dst);
    if (dst == tier_.end()) {
      // The destination detached while the packet queued; drop it as
      // advance() drops an in-flight one.
      stats().counter("dropped_detach").add();
      q.pop_front();
      continue;
    }
    const bool cross = dst->second != bus.tier;
    if (cross && bridge_out.size() >= config_.bridge_buffer_packets)
      continue;  // bridge full: the §2.2 bottleneck in action
    Transfer t;
    t.packet = head;
    t.to_bridge = cross;
    t.remaining = burst_cycles(head, bus.tier);
    q.pop_front();
    bus.active = std::move(t);
    bus.rr = (slot + 1) % slots;
    return;
  }
}

void HierBus::commit() {
  advance(system_);
  advance(peripheral_);
  arbitrate(system_);
  arbitrate(peripheral_);
  // Sleep once both buses and the bridge drain; do_send() (via the base
  // wrapper) and the mutators wake the component again.
  if (network_empty()) set_active(false);
}

}  // namespace recosim::hierbus
