#include "buscom/buscom.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "verify/diagnostic.hpp"

namespace recosim::buscom {

Buscom::Buscom(sim::Kernel& kernel, const BuscomConfig& config)
    : core::CommArchitecture(kernel, "BUS-COM"),
      config_(config),
      schedule_(config.buses, config.slots_per_round),
      bus_tx_(static_cast<std::size_t>(config.buses), fpga::kInvalidModule),
      in_flight_(static_cast<std::size_t>(config.buses)) {
  assert(config.buses >= 1);
  assert(config.max_modules >= 1);
  assert(config.slots_per_round >= 1);
  assert(config.cycles_per_slot >= 1);
  assert(config.in_width_bits >= 8);
  // The TDMA phase is pure bookkeeping while the bus carries nothing;
  // on_fast_forward() replays it, so an idle Buscom is fast-forwardable.
  set_ff_pollable(true);
}

bool Buscom::attach(fpga::ModuleId id, const fpga::HardwareModule&) {
  if (id == fpga::kInvalidModule || is_attached(id)) return false;
  if (attach_order_.size() >=
      static_cast<std::size_t>(config_.max_modules))
    return false;
  attach_order_.push_back(id);
  priority_.emplace(id, static_cast<int>(attach_order_.size()) - 1);
  tx_[id];
  open_endpoint(id);
  // The arbiter's design-time default: deal static slots round-robin over
  // the currently attached modules; custom reassignments come afterwards
  // through reassign_*().
  schedule_.deal_round_robin(attach_order_, config_.dynamic_fraction);
  // A sleeping bus must notice the new member's first TDMA slot.
  wake_network();
  debug_check_invariants();
  return true;
}

bool Buscom::detach(fpga::ModuleId id) {
  auto it = std::find(attach_order_.begin(), attach_order_.end(), id);
  if (it == attach_order_.end()) return false;
  attach_order_.erase(it);
  priority_.erase(id);
  // Custody rule for conservation accounting: a packet still (partially)
  // in the TX queue belongs to the sender and is counted here; a fully
  // transmitted packet belongs to reassembly and resolves exactly once at
  // its completing fragment in finish_slot_transfers() (delivered, or
  // counted there if the destination is gone by then).
  if (auto tit = tx_.find(id); tit != tx_.end()) {
    stats().counter("dropped_detach").add(tit->second.size());
    tx_.erase(tit);
  }
  close_endpoint(id);
  schedule_.evict(id);
  for (auto& b : bus_tx_)
    if (b == id) b = fpga::kInvalidModule;
  for (auto& fl : in_flight_)
    if (fl.valid && fl.packet.src == id) fl.valid = false;
  // Reassembly entries of the departed *source* can only be partial
  // (complete ones resolve immediately), so their packet was counted with
  // the TX queue above: erase without counting. Entries towards a
  // departed destination stay; they resolve at their last fragment.
  for (auto rit = reassembly_.begin(); rit != reassembly_.end();) {
    if (rit->first.src == id) {
      rit = reassembly_.erase(rit);
    } else {
      ++rit;
    }
  }
  // The slots the departed module held are dynamic again; contenders
  // parked behind it must get a chance to claim them.
  wake_network();
  debug_check_invariants();
  return true;
}

core::DesignParameters Buscom::design_parameters() const {
  core::DesignParameters d;
  d.name = "BUS-COM";
  d.type = core::ArchType::kBus;
  d.topology = core::TopologyClass::kArray1D;
  d.module_size = core::ModuleShape::kFixedSlot;
  d.switching = core::Switching::kTimeMultiplexed;
  d.bit_width_min = config_.out_width_bits;
  d.bit_width_max = config_.in_width_bits;
  d.overhead = "20 bit";
  d.max_payload = "256 byte";
  d.protocol_layers = 1;
  return d;
}

core::StructuralScores Buscom::structural_scores() const {
  return core::StructuralScores{"BUS-COM", core::Grade::kMedium,
                                core::Grade::kMedium, core::Grade::kMedium,
                                core::Grade::kMedium};
}

void Buscom::verify_invariants(verify::DiagnosticSink& sink) const {
  const std::string arch = name();
  // BUS006: configuration ranges. The constructor asserts most of these in
  // debug builds; the lint path re-checks them as diagnostics.
  if (config_.buses < 1 || config_.max_modules < 1 ||
      config_.slots_per_round < 1 || config_.cycles_per_slot < 1 ||
      config_.in_width_bits < 8 || config_.out_width_bits < 8 ||
      config_.dynamic_fraction < 0.0 || config_.dynamic_fraction > 1.0) {
    sink.report("BUS006", verify::Severity::kError, {arch, "config"},
                "configuration value outside its valid range",
                "buses/modules/slots/cycles >= 1, widths >= 8 bits, "
                "dynamic_fraction in [0, 1]");
    return;  // the schedule below cannot be trusted
  }
  // BUS003: the prototype arbiter implements one FlexRay round.
  if (config_.slots_per_round > 32) {
    sink.report("BUS003", verify::Severity::kError, {arch, "config"},
                "slots_per_round " + std::to_string(config_.slots_per_round) +
                    " exceeds the 32-slot FlexRay round",
                "split traffic across buses instead of lengthening the round");
  }
  // BUS001: every static slot's owner must still be attached (detach()
  // evicts, so this is reachable only through direct schedule edits).
  for (int b = 0; b < schedule_.buses(); ++b) {
    const BusSchedule& bus = schedule_.bus(b);
    for (int s = 0; s < bus.slots_per_round(); ++s) {
      const SlotAssignment& a = bus.slot(s);
      if (a.kind != SlotKind::kStatic) continue;
      if (is_attached(a.owner)) continue;
      sink.report("BUS001", verify::Severity::kError,
                  {arch, "bus " + std::to_string(b) + " slot " +
                             std::to_string(s)},
                  "static slot owned by unattached module " +
                      std::to_string(a.owner),
                  "reassign the slot or make it dynamic");
    }
  }
  // BUS004: an attached module with no static slot on any live bus has no
  // guaranteed bandwidth (all-dynamic operation is legal but worth a flag;
  // a bus failure can also strand a module here until redistribution).
  for (fpga::ModuleId m : attach_order_) {
    int static_slots = 0;
    for (int b = 0; b < schedule_.buses(); ++b) {
      if (failed_buses_.count(b)) continue;
      static_slots += schedule_.bus(b).static_slots_of(m);
    }
    if (static_slots > 0) continue;
    sink.report("BUS004", verify::Severity::kWarning,
                {arch, "module " + std::to_string(m)},
                "module owns no static slot on any live bus",
                "assign a static slot to guarantee bandwidth");
  }
}

void Buscom::reassign_static_slot(int bus, int slot, fpga::ModuleId owner) {
  // Arbiter tables are rewritten between rounds: stage until round start.
  pending_ops_.push_back(
      [this, bus, slot, owner] { schedule_.bus(bus).assign_static(slot, owner); });
}

void Buscom::reassign_dynamic_slot(int bus, int slot) {
  pending_ops_.push_back(
      [this, bus, slot] { schedule_.bus(bus).assign_dynamic(slot); });
}

void Buscom::set_priority(fpga::ModuleId id, int priority) {
  if (is_attached(id)) priority_[id] = priority;
}

std::uint32_t Buscom::payload_bytes_per_slot() const {
  const std::uint64_t slot_bits =
      static_cast<std::uint64_t>(config_.cycles_per_slot) *
      config_.in_width_bits;
  if (slot_bits <= proto::BuscomFraming::kOverheadBits) return 1;
  const std::uint32_t bytes = static_cast<std::uint32_t>(
      (slot_bits - proto::BuscomFraming::kOverheadBits) / 8);
  return std::max<std::uint32_t>(
      1, std::min(bytes, proto::BuscomFraming::kMaxPayloadBytes));
}

sim::Cycle Buscom::worst_case_slot_wait(fpga::ModuleId id) const {
  const int n = config_.slots_per_round;
  std::vector<int> owned;
  for (int b = 0; b < schedule_.buses(); ++b)
    for (int s = 0; s < n; ++s) {
      const auto& a = schedule_.bus(b).slot(s);
      if (a.kind == SlotKind::kStatic && a.owner == id) owned.push_back(s);
    }
  if (owned.empty())
    return static_cast<sim::Cycle>(n) * config_.cycles_per_slot;
  std::sort(owned.begin(), owned.end());
  owned.erase(std::unique(owned.begin(), owned.end()), owned.end());
  int worst_gap = 0;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const int next = owned[(i + 1) % owned.size()];
    int gap = next - owned[i];
    if (gap <= 0) gap += n;
    worst_gap = std::max(worst_gap, gap);
  }
  return static_cast<sim::Cycle>(worst_gap) * config_.cycles_per_slot;
}

bool Buscom::fail_node(int bus, int) {
  if (bus < 0 || bus >= config_.buses || failed_buses_.count(bus))
    return false;
  failed_buses_.insert(bus);
  // Roll the fragment on the dying bus back into the sender's TX queue:
  // it never completed, so the payload retransmits in a later slot on a
  // surviving bus and nothing is lost.
  auto& fl = in_flight_[static_cast<std::size_t>(bus)];
  if (fl.valid) {
    fl.valid = false;
    if (auto tit = tx_.find(fl.packet.src); tit != tx_.end()) {
      for (TxPacket& tp : tit->second) {
        if (tp.packet.id != fl.packet.id) continue;
        tp.bytes_sent -= std::min(tp.bytes_sent, fl.bytes);
        if (tp.bytes_sent == 0) tp.started = false;
        break;
      }
    }
    if (active_transfers_ > 0) --active_transfers_;
  }
  bus_tx_[static_cast<std::size_t>(bus)] = fpga::kInvalidModule;
  // Redistribute the dead bus's guaranteed bandwidth: each of its static
  // slots moves to the same slot index of a surviving bus where that slot
  // is dynamic. Staged like any table rewrite, at the round boundary.
  for (int s = 0; s < config_.slots_per_round; ++s) {
    const SlotAssignment a = schedule_.bus(bus).slot(s);
    if (a.kind != SlotKind::kStatic || !is_attached(a.owner)) continue;
    for (int b = 0; b < config_.buses; ++b) {
      if (b == bus || failed_buses_.count(b)) continue;
      if (schedule_.bus(b).slot(s).kind != SlotKind::kDynamic) continue;
      const fpga::ModuleId owner = a.owner;
      pending_ops_.push_back(
          [this, b, s, owner] { schedule_.bus(b).assign_static(s, owner); });
      stats().counter("recovered_paths").add();
      break;
    }
  }
  stats().counter("bus_failures").add();
  // The rolled-back fragment re-enters a TX queue and the staged slot
  // moves must apply at the next round boundary.
  wake_network();
  debug_check_invariants();
  return true;
}

bool Buscom::heal_node(int bus, int) {
  if (failed_buses_.erase(bus) == 0) return false;
  stats().counter("bus_heals").add();
  // Queued traffic can use the revived bus's slots immediately.
  wake_network();
  debug_check_invariants();
  return true;
}

std::size_t Buscom::replan_paths() {
  // Re-run the static-slot redistribution for every failed bus: a slot of
  // a dead bus whose owner still has no static slot at that index on any
  // surviving bus gets one. Redistribution already staged by fail_node()
  // is not repeated.
  std::size_t moved = 0;
  for (int bus : failed_buses_) {
    for (int s = 0; s < config_.slots_per_round; ++s) {
      const SlotAssignment a = schedule_.bus(bus).slot(s);
      if (a.kind != SlotKind::kStatic || !is_attached(a.owner)) continue;
      bool covered = false;
      for (int b = 0; b < config_.buses && !covered; ++b) {
        if (b == bus || failed_buses_.count(b)) continue;
        const SlotAssignment live = schedule_.bus(b).slot(s);
        covered = live.kind == SlotKind::kStatic && live.owner == a.owner;
      }
      if (covered) continue;
      for (int b = 0; b < config_.buses; ++b) {
        if (b == bus || failed_buses_.count(b)) continue;
        if (schedule_.bus(b).slot(s).kind != SlotKind::kDynamic) continue;
        const fpga::ModuleId owner = a.owner;
        pending_ops_.push_back(
            [this, b, s, owner] { schedule_.bus(b).assign_static(s, owner); });
        stats().counter("recovered_paths").add();
        ++moved;
        break;
      }
    }
  }
  if (moved) wake_network();
  return moved;
}

std::size_t Buscom::in_flight_packets(fpga::ModuleId involving) const {
  // Every undelivered packet sits in its sender's TX queue until the last
  // fragment leaves (reassembly completes in the same slot the final
  // fragment lands), so the TX queues are the complete census.
  std::size_t n = 0;
  for (const auto& [m, queue] : tx_) {
    for (const TxPacket& tp : queue) {
      if (involving != fpga::kInvalidModule && tp.packet.src != involving &&
          tp.packet.dst != involving)
        continue;
      ++n;
    }
  }
  return n;
}

std::size_t Buscom::tx_backlog(fpga::ModuleId id) const {
  auto it = tx_.find(id);
  return it == tx_.end() ? 0 : it->second.size();
}

bool Buscom::do_send(const proto::Packet& p) {
  auto it = tx_.find(p.src);
  if (it == tx_.end() || !is_attached(p.dst)) return false;
  if (it->second.size() >= config_.tx_queue_depth) return false;
  it->second.push_back(TxPacket{p, 0});
  return true;
}

fpga::ModuleId Buscom::arbitrate(int b, int slot_idx) const {
  const auto& a = schedule_.bus(b).slot(slot_idx);
  // A module is eligible while it has payload bytes not yet claimed by a
  // bus this slot. Claims always target the earliest unfinished packet,
  // so per-flow delivery order is preserved even across parallel buses.
  auto eligible = [this](fpga::ModuleId m) {
    auto it = tx_.find(m);
    if (it == tx_.end()) return false;
    for (const TxPacket& tp : it->second)
      if (!tp.started || tp.bytes_sent < tp.packet.payload_bytes)
        return true;
    return false;
  };
  if (a.kind == SlotKind::kStatic) {
    return (is_attached(a.owner) && eligible(a.owner)) ? a.owner
                                                       : fpga::kInvalidModule;
  }
  // Dynamic slot: highest priority (lowest value) wins; attach order
  // breaks ties deterministically. A quiesced module outranks any
  // priority — its admission is closed upstream, so every dynamic slot it
  // wins shortens the drain phase of the reconfiguration transaction.
  fpga::ModuleId best = fpga::kInvalidModule;
  int best_prio = 0;
  bool best_quiesced = false;
  for (fpga::ModuleId m : attach_order_) {
    if (!eligible(m)) continue;
    const int prio = priority_.at(m);
    const bool q = is_quiesced(m);
    if (best == fpga::kInvalidModule || (q && !best_quiesced) ||
        (q == best_quiesced && prio < best_prio)) {
      best = m;
      best_prio = prio;
      best_quiesced = q;
    }
  }
  return best;
}

void Buscom::begin_slot_transfers(int slot_idx) {
  active_transfers_ = 0;
  const std::uint32_t chunk = payload_bytes_per_slot();
  for (int b = 0; b < config_.buses; ++b) {
    bus_tx_[static_cast<std::size_t>(b)] = fpga::kInvalidModule;
    in_flight_[static_cast<std::size_t>(b)].valid = false;
    if (failed_buses_.count(b)) continue;  // masked: carries nothing
    const fpga::ModuleId m = arbitrate(b, slot_idx);
    if (m == fpga::kInvalidModule) continue;
    auto& queue = tx_.at(m);
    // Earliest unfinished packet in queue order.
    TxPacket* claimed = nullptr;
    for (TxPacket& tp : queue) {
      if (!tp.started || tp.bytes_sent < tp.packet.payload_bytes) {
        claimed = &tp;
        break;
      }
    }
    if (!claimed) continue;  // raced empty: leave the slot idle
    TxPacket& tp = *claimed;
    const std::uint32_t remaining = tp.packet.payload_bytes - tp.bytes_sent;
    const std::uint32_t bytes_this = std::min(remaining, chunk);
    tp.bytes_sent += bytes_this;
    tp.started = true;
    const bool last = tp.bytes_sent >= tp.packet.payload_bytes;
    auto& fl = in_flight_[static_cast<std::size_t>(b)];
    fl.valid = true;
    fl.packet = tp.packet;
    fl.bytes = bytes_this;
    fl.last = last;
    bus_tx_[static_cast<std::size_t>(b)] = m;
    ++active_transfers_;
    stats().counter("fragments_sent").add();
  }
}

void Buscom::finish_slot_transfers() {
  for (int b = 0; b < config_.buses; ++b) {
    auto& fl = in_flight_[static_cast<std::size_t>(b)];
    if (!fl.valid) continue;
    fl.valid = false;
    // Credit the fragment regardless of the destination's presence; the
    // packet resolves exactly once, at its completing fragment.
    const ReassemblyKey key{fl.packet.src, fl.packet.id};
    auto& re = reassembly_[key];
    re.packet = fl.packet;
    re.bytes_received += fl.bytes;
    if (fl.last) re.got_last = true;
    if (re.got_last && re.bytes_received >= re.packet.payload_bytes) {
      if (!deliver(re.packet)) stats().counter("dropped_detach").add();
      reassembly_.erase(key);
    }
  }
  // Drop fully transmitted packets from the TX queues.
  for (auto& [m, queue] : tx_) {
    queue.erase(std::remove_if(queue.begin(), queue.end(),
                               [](const TxPacket& tp) {
                                 return tp.started &&
                                        tp.bytes_sent >=
                                            tp.packet.payload_bytes;
                               }),
                queue.end());
  }
}

bool Buscom::idle_quiescent() const {
  // Nothing queued for transmission, no fragment on a bus, and no
  // slot-table edit waiting for a round boundary. Partial reassembly
  // entries are inert without fragments, so they need no check.
  for (const auto& [m, queue] : tx_)
    if (!queue.empty()) return false;
  for (const InFlight& fl : in_flight_)
    if (fl.valid) return false;
  return pending_ops_.empty();
}

bool Buscom::is_quiescent() const {
  // Quiescent iff every skipped commit() would only advance the TDMA
  // phase. That holds for the whole idle case above and — with burst
  // transfers enabled — also mid-slot under load: commits strictly inside
  // a slot (neither the begin at slot_cycle_ == 0 nor the ++ that reaches
  // cycles_per_slot) are pure phase increments regardless of traffic, so
  // the kernel may jump to the cycle before the slot boundary.
  if (idle_quiescent()) return true;
  return kernel().busy_path_enabled() && slot_cycle_ != 0 &&
         slot_cycle_ + 1 < config_.cycles_per_slot;
}

sim::Cycle Buscom::quiescent_deadline() const {
  // The idle case replays any window in on_fast_forward(); a loaded bus
  // mid-slot must execute again when the slot boundary work comes due.
  // The jump never crosses a slot begin, so the per-bus transfer
  // registers survive untouched — exactly what the skipped increments
  // would have left.
  if (idle_quiescent()) return sim::kNeverCycle;
  return kernel().now() + (config_.cycles_per_slot - 1 - slot_cycle_);
}

void Buscom::on_fast_forward(sim::Cycle from, sim::Cycle to) {
  const sim::Cycle delta = to - from;
  const sim::Cycle cps = config_.cycles_per_slot;
  // A slot start inside the skipped window would have run
  // begin_slot_transfers(), resetting the per-bus transfer registers
  // (arbitration itself is a no-op with all TX queues empty).
  const sim::Cycle to_next_begin = slot_cycle_ == 0 ? 0 : cps - slot_cycle_;
  if (to_next_begin < delta) {
    for (auto& b : bus_tx_) b = fpga::kInvalidModule;
    active_transfers_ = 0;
  }
  const sim::Cycle total = slot_cycle_ + delta;
  slot_cycle_ = total % cps;
  slot_idx_ = static_cast<int>(
      (static_cast<sim::Cycle>(slot_idx_) + total / cps) %
      static_cast<sim::Cycle>(config_.slots_per_round));
}

void Buscom::commit() {
  if (slot_cycle_ == 0) {
    begin_slot_transfers(slot_idx_);
  }
  ++slot_cycle_;
  if (slot_cycle_ >= config_.cycles_per_slot) {
    finish_slot_transfers();
    slot_cycle_ = 0;
    slot_idx_ = (slot_idx_ + 1) % config_.slots_per_round;
    // The arbiter's tables are rewritten only between rounds.
    if (slot_idx_ == 0 && !pending_ops_.empty()) {
      for (auto& op : pending_ops_) op();
      pending_ops_.clear();
      stats().counter("schedule_updates").add();
      debug_check_invariants();  // the arbiter tables just changed
    }
  }
}

}  // namespace recosim::buscom
