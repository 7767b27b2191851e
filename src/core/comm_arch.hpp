#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/taxonomy.hpp"
#include "fpga/module.hpp"
#include "fpga/resource.hpp"
#include "proto/packet.hpp"
#include "sim/arena.hpp"
#include "sim/component.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"

namespace recosim::verify {
class DiagnosticSink;
}

namespace recosim::core {

/// Common interface of all four communication architectures (and the
/// hierarchical-bus baseline). Examples, traffic generators and the
/// comparison runner are written against this class only, which is what
/// makes the paper's cross-architecture comparison mechanical.
///
/// The base is the network's one sim::Component and owns everything the
/// backends share: the endpoint table (one delivery queue per attached
/// module, receive(), the backlog count), admission (send() stamping and
/// sealing, quiesce/resume), the transient-fault delivery hook and the
/// drop counters. A backend implements only what the paper says differs
/// between the architectures: topology, switching and arbitration (its
/// eval()/commit(), do_send() and fabric census), plus its attach/detach
/// placement, fault hooks and verify_invariants(). It opens and closes
/// endpoints as modules come and go and calls deliver() where a packet
/// leaves its fabric.
///
/// Data-plane contract:
///  * send() stages a packet at the source module's network interface in
///    the current cycle; it returns false when the interface cannot accept
///    more traffic right now (caller retries in a later cycle).
///  * receive() pops the next packet delivered to a module, recording the
///    packet's end-to-end latency in stats() ("delivered" counter,
///    "latency_cycles" running stat).
///  * Connection-oriented architectures (RMBoC) establish their circuit
///    transparently on first use.
class CommArchitecture : public sim::Component {
 public:
  /// Registers the network with `kernel` as a component named `name`.
  CommArchitecture(sim::Kernel& kernel, std::string name);

  // -- module lifecycle ----------------------------------------------------

  /// Attach a module to the network. Placement/fabric interactions are the
  /// reconfiguration manager's job; attach() only wires up the interface.
  virtual bool attach(fpga::ModuleId id, const fpga::HardwareModule& m) = 0;
  virtual bool detach(fpga::ModuleId id) = 0;
  /// True while `id` has an endpoint (between attach and detach).
  bool is_attached(fpga::ModuleId id) const {
    return endpoints_.count(id) > 0;
  }
  std::size_t attached_count() const { return endpoints_.size(); }

  // -- data plane ----------------------------------------------------------

  /// Inject `p` at p.src. Fills in id and injection timestamp.
  bool send(proto::Packet p);

  /// Pop the next packet delivered to module `at`, if any. Packets whose
  /// CRC no longer matches (a fault flipped a bit in flight) are counted
  /// under "crc_dropped" and never handed to the caller.
  std::optional<proto::Packet> receive(fpga::ModuleId at);

  // -- quiesce / drain (transactional reconfiguration) -----------------------
  //
  // A reconfiguration transaction (core::ReconfigTxn) quiesces the modules
  // it is about to detach or relocate: send() stops admitting packets whose
  // source or destination is quiesced (counted "quiesce_rejected"), while
  // traffic already inside the network keeps flowing so the drain phase can
  // wait for it to land. Architectures override on_quiesce()/on_resume()
  // for backend-specific admission control (RMBoC freezes new channel
  // setup, BUS-COM boosts the draining module in dynamic arbitration,
  // CoNoChi refuses module moves) and in_flight_packets() so the drain
  // condition is exact instead of heuristic.

  /// Stop admitting new traffic from/to `id`. False when `id` is not
  /// attached or already quiesced.
  bool quiesce(fpga::ModuleId id);

  /// Re-open admission for `id`. False when `id` was not quiesced.
  bool resume(fpga::ModuleId id);

  bool is_quiesced(fpga::ModuleId id) const {
    return quiesced_.count(id) > 0;
  }
  std::size_t quiesced_count() const { return quiesced_.size(); }

  /// Installed by the reliable-delivery layer: lets send() admit packets
  /// that belong to an exchange which started *before* the endpoint was
  /// quiesced (retransmissions, their acknowledgements). The hook receives
  /// the packet and the cycle the endpoint quiesced at, and returns true
  /// to admit. Admissions are counted under "quiesce_exempted"; a packet
  /// must be exempt with respect to every quiesced endpoint it touches.
  void set_quiesce_exemption(
      std::function<bool(const proto::Packet&, sim::Cycle quiesced_since)>
          hook) {
    quiesce_exemption_ = std::move(hook);
  }

  /// Packets currently inside the network fabric (buffers, links, partial
  /// transfers) — *not* those already landed in delivery queues. With
  /// `involving` set, only packets whose src or dst equals that module are
  /// counted. The base implementation returns 0; every architecture
  /// overrides it with an exact census of its internal queues.
  virtual std::size_t in_flight_packets(
      fpga::ModuleId involving = fpga::kInvalidModule) const;

  /// Packets that landed in a delivery queue but have not been receive()d
  /// yet; together with in_flight_packets() it defines network_idle().
  std::size_t delivered_backlog() const { return backlog_; }

  /// True when no packet exists anywhere in the architecture — neither in
  /// the fabric nor waiting in a delivery queue. Consumers (traffic sinks,
  /// the reliable-delivery layer) use this as their quiescence condition
  /// for idle-cycle fast-forward.
  bool network_idle() const {
    return in_flight_packets() == 0 && delivered_backlog() == 0;
  }

  // -- fault hooks -----------------------------------------------------------
  //
  // The fault layer (src/fault/) speaks to every architecture through this
  // coordinate-pair interface; each backend maps (a, b) onto its own
  // resources and returns false when the fault class does not apply:
  //   DyNoC    fail_node(x, y)        router at (x, y)
  //   CoNoChi  fail_node(x, y)        switch tile at (x, y)
  //   RMBoC    fail_node(slot, -)     cross-point; fail_link(segment, bus)
  //            one bus lane of one segment
  //   BUS-COM  fail_node(bus, -)      one whole bus
  // heal_* undoes the corresponding failure. Recovery actions taken by an
  // architecture (re-chosen access routers, re-planned tables, re-routed
  // circuits, redistributed slots) are counted under "recovered_paths".

  virtual bool fail_node(int a, int b = 0);
  virtual bool fail_link(int a, int b = 0);
  virtual bool heal_node(int a, int b = 0);
  virtual bool heal_link(int a, int b = 0);

  /// Re-plan communication paths around the currently-failed resources:
  /// re-route circuits, re-choose access routers, redistribute slots —
  /// whatever the backend's degradation machinery can do *now*, without
  /// waiting for traffic to stumble onto the fault. Returns the number of
  /// paths changed (also counted under "recovered_paths"). The recovery
  /// orchestrator calls this as its re-route rung; the default does
  /// nothing.
  virtual std::size_t replan_paths() { return 0; }

  /// Installed by fault::FaultInjector: invoked for every packet as it
  /// leaves the network towards the receiving module. The hook may mutate
  /// the packet (transient bit flip) or return false to drop it (transient
  /// link loss, counted under "dropped_fault").
  void set_delivery_fault(std::function<bool(proto::Packet&)> hook) {
    delivery_fault_ = std::move(hook);
  }

  // -- static verification (src/verify) --------------------------------------

  /// Report violated structural invariants of the current configuration
  /// into `sink` without advancing the simulation: rule ids and
  /// severities are listed in docs/static-analysis.md. States reachable
  /// only through memory corruption or API misuse are errors; states a
  /// legitimate injected fault can produce (an isolated endpoint, a
  /// masked bus) are warnings. The default implementation reports
  /// nothing. `verify::Verifier::check_all()` and `recosim-lint` drive
  /// this; checked builds also run it after every reconfiguration via
  /// debug_check_invariants().
  virtual void verify_invariants(verify::DiagnosticSink& sink) const;

  // -- introspection (drives Tables 1-4) ------------------------------------

  virtual DesignParameters design_parameters() const = 0;
  virtual StructuralScores structural_scores() const = 0;

  /// Data link width in bits, as configured.
  virtual unsigned link_width_bits() const = 0;

  /// Theoretical maximum number of independent simultaneous transfers
  /// (paper §2.1 "parallelism d_max") for the current configuration.
  virtual std::size_t max_parallelism() const = 0;

  /// Path latency in cycles over an *established / uncontended* path
  /// between the two attached modules (paper §2.1 l_p), excluding
  /// serialization of the payload.
  virtual sim::Cycle path_latency(fpga::ModuleId src,
                                  fpga::ModuleId dst) const = 0;

  // -- metrics -------------------------------------------------------------

  sim::StatSet& stats() { return stats_; }
  const sim::StatSet& stats() const { return stats_; }

  std::uint64_t packets_sent() const { return stats_.counter_value("sent"); }
  std::uint64_t packets_delivered() const {
    return stats_.counter_value("delivered");
  }
  /// Packets the architecture accepted but intentionally discarded
  /// (reconfiguration losses, stale routes, departed destinations).
  /// Conservation invariant: accepted == delivered + dropped + in-flight.
  std::uint64_t packets_dropped() const;
  double mean_latency_cycles() const;

 protected:
  /// Architecture-specific injection; packet already stamped.
  virtual bool do_send(const proto::Packet& p) = 0;

  // -- endpoint table ----------------------------------------------------------

  /// Give module `id` an (empty) delivery queue; attach() calls this.
  void open_endpoint(fpga::ModuleId id) { endpoints_.try_emplace(id); }

  /// Remove `id`'s delivery queue; packets still waiting in it are lost
  /// and counted under "dropped_detach". detach() calls this.
  void close_endpoint(fpga::ModuleId id);

  /// Land `p` in the delivery queue of p.dst. Returns false when p.dst
  /// has no endpoint; the caller then counts the loss under its own
  /// reason ("dropped_detach", "dropped_no_module").
  bool deliver(const proto::Packet& p);

  /// Backend hooks fired by quiesce()/resume() after the base bookkeeping
  /// updated; is_quiesced(id) already reflects the new state.
  virtual void on_quiesce(fpga::ModuleId) {}
  virtual void on_resume(fpga::ModuleId) {}

  std::uint64_t next_packet_id() { return ++packet_serial_; }

  /// Mark the network runnable. Idempotent. send(), quiesce() and
  /// resume() call it; architecture-specific mutators (attach/detach,
  /// fault hooks, topology edits) must call it themselves.
  void wake_network() { set_active(true); }

  /// In checked builds (RECOSIM_CHECKS_ENABLED): run verify_invariants()
  /// and check-fail on the first error-severity diagnostic. The
  /// architectures call this at the end of every reconfiguration mutator
  /// (attach/detach, topology edits, fault hooks); release builds compile
  /// it to nothing.
  void debug_check_invariants() const;

 private:
  sim::StatSet stats_;
  std::uint64_t packet_serial_ = 0;
  std::function<bool(proto::Packet&)> delivery_fault_;
  std::function<bool(const proto::Packet&, sim::Cycle)> quiesce_exemption_;
  std::map<fpga::ModuleId, sim::Cycle> quiesced_;  ///< id -> quiesced-at cycle
  std::map<fpga::ModuleId, sim::PoolDeque<proto::Packet>> endpoints_;
  std::size_t backlog_ = 0;  ///< packets waiting across all endpoints_
};

}  // namespace recosim::core
