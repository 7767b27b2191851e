#include "core/comm_arch.hpp"

#include <utility>

#include "proto/crc32.hpp"
#include "sim/check.hpp"
#include "verify/diagnostic.hpp"

namespace recosim::core {

CommArchitecture::CommArchitecture(sim::Kernel& kernel, std::string name)
    : sim::Component(kernel, std::move(name)) {}

void CommArchitecture::verify_invariants(verify::DiagnosticSink&) const {}

void CommArchitecture::debug_check_invariants() const {
#if RECOSIM_CHECKS_ENABLED
  verify::DiagnosticSink sink;
  verify_invariants(sink);
  for (const auto& d : sink.diagnostics()) {
    if (d.severity != verify::Severity::kError) continue;
    const std::string what = d.location.component + "(" +
                             d.location.object + "): " + d.message;
    sim::check_failed(d.rule.c_str(), "verify_invariants", what.c_str(),
                      __FILE__, __LINE__);
  }
#endif
}

bool CommArchitecture::quiesce(fpga::ModuleId id) {
  if (!is_attached(id) || quiesced_.count(id)) return false;
  quiesced_.emplace(id, kernel().now());
  stats_.counter("quiesces").add();
  wake_network();
  on_quiesce(id);
  return true;
}

bool CommArchitecture::resume(fpga::ModuleId id) {
  if (quiesced_.erase(id) == 0) return false;
  stats_.counter("resumes").add();
  wake_network();
  on_resume(id);
  return true;
}

std::size_t CommArchitecture::in_flight_packets(fpga::ModuleId) const {
  return 0;
}

bool CommArchitecture::send(proto::Packet p) {
  const auto qs = quiesced_.find(p.src);
  const auto qd = quiesced_.find(p.dst);
  if (qs != quiesced_.end() || qd != quiesced_.end()) {
    // A packet touching quiesced endpoints is only admitted when the
    // exemption hook vouches for it against each of them (a retransmission
    // of an exchange the reliable layer sequenced before the quiesce).
    const bool exempt =
        quiesce_exemption_ &&
        (qs == quiesced_.end() || quiesce_exemption_(p, qs->second)) &&
        (qd == quiesced_.end() || quiesce_exemption_(p, qd->second));
    if (!exempt) {
      stats_.counter("quiesce_rejected").add();
      return false;
    }
    stats_.counter("quiesce_exempted").add();
  }
  p.id = next_packet_id();
  p.injected_at = kernel().now();
  proto::seal(p);
  if (!do_send(p)) {
    stats_.counter("send_rejected").add();
    return false;
  }
  wake_network();
  stats_.counter("sent").add();
  stats_.counter("sent_bytes").add(p.payload_bytes);
  return true;
}

void CommArchitecture::close_endpoint(fpga::ModuleId id) {
  auto it = endpoints_.find(id);
  if (it == endpoints_.end()) return;
  stats_.counter("dropped_detach").add(it->second.size());
  backlog_ -= it->second.size();
  endpoints_.erase(it);
}

bool CommArchitecture::deliver(const proto::Packet& p) {
  auto it = endpoints_.find(p.dst);
  if (it == endpoints_.end()) return false;
  it->second.push_back(p);
  ++backlog_;
  return true;
}

std::optional<proto::Packet> CommArchitecture::receive(fpga::ModuleId at) {
  auto it = endpoints_.find(at);
  if (it == endpoints_.end() || it->second.empty()) return std::nullopt;
  proto::Packet p = std::move(it->second.front());
  it->second.pop_front();
  --backlog_;
  if (delivery_fault_ && !delivery_fault_(p)) {
    stats_.counter("dropped_fault").add();
    return std::nullopt;
  }
  if (!proto::verify(p)) {
    stats_.counter("crc_dropped").add();
    return std::nullopt;
  }
  stats_.counter("delivered").add();
  stats_.counter("delivered_bytes").add(p.payload_bytes);
  stats_.stat("latency_cycles")
      .add(static_cast<double>(kernel().now() - p.injected_at));
  return p;
}

bool CommArchitecture::fail_node(int, int) { return false; }
bool CommArchitecture::fail_link(int, int) { return false; }
bool CommArchitecture::heal_node(int, int) { return false; }
bool CommArchitecture::heal_link(int, int) { return false; }

std::uint64_t CommArchitecture::packets_dropped() const {
  // Every architecture counts its losses under one of these names.
  return stats_.counter_value("packets_dropped_reconfig") +
         stats_.counter_value("dropped_reconfig") +
         stats_.counter_value("dropped_no_module") +
         stats_.counter_value("dropped_stale_route") +
         stats_.counter_value("dropped_detach") +
         stats_.counter_value("dropped_fault") +
         stats_.counter_value("packets_dropped_fault") +
         stats_.counter_value("crc_dropped");
}

double CommArchitecture::mean_latency_cycles() const {
  auto it = stats_.stats().find("latency_cycles");
  return it == stats_.stats().end() ? 0.0 : it->second.mean();
}

}  // namespace recosim::core
