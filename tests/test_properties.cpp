// Cross-architecture property suite: invariants every CommArchitecture
// implementation must uphold, swept over architectures, seeds and loads
// with parameterized tests.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/comparison.hpp"
#include "core/traffic.hpp"

namespace recosim::core {
namespace {

enum class Kind { kRmboc, kBuscom, kDynoc, kConochi, kHierbus };

const char* name_of(Kind k) {
  switch (k) {
    case Kind::kRmboc: return "Rmboc";
    case Kind::kBuscom: return "Buscom";
    case Kind::kDynoc: return "Dynoc";
    case Kind::kConochi: return "Conochi";
    case Kind::kHierbus: return "Hierbus";
  }
  return "?";
}

MinimalSystem build(Kind k) {
  switch (k) {
    case Kind::kRmboc: return make_minimal_rmboc();
    case Kind::kBuscom: return make_minimal_buscom();
    case Kind::kDynoc: return make_minimal_dynoc();
    case Kind::kConochi: return make_minimal_conochi();
    case Kind::kHierbus: return make_minimal_hierbus();
  }
  return make_minimal_rmboc();
}

struct Params {
  Kind kind;
  std::uint64_t seed;
  double rate;
};

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  return std::string(name_of(info.param.kind)) + "_seed" +
         std::to_string(info.param.seed) + "_rate" +
         std::to_string(static_cast<int>(info.param.rate * 1000));
}

class ArchProperties : public ::testing::TestWithParam<Params> {};

// Property 1: conservation - after the sources stop and the network
// drains, every accepted packet has been delivered exactly once, with its
// integrity tag intact.
TEST_P(ArchProperties, ConservationAfterDrain) {
  auto sys = build(GetParam().kind);
  sim::Rng root(GetParam().seed);
  std::vector<std::unique_ptr<TrafficSource>> sources;
  for (auto src : sys.modules) {
    std::vector<fpga::ModuleId> others;
    for (auto m : sys.modules)
      if (m != src) others.push_back(m);
    sources.push_back(std::make_unique<TrafficSource>(
        *sys.kernel, *sys.arch, src, DestinationPolicy::uniform(others),
        SizePolicy::uniform(4, 200), InjectionPolicy::bernoulli(GetParam().rate),
        root.fork()));
  }
  TrafficSink sink(*sys.kernel, *sys.arch, sys.modules);
  sys.kernel->run(15'000);
  for (auto& s : sources) s->stop();
  sys.kernel->run(40'000);
  std::uint64_t accepted = 0;
  for (auto& s : sources) accepted += s->accepted();
  EXPECT_EQ(sink.received_total(), accepted);
  EXPECT_EQ(sink.tag_mismatches(), 0u);
  EXPECT_EQ(sys.arch->packets_delivered(), accepted);
}

// Property 2: per-flow FIFO order - a single src->dst flow is delivered
// in generation order on every architecture (all four route a fixed pair
// over one path).
TEST_P(ArchProperties, SingleFlowInOrderDelivery) {
  auto sys = build(GetParam().kind);
  TrafficSource src(*sys.kernel, *sys.arch, 1, DestinationPolicy::fixed(3),
                    SizePolicy::uniform(4, 120),
                    InjectionPolicy::bernoulli(GetParam().rate * 4),
                    sim::Rng(GetParam().seed));
  std::uint64_t expected_seq = 0;
  bool in_order = true;
  for (sim::Cycle c = 0; c < 20'000; ++c) {
    sys.kernel->step();
    while (auto p = sys.arch->receive(3)) {
      if ((p->tag & 0xFFFFFFFF) != expected_seq) in_order = false;
      ++expected_seq;
    }
  }
  EXPECT_TRUE(in_order);
  EXPECT_GT(expected_seq, 0u);
}

// Property 3: determinism - identical construction and seeds give
// bit-identical outcomes.
TEST_P(ArchProperties, DeterministicReplay) {
  auto run = [&] {
    auto sys = build(GetParam().kind);
    sim::Rng root(GetParam().seed);
    std::vector<std::unique_ptr<TrafficSource>> sources;
    for (auto src : sys.modules) {
      std::vector<fpga::ModuleId> others;
      for (auto m : sys.modules)
        if (m != src) others.push_back(m);
      sources.push_back(std::make_unique<TrafficSource>(
          *sys.kernel, *sys.arch, src, DestinationPolicy::uniform(others),
          SizePolicy::uniform(4, 64),
          InjectionPolicy::bernoulli(GetParam().rate), root.fork()));
    }
    TrafficSink sink(*sys.kernel, *sys.arch, sys.modules);
    sys.kernel->run(8'000);
    return std::make_pair(sink.received_total(),
                          sys.arch->mean_latency_cycles());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// Property 4: interface sanity - sends to unknown endpoints are refused,
// receive on unknown modules yields nothing, attached_count tracks
// attach/detach, and a detach drops exactly the packets still waiting in
// the module's delivery queue.
TEST_P(ArchProperties, EndpointValidation) {
  auto sys = build(GetParam().kind);
  proto::Packet p;
  p.src = 1;
  p.dst = 4242;
  EXPECT_FALSE(sys.arch->send(p));
  p.src = 4242;
  p.dst = 1;
  EXPECT_FALSE(sys.arch->send(p));
  EXPECT_FALSE(sys.arch->receive(4242).has_value());

  // Let packets land at module 2 without receiving them.
  p.src = 1;
  p.dst = 2;
  p.payload_bytes = 16;
  ASSERT_TRUE(sys.arch->send(p));
  ASSERT_TRUE(sys.arch->send(p));
  ASSERT_TRUE(sys.kernel->run_until(
      [&] { return sys.arch->in_flight_packets() == 0; }, 50'000));
  const std::size_t k = sys.arch->delivered_backlog();
  ASSERT_GE(k, 1u);
  const auto dropped = sys.arch->stats().counter_value("dropped_detach");

  const auto before = sys.arch->attached_count();
  EXPECT_TRUE(sys.arch->detach(2));
  EXPECT_EQ(sys.arch->attached_count(), before - 1);
  EXPECT_EQ(sys.arch->stats().counter_value("dropped_detach"), dropped + k);
  EXPECT_EQ(sys.arch->delivered_backlog(), 0u);
  EXPECT_FALSE(sys.arch->is_attached(2));
  EXPECT_FALSE(sys.arch->detach(2));

  // A re-attached module starts with an empty delivery queue.
  fpga::HardwareModule m;
  m.name = "m2";
  ASSERT_TRUE(sys.arch->attach(2, m));
  EXPECT_TRUE(sys.arch->is_attached(2));
  EXPECT_FALSE(sys.arch->receive(2).has_value());
}

// Property 5: the reported path latency is a lower bound on any measured
// end-to-end latency between the pair (serialization only adds).
TEST_P(ArchProperties, PathLatencyIsLowerBound) {
  auto sys = build(GetParam().kind);
  const sim::Cycle lp = sys.arch->path_latency(1, 4);
  proto::Packet p;
  p.src = 1;
  p.dst = 4;
  p.payload_bytes = 64;
  ASSERT_TRUE(sys.arch->send(p));
  const sim::Cycle start = sys.kernel->now();
  std::optional<proto::Packet> got;
  ASSERT_TRUE(sys.kernel->run_until(
      [&] {
        got = sys.arch->receive(4);
        return got.has_value();
      },
      50'000));
  EXPECT_GE(sys.kernel->now() - start, lp);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArchProperties,
    ::testing::Values(
        Params{Kind::kRmboc, 1, 0.002}, Params{Kind::kRmboc, 2, 0.02},
        Params{Kind::kBuscom, 1, 0.002}, Params{Kind::kBuscom, 2, 0.02},
        Params{Kind::kDynoc, 1, 0.002}, Params{Kind::kDynoc, 2, 0.02},
        Params{Kind::kConochi, 1, 0.002}, Params{Kind::kConochi, 2, 0.02},
        Params{Kind::kRmboc, 3, 0.05}, Params{Kind::kBuscom, 3, 0.05},
        Params{Kind::kDynoc, 3, 0.05}, Params{Kind::kConochi, 3, 0.05},
        Params{Kind::kHierbus, 1, 0.002}, Params{Kind::kHierbus, 2, 0.02},
        Params{Kind::kHierbus, 3, 0.05}),
    param_name);

}  // namespace
}  // namespace recosim::core
