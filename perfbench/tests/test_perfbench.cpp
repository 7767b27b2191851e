// Tests of the benchmark's own arithmetic: span self time and the
// percentile / sample-count helper.

#include <gtest/gtest.h>

#include <vector>

#include "sample_stats.hpp"
#include "spans.hpp"

using perfbench::Span;
using perfbench::self_times_ns;

namespace {

Span span(std::int64_t start, std::int64_t end, int parent = -1) {
  Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

}  // namespace

TEST(SelfTime, LeafSpanKeepsItsWholeDuration) {
  EXPECT_EQ(self_times_ns({span(5, 12)}), (std::vector<std::int64_t>{7}));
}

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren) {
  // root [0,100) > child [10,60) > grandchild [20,50)
  const auto self = self_times_ns({span(0, 100), span(10, 60, 0),
                                   span(20, 50, 1)});
  EXPECT_EQ(self, (std::vector<std::int64_t>{50, 20, 30}));
}

TEST(SelfTime, OverlappingSiblingsCountTheirUnionOnce) {
  // children [10,40) and [30,70) cover [10,70): 60 of the parent's 100.
  const auto self = self_times_ns({span(0, 100), span(30, 70, 0),
                                   span(10, 40, 0)});
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, SiblingContainedInAnotherAddsNothing) {
  const auto self = self_times_ns({span(0, 100), span(10, 80, 0),
                                   span(20, 30, 0)});
  EXPECT_EQ(self[0], 30);
}

TEST(SelfTime, ZeroLengthSpansCostNothing) {
  const auto self = self_times_ns({span(0, 10), span(4, 4, 0), span(7, 7)});
  EXPECT_EQ(self, (std::vector<std::int64_t>{10, 0, 0}));
}

TEST(SelfTime, ChildOutsideItsParentIsClipped) {
  const auto self = self_times_ns({span(10, 20), span(15, 40, 0),
                                   span(0, 12, 0)});
  EXPECT_EQ(self[0], 3);  // [12,15) uncovered
}

TEST(SpanRecorder, ScopedSpansNestAndRecordParents) {
  perfbench::SpanRecorder rec;
  {
    perfbench::ScopedSpan outer(&rec, "bench.run", "rmboc|1");
    perfbench::ScopedSpan inner(&rec, "fault.run_schedule", "rmboc|1",
                                outer.id());
  }
  perfbench::ScopedSpan none(nullptr, "ignored", "");
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
  EXPECT_EQ(none.id(), -1);
}

TEST(Percentile, NearestRankWithSampleCounts) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const auto p50 = perfbench::percentile(v, 50);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  const auto p95 = perfbench::percentile(v, 95);
  EXPECT_EQ(p95.value, 95);
  EXPECT_EQ(p95.beyond, 5u);
  EXPECT_EQ(perfbench::percentile(v, 100).value, 100);
}

TEST(Percentile, SmallAndEmptyInputs) {
  EXPECT_EQ(perfbench::percentile({}, 95).samples, 0u);
  EXPECT_EQ(perfbench::percentile({}, 95).value, 0.0);
  const auto one = perfbench::percentile({7.5}, 95);
  EXPECT_EQ(one.value, 7.5);
  EXPECT_EQ(one.beyond, 0u);
  EXPECT_EQ(perfbench::percentile({1, 2}, 50).value, 1);
}

TEST(Percentile, TenSamplesBeyondRule) {
  std::vector<double> v(200);
  for (int i = 0; i < 200; ++i) v[i] = i;
  EXPECT_EQ(perfbench::percentile(v, 95).beyond, perfbench::kMinTailSamples);
  v.pop_back();
  EXPECT_EQ(perfbench::percentile(v, 95).beyond,
            perfbench::kMinTailSamples - 1);
}
