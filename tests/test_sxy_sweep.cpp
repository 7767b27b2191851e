// Parameterized S-XY sweep: randomized rectangular obstacle layouts that
// respect the DyNoC placement invariant (one active ring per module, off
// the border, rings may touch but modules may not). Property: every
// active-to-active pair routes, never through an obstacle, with bounded
// detour.
//
// Each sweep point is a self-contained computation, so the suite also
// runs the whole sweep on the simulation farm (docs/farm.md) and checks
// the per-point result digests are byte-identical to the serial run.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dynoc/sxy_routing.hpp"
#include "farm/farm.hpp"
#include "sim/rng.hpp"

namespace recosim::dynoc {
namespace {

struct SweepParams {
  int array;
  std::uint64_t seed;
  int obstacles;
};

const std::vector<SweepParams>& sweep_points() {
  static const std::vector<SweepParams> points{
      {7, 1, 1}, {7, 2, 2}, {8, 3, 2},  {8, 4, 3},
      {9, 5, 3}, {9, 6, 4}, {10, 7, 4}, {10, 8, 5}};
  return points;
}

std::vector<fpga::Rect> layout(const SweepParams& p) {
  const int n = p.array;
  sim::Rng rng(p.seed);
  std::vector<fpga::Rect> obstacles;
  int attempts = 0;
  while (static_cast<int>(obstacles.size()) < p.obstacles &&
         ++attempts < 300) {
    fpga::Rect r;
    r.w = static_cast<int>(rng.uniform(2, 3));
    r.h = static_cast<int>(rng.uniform(2, 3));
    r.x = static_cast<int>(rng.uniform(1, std::max(1, n - 1 - r.w)));
    r.y = static_cast<int>(rng.uniform(1, std::max(1, n - 1 - r.h)));
    // Placement invariant: ring inside the array, no overlap with any
    // other module's rectangle OR ring (rings stay router-only).
    if (r.right() >= n - 0 || r.bottom() >= n - 0) continue;
    if (r.x < 1 || r.y < 1 || r.right() > n - 1 || r.bottom() > n - 1)
      continue;
    bool clash = false;
    for (const auto& o : obstacles)
      if (r.inflated(1).overlaps(o)) clash = true;
    if (!clash) obstacles.push_back(r);
  }
  return obstacles;
}

bool active(const std::vector<fpga::Rect>& obs, int n, fpga::Point p) {
  if (p.x < 0 || p.x >= n || p.y < 0 || p.y >= n) return false;
  for (const auto& r : obs)
    if (r.contains(p)) return false;
  return true;
}

/// Result of routing every active pair of one sweep point. `failures`
/// describes property violations; the digest fingerprints the full
/// outcome (per-pair hop counts included) for the serial-vs-farmed
/// equality check.
struct SweepOutcome {
  int checked = 0;
  std::vector<std::string> failures;
  std::string digest;
};

SweepOutcome run_sweep_point(const SweepParams& params) {
  const auto obs = layout(params);
  const int n = params.array;
  SweepOutcome out;
  SxyRouter router(
      [&](fpga::Point p) { return active(obs, n, p); },
      [&](fpga::Point p) -> std::optional<fpga::Rect> {
        for (const auto& r : obs)
          if (r.contains(p)) return r;
        return std::nullopt;
      });
  std::vector<fpga::Point> nodes;
  for (int y = 0; y < n; ++y)
    for (int x = 0; x < n; ++x)
      if (active(obs, n, {x, y})) nodes.push_back({x, y});
  if (nodes.size() < 2) {
    out.failures.push_back("fewer than two active nodes");
    return out;
  }

  std::ostringstream digest;
  for (const auto& a : nodes) {
    for (const auto& b : nodes) {
      if (a == b) continue;
      fpga::Point cur = a;
      SurroundState st;
      int hops = 0;
      bool ok = true;
      while (!(cur == b)) {
        auto d = router.route(cur, b, st);
        if (!d || *d == Dir::kLocal) {
          ok = false;
          break;
        }
        cur = step(cur, *d);
        if (!active(obs, n, cur)) {
          out.failures.push_back("routed into obstacle at " +
                                 std::to_string(cur.x) + "," +
                                 std::to_string(cur.y));
          return out;
        }
        if (++hops > 6 * n * n) {
          ok = false;  // livelock
          break;
        }
      }
      if (!ok) {
        out.failures.push_back(
            "unroutable " + std::to_string(a.x) + "," + std::to_string(a.y) +
            " -> " + std::to_string(b.x) + "," + std::to_string(b.y));
        return out;
      }
      const int manhattan = std::abs(a.x - b.x) + std::abs(a.y - b.y);
      // Detour bound: each obstacle adds at most its half-perimeter twice.
      int budget = manhattan;
      for (const auto& r : obs) budget += 2 * (r.w + r.h);
      if (hops > budget)
        out.failures.push_back("detour bound exceeded: " +
                               std::to_string(hops) + " > " +
                               std::to_string(budget));
      digest << hops << ";";
      ++out.checked;
    }
  }
  out.digest = digest.str();
  return out;
}

/// "a10_s7_o4": the printed GetParam() and the test's name suffix. The
/// default printer would dump the struct's bytes, padding included, so the
/// listed names would change between builds.
void PrintTo(const SweepParams& p, std::ostream* os) {
  *os << 'a' << p.array << "_s" << p.seed << "_o" << p.obstacles;
}

class SxySweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(SxySweep, AllPairsRouteWithBoundedDetour) {
  const auto out = run_sweep_point(GetParam());
  for (const auto& f : out.failures) ADD_FAILURE() << f;
  EXPECT_GT(out.checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Layouts, SxySweep,
                         ::testing::ValuesIn(sweep_points()),
                         ::testing::PrintToStringParamName());

TEST(SxySweepFarm, FarmedSweepMatchesSerial) {
  // The farm executes the same points on its worker pool; per-index
  // slots plus the ordered-result contract mean every point's full
  // hop-count digest must equal the serial one bit for bit.
  const auto& points = sweep_points();
  std::vector<SweepOutcome> serial;
  for (const auto& p : points) serial.push_back(run_sweep_point(p));

  std::vector<SweepOutcome> farmed(points.size());
  std::vector<farm::Job> jobs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    farm::Job j;
    j.key = {"dynoc", points[i].seed,
             "sxy-sweep a=" + std::to_string(points[i].array) +
                 " o=" + std::to_string(points[i].obstacles)};
    j.fn = [&farmed, &points, i](const farm::RunContext&) {
      farmed[i] = run_sweep_point(points[i]);
      farm::RunResult r;
      r.digest = farmed[i].digest;
      return r;
    };
    jobs.push_back(std::move(j));
  }
  farm::FarmConfig fc;
  fc.jobs = farm::default_jobs(jobs.size());
  const auto outcome = farm::SimFarm(fc).run(jobs);
  ASSERT_EQ(outcome.records.size(), points.size());

  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(serial[i].checked, farmed[i].checked) << "point " << i;
    EXPECT_EQ(serial[i].digest, farmed[i].digest) << "point " << i;
    EXPECT_TRUE(farmed[i].failures.empty()) << "point " << i;
    EXPECT_EQ(outcome.records[i].status, farm::RunStatus::kOk)
        << "point " << i;
  }
}

}  // namespace
}  // namespace recosim::dynoc
