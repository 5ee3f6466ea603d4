#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "spatial/grid_index.h"
#include "spatial/linear_scan.h"
#include "spatial/probe_index.h"

namespace casc {
namespace {

// Items spread over [lo, hi]^2; a range wider than [0,1] puts points into
// the grid's clamped boundary cells.
std::vector<SpatialItem> RandomItems(int count, uint64_t seed,
                                     double lo = 0.0, double hi = 1.0) {
  Rng rng(seed);
  std::vector<SpatialItem> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    items.push_back(SpatialItem{i, {rng.Uniform(lo, hi), rng.Uniform(lo, hi)}});
  }
  return items;
}

std::vector<int64_t> Circle(const SpatialIndex& index, const Point& center,
                            double radius) {
  std::vector<int64_t> out;
  index.CircleQueryInto(center, radius, &out);
  return out;
}

// ---------------------------------------------------------------------------
// LinearScan (the reference)
// ---------------------------------------------------------------------------

TEST(LinearScanTest, EmptyQueries) {
  LinearScan index;
  EXPECT_TRUE(Circle(index, {0.5, 0.5}, 10.0).empty());
  EXPECT_EQ(index.Size(), 0u);
}

TEST(LinearScanTest, CircleBoundaryInclusive) {
  LinearScan index;
  index.Insert({1, {0.5, 0.0}});
  EXPECT_EQ(Circle(index, {0.0, 0.0}, 0.5), (std::vector<int64_t>{1}));
  EXPECT_TRUE(Circle(index, {0.0, 0.0}, 0.4999).empty());
}

TEST(LinearScanTest, ResultsAscendingAndBufferReused) {
  LinearScan index;
  index.Insert({30, {0.5, 0.5}});
  index.Insert({10, {0.5, 0.5}});
  index.Insert({20, {0.9, 0.9}});
  std::vector<int64_t> out = {99, 98, 97, 96};
  index.CircleQueryInto({0.5, 0.5}, 0.1, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{10, 30}));
}

// ---------------------------------------------------------------------------
// The probe-index heuristic
// ---------------------------------------------------------------------------

TEST(ProbeIndexTest, GridCellsClampToEightAndSixtyFour) {
  EXPECT_EQ(ProbeGridCells(0), 8);
  EXPECT_EQ(ProbeGridCells(64), 8);
  EXPECT_EQ(ProbeGridCells(100), 10);
  EXPECT_EQ(ProbeGridCells(4096), 64);
  EXPECT_EQ(ProbeGridCells(4097), 64);
  EXPECT_EQ(ProbeGridCells(1000000), 64);
}

TEST(ProbeIndexTest, LinearScanBelowCutoffGridFromCutoff) {
  const auto below = MakeProbeIndex(RandomItems(
      static_cast<int>(kProbeLinearScanCutoff) - 1, 5));
  const auto at = MakeProbeIndex(
      RandomItems(static_cast<int>(kProbeLinearScanCutoff), 5));
  EXPECT_NE(dynamic_cast<const LinearScan*>(below.get()), nullptr);
  EXPECT_NE(dynamic_cast<const GridIndex*>(at.get()), nullptr);
  EXPECT_EQ(below->Size(), kProbeLinearScanCutoff - 1);
  EXPECT_EQ(at->Size(), kProbeLinearScanCutoff);
}

// ---------------------------------------------------------------------------
// MakeProbeIndex vs. LinearScan (property test over random data)
// ---------------------------------------------------------------------------

struct IndexCase {
  std::string name;
  int item_count;
  uint64_t seed;
  double lo;  // items and query centers are drawn from [lo, hi]^2
  double hi;
};

class SpatialEquivalenceTest : public ::testing::TestWithParam<IndexCase> {};

TEST_P(SpatialEquivalenceTest, ProbeIndexMatchesLinearScan) {
  const IndexCase& param = GetParam();
  const auto items =
      RandomItems(param.item_count, param.seed, param.lo, param.hi);
  LinearScan reference;
  reference.Build(items);
  const std::unique_ptr<SpatialIndex> probe = MakeProbeIndex(items);
  ASSERT_EQ(probe->Size(), items.size());

  Rng rng(param.seed ^ 0xABCD);
  std::vector<int64_t> got;
  for (int q = 0; q < 60; ++q) {
    const Point center{rng.Uniform(param.lo, param.hi),
                       rng.Uniform(param.lo, param.hi)};
    const double radius = rng.Uniform(0.0, 0.5);
    probe->CircleQueryInto(center, radius, &got);
    EXPECT_EQ(got, Circle(reference, center, radius))
        << "center (" << center.x << ", " << center.y << ") r " << radius;
  }
  // Every item is found by a zero-radius query at its own location.
  for (const SpatialItem& item : items) {
    probe->CircleQueryInto(item.location, 0.0, &got);
    EXPECT_EQ(got, Circle(reference, item.location, 0.0)) << item.id;
  }
}

// Sizes straddle kProbeLinearScanCutoff (15 scans, 16 grids) and both
// ProbeGridCells clamps (<= 64 items: 8 cells; > 4096 items: 64 cells);
// the "outside" cases reach past [0,1]^2 into the clamped boundary cells.
INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, SpatialEquivalenceTest,
    ::testing::Values(IndexCase{"tiny", 3, 11, 0.0, 1.0},
                      IndexCase{"below_cutoff", 15, 12, 0.0, 1.0},
                      IndexCase{"at_cutoff", 16, 13, 0.0, 1.0},
                      IndexCase{"at_cutoff_outside", 16, 14, -0.3, 1.3},
                      IndexCase{"min_clamp", 64, 15, 0.0, 1.0},
                      IndexCase{"min_clamp_outside", 64, 16, -0.3, 1.3},
                      IndexCase{"medium", 500, 17, 0.0, 1.0},
                      IndexCase{"max_clamp", 4097, 18, 0.0, 1.0},
                      IndexCase{"max_clamp_outside", 5000, 19, -0.3, 1.3}),
    [](const ::testing::TestParamInfo<IndexCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// GridIndex specifics
// ---------------------------------------------------------------------------

TEST(GridIndexTest, OutOfRangePointsAreClamped) {
  GridIndex grid(8);
  grid.Insert({1, {-0.5, 2.0}});
  // Still findable by an exact circle query around its true location.
  EXPECT_EQ(Circle(grid, {-0.5, 2.0}, 0.01), (std::vector<int64_t>{1}));
  EXPECT_EQ(grid.Size(), 1u);
}

// Coordinates and radii come from instance files unchecked; values whose
// cell number overflows an int must still clamp to the boundary cells.
TEST(GridIndexTest, HugeCoordinatesAndRadiiClamp) {
  GridIndex grid(8);
  grid.Insert({1, {0.05, 0.05}});
  grid.Insert({2, {0.95, 0.95}});
  grid.Insert({3, {1e12, -1e12}});
  EXPECT_EQ(Circle(grid, {0.5, 0.5}, 1e10), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(Circle(grid, {0.5, 0.5}, 1e13), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(Circle(grid, {1e12, -1e12}, 1.0), (std::vector<int64_t>{3}));
}

TEST(GridIndexTest, SingleCellGrid) {
  GridIndex grid(1);
  for (const auto& item : RandomItems(100, 21)) grid.Insert(item);
  EXPECT_EQ(Circle(grid, {0.5, 0.5}, 1.0).size(), 100u);
}

TEST(GridIndexTest, BuildReplacesContents) {
  GridIndex grid(8);
  grid.Build(RandomItems(50, 22));
  grid.Build(RandomItems(10, 23));
  EXPECT_EQ(grid.Size(), 10u);
  EXPECT_EQ(Circle(grid, {0.5, 0.5}, 1.0).size(), 10u);
}

TEST(GridIndexTest, NegativeRadiusFindsNothing) {
  GridIndex grid(8);
  grid.Insert({1, {0.5, 0.5}});
  EXPECT_TRUE(Circle(grid, {0.5, 0.5}, -0.1).empty());
}

}  // namespace
}  // namespace casc
