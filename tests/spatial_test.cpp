#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "spatial/grid_index.h"
#include "spatial/linear_scan.h"
#include "spatial/rtree.h"

namespace casc {
namespace {

std::vector<SpatialItem> RandomItems(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<SpatialItem> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    items.push_back(SpatialItem{i, {rng.Uniform(), rng.Uniform()}});
  }
  return items;
}

// ---------------------------------------------------------------------------
// LinearScan (the reference)
// ---------------------------------------------------------------------------

TEST(LinearScanTest, EmptyQueries) {
  LinearScan index;
  EXPECT_TRUE(index.RangeQuery({0, 0, 1, 1}).empty());
  EXPECT_TRUE(index.CircleQuery({0.5, 0.5}, 10.0).empty());
  EXPECT_TRUE(index.Knn({0.5, 0.5}, 3).empty());
  EXPECT_EQ(index.Size(), 0u);
}

TEST(LinearScanTest, BasicRange) {
  LinearScan index;
  index.Insert({1, {0.1, 0.1}});
  index.Insert({2, {0.9, 0.9}});
  index.Insert({3, {0.5, 0.5}});
  const auto hits = index.RangeQuery({0.0, 0.0, 0.6, 0.6});
  EXPECT_EQ(hits, (std::vector<int64_t>{1, 3}));
}

TEST(LinearScanTest, CircleBoundaryInclusive) {
  LinearScan index;
  index.Insert({1, {0.5, 0.0}});
  const auto hits = index.CircleQuery({0.0, 0.0}, 0.5);
  EXPECT_EQ(hits, (std::vector<int64_t>{1}));
  EXPECT_TRUE(index.CircleQuery({0.0, 0.0}, 0.4999).empty());
}

TEST(LinearScanTest, KnnOrderedByDistance) {
  LinearScan index;
  index.Insert({10, {0.9, 0.9}});
  index.Insert({20, {0.1, 0.1}});
  index.Insert({30, {0.5, 0.5}});
  const auto knn = index.Knn({0.0, 0.0}, 2);
  EXPECT_EQ(knn, (std::vector<int64_t>{20, 30}));
}

TEST(LinearScanTest, KnnMoreThanAvailable) {
  LinearScan index;
  index.Insert({1, {0.1, 0.1}});
  EXPECT_EQ(index.Knn({0.0, 0.0}, 5).size(), 1u);
}

// ---------------------------------------------------------------------------
// RTree structure
// ---------------------------------------------------------------------------

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.RangeQuery({0, 0, 1, 1}).empty());
  EXPECT_TRUE(tree.Knn({0.5, 0.5}, 4).empty());
  tree.CheckInvariants();
}

TEST(RTreeTest, InsertGrowsAndSplits) {
  RTree tree(/*max_entries=*/4, /*min_entries=*/2);
  for (int i = 0; i < 100; ++i) {
    const double x = (i % 10) / 10.0;
    const double y = (i / 10) / 10.0;
    tree.Insert({i, {x, y}});
    tree.CheckInvariants();
  }
  EXPECT_EQ(tree.Size(), 100u);
  EXPECT_GT(tree.Height(), 1);
  // Everything is in the unit square.
  EXPECT_EQ(tree.RangeQuery({0, 0, 1, 1}).size(), 100u);
}

TEST(RTreeTest, BulkLoadPacksAllItems) {
  RTree tree;
  tree.Build(RandomItems(1000, 99));
  EXPECT_EQ(tree.Size(), 1000u);
  tree.CheckInvariants();
  EXPECT_EQ(tree.RangeQuery({0, 0, 1, 1}).size(), 1000u);
}

TEST(RTreeTest, BuildReplacesContents) {
  RTree tree;
  tree.Build(RandomItems(50, 1));
  tree.Build(RandomItems(10, 2));
  EXPECT_EQ(tree.Size(), 10u);
}

TEST(RTreeTest, DuplicateLocationsSupported) {
  RTree tree(4, 2);
  for (int i = 0; i < 30; ++i) tree.Insert({i, {0.5, 0.5}});
  tree.CheckInvariants();
  EXPECT_EQ(tree.CircleQuery({0.5, 0.5}, 0.0).size(), 30u);
}

TEST(RTreeTest, MixedBuildAndInsert) {
  RTree tree;
  tree.Build(RandomItems(200, 3));
  Rng rng(4);
  for (int i = 200; i < 400; ++i) {
    tree.Insert({i, {rng.Uniform(), rng.Uniform()}});
  }
  tree.CheckInvariants();
  EXPECT_EQ(tree.Size(), 400u);
  EXPECT_EQ(tree.RangeQuery({0, 0, 1, 1}).size(), 400u);
}

// ---------------------------------------------------------------------------
// Cross-implementation equivalence (property test over random data)
// ---------------------------------------------------------------------------

struct IndexCase {
  std::string name;
  int item_count;
  uint64_t seed;
  bool bulk_load;
};

class SpatialEquivalenceTest : public ::testing::TestWithParam<IndexCase> {};

TEST_P(SpatialEquivalenceTest, AllIndexesAgree) {
  const IndexCase& param = GetParam();
  const auto items = RandomItems(param.item_count, param.seed);

  LinearScan reference;
  reference.Build(items);
  GridIndex grid(16);
  RTree rtree(8, 3);
  if (param.bulk_load) {
    grid.Build(items);
    rtree.Build(items);
  } else {
    for (const auto& item : items) {
      grid.Insert(item);
      rtree.Insert(item);
    }
  }
  rtree.CheckInvariants();

  Rng rng(param.seed ^ 0xABCD);
  for (int q = 0; q < 50; ++q) {
    const Point center{rng.Uniform(), rng.Uniform()};
    const double radius = rng.Uniform(0.0, 0.5);
    const auto expected_circle = reference.CircleQuery(center, radius);
    EXPECT_EQ(grid.CircleQuery(center, radius), expected_circle);
    EXPECT_EQ(rtree.CircleQuery(center, radius), expected_circle);

    const double x1 = rng.Uniform(), x2 = rng.Uniform();
    const double y1 = rng.Uniform(), y2 = rng.Uniform();
    const Rect rect{std::min(x1, x2), std::min(y1, y2), std::max(x1, x2),
                    std::max(y1, y2)};
    const auto expected_range = reference.RangeQuery(rect);
    EXPECT_EQ(grid.RangeQuery(rect), expected_range);
    EXPECT_EQ(rtree.RangeQuery(rect), expected_range);
  }
}

TEST_P(SpatialEquivalenceTest, KnnDistancesAgree) {
  const IndexCase& param = GetParam();
  const auto items = RandomItems(param.item_count, param.seed);
  LinearScan reference;
  reference.Build(items);
  GridIndex grid(16);
  grid.Build(items);
  RTree rtree;
  rtree.Build(items);

  auto distance_of = [&](int64_t id, const Point& center) {
    return SquaredDistance(items[static_cast<size_t>(id)].location, center);
  };

  Rng rng(param.seed ^ 0x1234);
  for (int q = 0; q < 20; ++q) {
    const Point center{rng.Uniform(), rng.Uniform()};
    for (const size_t k : {size_t{1}, size_t{5}, size_t{17}}) {
      const auto expected = reference.Knn(center, k);
      const auto from_grid = grid.Knn(center, k);
      const auto from_rtree = rtree.Knn(center, k);
      ASSERT_EQ(from_grid.size(), expected.size());
      ASSERT_EQ(from_rtree.size(), expected.size());
      // Ties make id sequences ambiguous; distances must match exactly.
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_DOUBLE_EQ(distance_of(from_grid[i], center),
                         distance_of(expected[i], center));
        EXPECT_DOUBLE_EQ(distance_of(from_rtree[i], center),
                         distance_of(expected[i], center));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, SpatialEquivalenceTest,
    ::testing::Values(IndexCase{"tiny_bulk", 3, 11, true},
                      IndexCase{"tiny_insert", 3, 11, false},
                      IndexCase{"small_bulk", 40, 12, true},
                      IndexCase{"small_insert", 40, 13, false},
                      IndexCase{"medium_bulk", 500, 14, true},
                      IndexCase{"medium_insert", 500, 15, false},
                      IndexCase{"large_bulk", 3000, 16, true}),
    [](const ::testing::TestParamInfo<IndexCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Remove: mutation path vs. rebuild-from-live-set (fuzz)
// ---------------------------------------------------------------------------

TEST(RemoveTest, RemoveMissingReturnsFalse) {
  LinearScan scan;
  GridIndex grid(8);
  RTree rtree(4, 2);
  const SpatialItem item{7, {0.5, 0.5}};
  EXPECT_FALSE(scan.Remove(item));
  EXPECT_FALSE(grid.Remove(item));
  EXPECT_FALSE(rtree.Remove(item));
  scan.Insert(item);
  grid.Insert(item);
  rtree.Insert(item);
  // Same id at a different location is not a match.
  const SpatialItem elsewhere{7, {0.1, 0.1}};
  EXPECT_FALSE(scan.Remove(elsewhere));
  EXPECT_FALSE(grid.Remove(elsewhere));
  EXPECT_FALSE(rtree.Remove(elsewhere));
  EXPECT_TRUE(scan.Remove(item));
  EXPECT_TRUE(grid.Remove(item));
  EXPECT_TRUE(rtree.Remove(item));
  EXPECT_EQ(scan.Size(), 0u);
  EXPECT_EQ(grid.Size(), 0u);
  EXPECT_EQ(rtree.Size(), 0u);
}

// Interleaves inserts and removals on every mutation-capable index and
// checks each query against a LinearScan rebuilt from the live set — the
// invariant the streaming plane's delta maintenance rests on.
TEST(RemoveTest, FuzzInterleavedMutationsMatchRebuild) {
  for (const uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    GridIndex grid(8);
    RTree rtree(6, 2);
    LinearScan scan;
    // Seed with a bulk load so the R-tree starts from an STR packing.
    std::vector<SpatialItem> live = RandomItems(100, seed ^ 0xF00);
    grid.Build(live);
    rtree.Build(live);
    scan.Build(live);
    int64_t next_id = 100;

    for (int step = 0; step < 400; ++step) {
      if (live.empty() || rng.Uniform() < 0.5) {
        const SpatialItem item{next_id++, {rng.Uniform(), rng.Uniform()}};
        live.push_back(item);
        grid.Insert(item);
        rtree.Insert(item);
        scan.Insert(item);
      } else {
        const size_t victim = static_cast<size_t>(
            rng.Uniform() * static_cast<double>(live.size()));
        const SpatialItem item = live[std::min(victim, live.size() - 1)];
        live[std::min(victim, live.size() - 1)] = live.back();
        live.pop_back();
        EXPECT_TRUE(grid.Remove(item));
        EXPECT_TRUE(rtree.Remove(item));
        EXPECT_TRUE(scan.Remove(item));
      }
      ASSERT_EQ(grid.Size(), live.size());
      ASSERT_EQ(rtree.Size(), live.size());
      ASSERT_EQ(scan.Size(), live.size());

      if (step % 20 == 19) {
        rtree.CheckInvariants();
        LinearScan reference;
        reference.Build(live);
        const Point center{rng.Uniform(), rng.Uniform()};
        const double radius = rng.Uniform(0.0, 0.4);
        const auto expected = reference.CircleQuery(center, radius);
        EXPECT_EQ(grid.CircleQuery(center, radius), expected);
        EXPECT_EQ(rtree.CircleQuery(center, radius), expected);
        EXPECT_EQ(scan.CircleQuery(center, radius), expected);
        const Rect rect{rng.Uniform(0.0, 0.5), rng.Uniform(0.0, 0.5),
                        rng.Uniform(0.5, 1.0), rng.Uniform(0.5, 1.0)};
        const auto expected_range = reference.RangeQuery(rect);
        EXPECT_EQ(grid.RangeQuery(rect), expected_range);
        EXPECT_EQ(rtree.RangeQuery(rect), expected_range);
        EXPECT_EQ(scan.RangeQuery(rect), expected_range);
      }
    }
  }
}

TEST(RemoveTest, RTreeTombstoneCounterTracksRemovalsAndResetsOnBuild) {
  RTree tree(4, 2);
  const auto items = RandomItems(64, 77);
  tree.Build(items);
  EXPECT_EQ(tree.removed_since_build(), 0);
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(tree.Remove(items[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(tree.removed_since_build(), 16);
  EXPECT_EQ(tree.Size(), 48u);
  tree.CheckInvariants();
  // Failed removals don't count.
  EXPECT_FALSE(tree.Remove(items[0]));
  EXPECT_EQ(tree.removed_since_build(), 16);
  // Rebuild resets the tombstone counter.
  tree.Build(
      std::vector<SpatialItem>(items.begin() + 16, items.end()));
  EXPECT_EQ(tree.removed_since_build(), 0);
  EXPECT_EQ(tree.Size(), 48u);
}

TEST(RemoveTest, RTreeDrainToEmptyAndRefill) {
  RTree tree(4, 2);
  auto items = RandomItems(50, 88);
  for (const auto& item : items) tree.Insert(item);
  for (const auto& item : items) EXPECT_TRUE(tree.Remove(item));
  EXPECT_EQ(tree.Size(), 0u);
  tree.CheckInvariants();
  EXPECT_TRUE(tree.RangeQuery({0, 0, 1, 1}).empty());
  for (const auto& item : items) tree.Insert(item);
  tree.CheckInvariants();
  EXPECT_EQ(tree.RangeQuery({0, 0, 1, 1}).size(), 50u);
}

// ---------------------------------------------------------------------------
// GridIndex specifics
// ---------------------------------------------------------------------------

TEST(GridIndexTest, OutOfRangePointsAreClamped) {
  GridIndex grid(8);
  grid.Insert({1, {-0.5, 2.0}});
  // Still findable by an exact circle query around its true location.
  EXPECT_EQ(grid.CircleQuery({-0.5, 2.0}, 0.01), (std::vector<int64_t>{1}));
  EXPECT_EQ(grid.Size(), 1u);
}

TEST(GridIndexTest, SingleCellGrid) {
  GridIndex grid(1);
  for (const auto& item : RandomItems(100, 21)) grid.Insert(item);
  EXPECT_EQ(grid.RangeQuery({0, 0, 1, 1}).size(), 100u);
  EXPECT_EQ(grid.Knn({0.5, 0.5}, 7).size(), 7u);
}

}  // namespace
}  // namespace casc
