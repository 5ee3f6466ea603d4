#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "geo/point.h"
#include "geo/rect.h"
#include "geo/reachability.h"

namespace casc {
namespace {

// ---------------------------------------------------------------------------
// Point
// ---------------------------------------------------------------------------

TEST(PointTest, DistanceBasics) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
}

TEST(PointTest, DistanceIsSymmetric) {
  const Point a{0.2, 0.9}, b{0.7, 0.1};
  EXPECT_DOUBLE_EQ(Distance(a, b), Distance(b, a));
}

TEST(PointTest, SquaredDistanceMatchesDistance) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Point a{rng.Uniform(), rng.Uniform()};
    const Point b{rng.Uniform(), rng.Uniform()};
    EXPECT_NEAR(SquaredDistance(a, b), Distance(a, b) * Distance(a, b),
                1e-12);
  }
}

TEST(PointTest, TriangleInequality) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const Point a{rng.Uniform(), rng.Uniform()};
    const Point b{rng.Uniform(), rng.Uniform()};
    const Point c{rng.Uniform(), rng.Uniform()};
    EXPECT_LE(Distance(a, c), Distance(a, b) + Distance(b, c) + 1e-12);
  }
}

TEST(PointTest, EqualityOperators) {
  EXPECT_EQ((Point{0.5, 0.5}), (Point{0.5, 0.5}));
  EXPECT_NE((Point{0.5, 0.5}), (Point{0.5, 0.6}));
}

TEST(PointTest, ClampToUnitSquare) {
  EXPECT_EQ(ClampToUnitSquare({-0.5, 1.5}), (Point{0.0, 1.0}));
  EXPECT_EQ(ClampToUnitSquare({0.3, 0.7}), (Point{0.3, 0.7}));
}

TEST(PointTest, ToStringRendersCoordinates) {
  const std::string text = ToString(Point{0.25, 0.75});
  EXPECT_NE(text.find("0.25"), std::string::npos);
  EXPECT_NE(text.find("0.75"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rect
// ---------------------------------------------------------------------------

TEST(RectTest, DefaultIsEmpty) {
  const Rect empty;
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_FALSE(empty.Contains(Point{1.0, 1.0}));
}

TEST(RectTest, FromCircleBounds) {
  const Rect r = Rect::FromCircle({0.5, 0.5}, 0.2);
  EXPECT_DOUBLE_EQ(r.min_x, 0.3);
  EXPECT_DOUBLE_EQ(r.max_y, 0.7);
  EXPECT_TRUE(r.Contains(Point{0.5, 0.69}));
}

TEST(RectTest, ContainsBoundaryInclusive) {
  const Rect r{0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(r.Contains(Point{0.0, 0.0}));
  EXPECT_TRUE(r.Contains(Point{1.0, 1.0}));
  EXPECT_FALSE(r.Contains(Point{1.0001, 0.5}));
}

TEST(RectTest, MinSquaredDistance) {
  const Rect r{0.0, 0.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance(Point{0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance(Point{2.0, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(r.MinSquaredDistance(Point{2.0, 2.0}), 2.0);
}

// ---------------------------------------------------------------------------
// Reachability (Definition 3)
// ---------------------------------------------------------------------------

TEST(ReachabilityTest, InWorkingAreaBoundaryInclusive) {
  EXPECT_TRUE(InWorkingArea({0, 0}, 1.0, {1.0, 0.0}));
  EXPECT_TRUE(InWorkingArea({0, 0}, 1.0, {0.6, 0.6}));
  EXPECT_FALSE(InWorkingArea({0, 0}, 1.0, {0.8, 0.8}));
}

TEST(ReachabilityTest, NegativeRadiusRejectsEverything) {
  EXPECT_FALSE(InWorkingArea({0, 0}, -0.1, {0, 0}));
}

TEST(ReachabilityTest, ZeroRadiusOnlySelf) {
  EXPECT_TRUE(InWorkingArea({0.5, 0.5}, 0.0, {0.5, 0.5}));
  EXPECT_FALSE(InWorkingArea({0.5, 0.5}, 0.0, {0.5001, 0.5}));
}

TEST(ReachabilityTest, ArrivalTimeFormula) {
  // Distance 0.3 at speed 0.1 starting at t=2 -> arrival 5.
  EXPECT_NEAR(ArrivalTime({0.0, 0.0}, 0.1, {0.3, 0.0}, 2.0), 5.0, 1e-12);
}

TEST(ReachabilityTest, ZeroSpeedCannotMove) {
  EXPECT_TRUE(std::isinf(ArrivalTime({0, 0}, 0.0, {0.1, 0}, 0.0)));
  // ... but is already at its own location.
  EXPECT_DOUBLE_EQ(ArrivalTime({0.2, 0.2}, 0.0, {0.2, 0.2}, 7.0), 7.0);
}

TEST(ReachabilityTest, DeadlineBoundaryInclusive) {
  // Needs exactly 3 time units; deadline is now + 3.
  EXPECT_TRUE(CanArriveByDeadline({0, 0}, 0.1, {0.3, 0}, 1.0, 4.0));
  EXPECT_FALSE(CanArriveByDeadline({0, 0}, 0.1, {0.3, 0}, 1.0, 3.999));
}

TEST(ReachabilityTest, FasterWorkerReachesFurther) {
  const Point target{0.5, 0.0};
  EXPECT_FALSE(CanArriveByDeadline({0, 0}, 0.1, target, 0.0, 3.0));
  EXPECT_TRUE(CanArriveByDeadline({0, 0}, 0.2, target, 0.0, 3.0));
}

TEST(ReachabilityTest, PastDeadlineUnreachable) {
  EXPECT_FALSE(CanArriveByDeadline({0, 0}, 1.0, {0.1, 0}, 5.0, 4.0));
}

}  // namespace
}  // namespace casc
