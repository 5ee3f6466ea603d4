#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "algo/tpg_assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/io.h"
#include "model/objective.h"

namespace casc {
namespace {

Instance RandomInstance(int m, int n, uint64_t seed) {
  Rng rng(seed);
  SyntheticInstanceConfig config;
  config.num_workers = m;
  config.num_tasks = n;
  return GenerateSyntheticInstance(config, 1.5, &rng);
}

// ---------------------------------------------------------------------------
// Instance round trip
// ---------------------------------------------------------------------------

TEST(InstanceIoTest, RoundTripPreservesEverything) {
  const Instance original = RandomInstance(25, 10, 1);
  std::stringstream stream;
  ASSERT_TRUE(SaveInstance(original, &stream).ok());
  Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_workers(), original.num_workers());
  EXPECT_EQ(loaded->num_tasks(), original.num_tasks());
  EXPECT_DOUBLE_EQ(loaded->now(), original.now());
  EXPECT_EQ(loaded->min_group_size(), original.min_group_size());
  for (int i = 0; i < original.num_workers(); ++i) {
    const Worker& a = original.workers()[static_cast<size_t>(i)];
    const Worker& b = loaded->workers()[static_cast<size_t>(i)];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.location, b.location);
    EXPECT_DOUBLE_EQ(a.speed, b.speed);
    EXPECT_DOUBLE_EQ(a.radius, b.radius);
    EXPECT_DOUBLE_EQ(a.arrival_time, b.arrival_time);
  }
  for (int j = 0; j < original.num_tasks(); ++j) {
    const Task& a = original.tasks()[static_cast<size_t>(j)];
    const Task& b = loaded->tasks()[static_cast<size_t>(j)];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.location, b.location);
    EXPECT_DOUBLE_EQ(a.deadline, b.deadline);
    EXPECT_EQ(a.capacity, b.capacity);
  }
  for (int i = 0; i < original.num_workers(); ++i) {
    for (int k = 0; k < original.num_workers(); ++k) {
      EXPECT_DOUBLE_EQ(loaded->coop().Quality(i, k),
                       original.coop().Quality(i, k));
    }
  }
  // Valid pairs recomputed identically.
  EXPECT_EQ(loaded->NumValidPairs(), original.NumValidPairs());
}

TEST(InstanceIoTest, RoundTripPreservesSolverBehaviour) {
  const Instance original = RandomInstance(40, 15, 2);
  std::stringstream stream;
  ASSERT_TRUE(SaveInstance(original, &stream).ok());
  Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_TRUE(loaded.ok());
  TpgAssigner tpg_a, tpg_b;
  const double score_a = TotalScore(original, tpg_a.Run(original));
  const double score_b = TotalScore(*loaded, tpg_b.Run(*loaded));
  EXPECT_DOUBLE_EQ(score_a, score_b);
}

TEST(InstanceIoTest, FileRoundTrip) {
  const Instance original = RandomInstance(10, 4, 3);
  const std::string path = ::testing::TempDir() + "/casc_instance.txt";
  ASSERT_TRUE(SaveInstanceToFile(original, path).ok());
  Result<Instance> loaded = LoadInstanceFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_workers(), 10);
}

TEST(InstanceIoTest, MissingFileIsNotFound) {
  Result<Instance> loaded =
      LoadInstanceFromFile("/nonexistent/dir/instance.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(InstanceIoTest, RejectsWrongMagic) {
  std::stringstream stream("other-format v1\n");
  EXPECT_FALSE(LoadInstance(&stream).ok());
}

TEST(InstanceIoTest, RejectsTruncatedInput) {
  const Instance original = RandomInstance(8, 3, 4);
  std::stringstream stream;
  ASSERT_TRUE(SaveInstance(original, &stream).ok());
  const std::string full = stream.str();
  // Chop at several points; every prefix must fail cleanly.
  for (const size_t cut : {full.size() / 4, full.size() / 2,
                           full.size() - 5}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(LoadInstance(&truncated).ok()) << "cut at " << cut;
  }
}

TEST(InstanceIoTest, RejectsOutOfRangeQuality) {
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 2\n"
      "0 0.1 0.1 0.5 0.5 0\n"
      "1 0.2 0.2 0.5 0.5 0\n"
      "tasks 1\n"
      "0 0.15 0.15 0 5 2\n"
      "coop\n"
      "0 1.5\n"
      "1.5 0\n"
      "end\n");
  const Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_FALSE(loaded.ok());
}

TEST(InstanceIoTest, RejectsCapacityBelowMinGroup) {
  std::stringstream stream(
      "casc-instance v1\n"
      "now 0 min_group 3\n"
      "workers 0\n"
      "tasks 1\n"
      "0 0.15 0.15 0 5 2\n"
      "coop\n"
      "end\n");
  EXPECT_FALSE(LoadInstance(&stream).ok());
}

// A header count with too few records fails on the first missing record
// instead of reserving storage for the claimed count up front.
TEST(InstanceIoTest, HugeCountFailsOnMissingRecords) {
  std::stringstream workers(
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 2000000000\n"
      "0 0.1 0.1 0.5 0.5 0\n");
  const Result<Instance> from_workers = LoadInstance(&workers);
  ASSERT_FALSE(from_workers.ok());
  EXPECT_EQ(from_workers.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(from_workers.status().message(), "bad worker record 1");

  std::stringstream tasks(
      "casc-instance v1\n"
      "now 0 min_group 2\n"
      "workers 0\n"
      "tasks 2000000000\n"
      "0 0.15 0.15 0 5 2\n");
  const Result<Instance> from_tasks = LoadInstance(&tasks);
  ASSERT_FALSE(from_tasks.ok());
  EXPECT_EQ(from_tasks.status().message(), "bad task record 1");
}

// Counts, group sizes and capacities are ints in the model; larger values
// (here 2^32 + 2, which an int cast would truncate to 2) are rejected.
TEST(InstanceIoTest, RejectsValuesAboveIntMax) {
  const std::string big = "4294967298";
  const std::string worker_records =
      "0 0.1 0.1 0.5 0.5 0\n"
      "1 0.2 0.2 0.5 0.5 0\n";
  const std::string ok_workers = "workers 2\n" + worker_records;
  const std::string ok_tasks =
      "tasks 1\n"
      "0 0.15 0.15 0 5 2\n";
  const std::string coop_tail = "coop\n0 0.5\n0.5 0\nend\n";
  const auto load = [](const std::string& text) {
    std::stringstream stream(text);
    return LoadInstance(&stream);
  };
  const std::string header = "casc-instance v1\nnow 0 min_group 2\n";
  // The well-formed document loads; each case below changes one number.
  ASSERT_TRUE(load(header + ok_workers + ok_tasks + coop_tail).ok());

  const Result<Instance> huge_workers =
      load(header + "workers 100000000000\n" + ok_tasks + coop_tail);
  ASSERT_FALSE(huge_workers.ok());
  EXPECT_EQ(huge_workers.status().message(), "bad worker count");

  const Result<Instance> wrapping_workers = load(
      header + "workers " + big + "\n" + worker_records + ok_tasks +
      coop_tail);
  ASSERT_FALSE(wrapping_workers.ok());
  EXPECT_EQ(wrapping_workers.status().message(), "bad worker count");

  const Result<Instance> huge_tasks =
      load(header + ok_workers + "tasks 100000000000\n" + coop_tail);
  ASSERT_FALSE(huge_tasks.ok());
  EXPECT_EQ(huge_tasks.status().message(), "bad task count");

  const Result<Instance> wrapping_min_group =
      load("casc-instance v1\nnow 0 min_group " + big + "\n" + ok_workers +
           ok_tasks + coop_tail);
  ASSERT_FALSE(wrapping_min_group.ok());
  EXPECT_EQ(wrapping_min_group.status().message(), "bad min_group");

  const Result<Instance> wrapping_capacity = load(
      header + ok_workers + "tasks 1\n0 0.15 0.15 0 5 " + big + "\n" +
      coop_tail);
  ASSERT_FALSE(wrapping_capacity.ok());
  EXPECT_EQ(wrapping_capacity.status().message(), "bad task record 0");
}

TEST(InstanceIoTest, EmptyInstanceRoundTrips) {
  Instance empty({}, {}, CooperationMatrix(0), 0.0, 2);
  std::stringstream stream;
  ASSERT_TRUE(SaveInstance(empty, &stream).ok());
  Result<Instance> loaded = LoadInstance(&stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_workers(), 0);
  EXPECT_EQ(loaded->num_tasks(), 0);
}

// ---------------------------------------------------------------------------
// Assignment round trip
// ---------------------------------------------------------------------------

TEST(AssignmentIoTest, RoundTrip) {
  const Instance instance = RandomInstance(30, 12, 5);
  TpgAssigner tpg;
  const Assignment original = tpg.Run(instance);
  std::stringstream stream;
  ASSERT_TRUE(SaveAssignment(original, &stream).ok());
  Result<Assignment> loaded = LoadAssignment(instance, &stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Pairs(), original.Pairs());
  EXPECT_DOUBLE_EQ(TotalScore(instance, *loaded),
                   TotalScore(instance, original));
}

TEST(AssignmentIoTest, EmptyAssignmentRoundTrips) {
  const Instance instance = RandomInstance(5, 2, 6);
  const Assignment empty(instance);
  std::stringstream stream;
  ASSERT_TRUE(SaveAssignment(empty, &stream).ok());
  Result<Assignment> loaded = LoadAssignment(instance, &stream);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumAssigned(), 0);
}

TEST(AssignmentIoTest, RejectsOutOfRangeIndices) {
  const Instance instance = RandomInstance(5, 2, 7);
  std::stringstream stream(
      "casc-assignment v1\n"
      "pairs 1\n"
      "99 0\n"
      "end\n");
  const Result<Assignment> loaded = LoadAssignment(instance, &stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace casc
