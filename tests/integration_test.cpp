#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/best_response.h"
#include "algo/gt_assigner.h"
#include "bench_util/experiment.h"
#include "bench_util/replication.h"
#include "bench_util/settings.h"
#include "bench_util/table_printer.h"
#include "common/status.h"
#include "common/strings.h"
#include "model/objective.h"

namespace casc {
namespace {

ExperimentSettings SmallSettings(uint64_t seed) {
  ExperimentSettings settings;
  settings.num_workers = 120;
  settings.num_tasks = 40;
  settings.rounds = 3;
  settings.seed = seed;
  return settings;
}

// ---------------------------------------------------------------------------
// Approach factory
// ---------------------------------------------------------------------------

TEST(ExperimentTest, ApproachNamesMatchPaper) {
  const ExperimentSettings settings;
  for (const ApproachId id : AllApproaches()) {
    const auto assigner = MakeApproach(id, settings);
    ASSERT_NE(assigner, nullptr);
    EXPECT_EQ(assigner->Name(), ApproachName(id));
  }
  EXPECT_EQ(ApproachName(ApproachId::kGtAll), "GT+ALL");
  EXPECT_EQ(AllApproaches().size(), 7u);
}

TEST(ExperimentTest, ApproachFromNameResolvesEverySpelling) {
  const ExperimentSettings settings;
  for (const char* name :
       {"TPG", "GT", "GT+TSI", "GT+LUB", "GT+ALL", "MFLOW", "RAND",
        "ONLINE", "EXACT", "tpg", "gt+all", "Online"}) {
    const auto assigner = MakeApproachFromName(name, settings);
    EXPECT_TRUE(assigner.ok()) << name;
  }
}

TEST(ExperimentTest, ApproachFromNameSupportsSwapSuffix) {
  const ExperimentSettings settings;
  const auto assigner = MakeApproachFromName("GT+SWAP", settings);
  ASSERT_TRUE(assigner.ok());
  EXPECT_EQ((*assigner)->Name(), "GT+SWAP");
  const auto nested = MakeApproachFromName("tpg+swap", settings);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ((*nested)->Name(), "TPG+SWAP");
}

TEST(ExperimentTest, ApproachFromNameRejectsUnknown) {
  const ExperimentSettings settings;
  const auto assigner = MakeApproachFromName("SIMPLEX", settings);
  ASSERT_FALSE(assigner.ok());
  EXPECT_EQ(assigner.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExperimentTest, ApproachFromNameHonorsEpsilon) {
  ExperimentSettings settings;
  settings.epsilon = 0.42;
  const auto assigner = MakeApproachFromName("GT+TSI", settings);
  ASSERT_TRUE(assigner.ok());
  const auto* gt = dynamic_cast<const GtAssigner*>(assigner->get());
  ASSERT_NE(gt, nullptr);
  EXPECT_DOUBLE_EQ(gt->options().epsilon, 0.42);
}

TEST(ExperimentTest, SettingsToStringMentionsEveryKnob) {
  const ExperimentSettings settings;
  const std::string text = settings.ToString();
  for (const char* token :
       {"a_j=4", "m=1000", "n=500", "B=3", "R=10", "eps=0.05"}) {
    EXPECT_NE(text.find(token), std::string::npos) << token;
  }
}

TEST(ExperimentTest, SettingsUnitConversion) {
  ExperimentSettings settings;
  settings.speed_min_pct = 1.0;
  settings.speed_max_pct = 10.0;
  settings.radius_min_pct = 15.0;
  settings.radius_max_pct = 20.0;
  const WorkerGenConfig config = settings.MakeWorkerConfig();
  EXPECT_DOUBLE_EQ(config.speed_min, 0.01);
  EXPECT_DOUBLE_EQ(config.speed_max, 0.10);
  EXPECT_DOUBLE_EQ(config.radius_min, 0.15);
  EXPECT_DOUBLE_EQ(config.radius_max, 0.20);
}

TEST(ExperimentTest, SettingsValidateAcceptsDefaultsAndEdges) {
  EXPECT_TRUE(ExperimentSettings{}.Validate().ok());
  ExperimentSettings edges;
  edges.num_workers = 0;
  edges.num_tasks = 0;
  edges.min_group_size = 2;
  edges.capacity = 2;
  EXPECT_TRUE(edges.Validate().ok());
}

// The cases `casc_cli generate` used to crash on (a length_error from
// --workers -5, Instance CHECKs from --min-group 1, --capacity 0 and
// --min-group 9 > capacity), plus the remaining range checks.
TEST(ExperimentTest, SettingsValidateRejectsBadValues) {
  const std::vector<std::pair<std::string,
                              std::function<void(ExperimentSettings*)>>>
      cases = {
          {"workers -5", [](ExperimentSettings* s) { s->num_workers = -5; }},
          {"tasks -1", [](ExperimentSettings* s) { s->num_tasks = -1; }},
          {"min-group 1",
           [](ExperimentSettings* s) { s->min_group_size = 1; }},
          {"capacity 0", [](ExperimentSettings* s) { s->capacity = 0; }},
          {"min-group 9", [](ExperimentSettings* s) { s->min_group_size = 9; }},
          {"speed range",
           [](ExperimentSettings* s) { s->speed_min_pct = 6.0; }},
          {"negative speed",
           [](ExperimentSettings* s) { s->speed_min_pct = -1.0; }},
          {"radius range",
           [](ExperimentSettings* s) { s->radius_max_pct = 1.0; }},
          {"remaining time",
           [](ExperimentSettings* s) { s->remaining_time = -1.0; }},
          {"epsilon", [](ExperimentSettings* s) { s->epsilon = -0.1; }},
          {"rounds", [](ExperimentSettings* s) { s->rounds = -1; }},
      };
  for (const auto& [name, mutate] : cases) {
    ExperimentSettings settings;
    mutate(&settings);
    const Status status = settings.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
  }
}

// ---------------------------------------------------------------------------
// RunComparison invariants (the cross-algorithm contract)
// ---------------------------------------------------------------------------

class ComparisonTest
    : public ::testing::TestWithParam<std::pair<DataKind, uint64_t>> {};

TEST_P(ComparisonTest, PaperOrderingHolds) {
  const auto [kind, seed] = GetParam();
  ExperimentSettings settings = SmallSettings(seed);
  const auto results = RunComparison(settings, kind, AllApproaches());
  ASSERT_EQ(results.size(), 7u);

  double scores[7];
  for (size_t i = 0; i < 7; ++i) scores[i] = results[i].total_score;
  const double tpg = scores[0], gt = scores[1], gt_lub = scores[2],
               mflow = scores[5], rand = scores[6];
  const double upper = results[0].total_upper;

  // GT never falls below its TPG initialization.
  EXPECT_GE(gt + 1e-9, tpg);
  EXPECT_GE(gt_lub + 1e-9, tpg);
  // The GT family and TPG dominate the cooperation-oblivious baselines.
  EXPECT_GT(tpg, mflow);
  EXPECT_GT(tpg, rand);
  // Everything respects UPPER.
  for (const auto& result : results) {
    EXPECT_LE(result.total_score, upper + 1e-9) << result.name;
  }
}

TEST_P(ComparisonTest, AllBatchesValidatedAndTimed) {
  const auto [kind, seed] = GetParam();
  ExperimentSettings settings = SmallSettings(seed + 100);
  const auto results = RunComparison(settings, kind, AllApproaches());
  for (const auto& result : results) {
    ASSERT_EQ(result.summary.batches.size(), 3u) << result.name;
    for (const auto& batch : result.summary.batches) {
      EXPECT_GE(batch.seconds, 0.0);
      EXPECT_GE(batch.score, 0.0);
      EXPECT_EQ(batch.num_workers, 120);
      EXPECT_EQ(batch.num_tasks, 40);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DataKinds, ComparisonTest,
    ::testing::Values(std::make_pair(DataKind::kSynthetic, 1u),
                      std::make_pair(DataKind::kSynthetic, 2u),
                      std::make_pair(DataKind::kMeetupLike, 3u)));

TEST(ComparisonTest, SameSeedIsReproducible) {
  const ExperimentSettings settings = SmallSettings(9);
  const auto a = RunComparison(settings, DataKind::kSynthetic,
                               {ApproachId::kTpg, ApproachId::kGt});
  const auto b = RunComparison(settings, DataKind::kSynthetic,
                               {ApproachId::kTpg, ApproachId::kGt});
  EXPECT_DOUBLE_EQ(a[0].total_score, b[0].total_score);
  EXPECT_DOUBLE_EQ(a[1].total_score, b[1].total_score);
}

TEST(ComparisonTest, TsiVariantsTrackGtClosely) {
  // Figure 6's observation: for epsilon <= 0.05 the TSI score is within
  // a few percent of plain GT.
  ExperimentSettings settings = SmallSettings(10);
  settings.epsilon = 0.05;
  const auto results = RunComparison(
      settings, DataKind::kSynthetic,
      {ApproachId::kGt, ApproachId::kGtTsi, ApproachId::kGtAll});
  const double gt = results[0].total_score;
  EXPECT_GE(results[1].total_score, 0.9 * gt);
  EXPECT_GE(results[2].total_score, 0.9 * gt);
}

// ---------------------------------------------------------------------------
// Cross-parameter grid: the algorithmic contract must hold at every
// corner of the configuration space, not just the defaults.
// ---------------------------------------------------------------------------

struct GridCase {
  int min_group;  // B
  int capacity;   // a_j
  LocationDistribution distribution;
  uint64_t seed;
};

class ParameterGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(ParameterGridTest, ContractHoldsEverywhere) {
  const GridCase& grid = GetParam();
  ExperimentSettings settings;
  settings.num_workers = 100;
  settings.num_tasks = 35;
  settings.rounds = 2;
  settings.min_group_size = grid.min_group;
  settings.capacity = grid.capacity;
  settings.distribution = grid.distribution;
  settings.seed = grid.seed;
  // Wider reach so every corner has feasible teams.
  settings.radius_min_pct = 20;
  settings.radius_max_pct = 40;
  settings.speed_min_pct = 5;
  settings.speed_max_pct = 15;

  const auto results =
      RunComparison(settings, DataKind::kSynthetic, AllApproaches());
  ASSERT_EQ(results.size(), 7u);
  const double tpg = results[0].total_score;
  const double gt = results[1].total_score;
  const double upper = results[0].total_upper;

  EXPECT_GE(gt + 1e-9, tpg) << "GT regressed below its initialization";
  for (const auto& result : results) {
    EXPECT_LE(result.total_score, upper + 1e-9) << result.name;
    EXPECT_GE(result.total_score, 0.0) << result.name;
  }
  // Scores must actually be produced at this corner (the generator
  // settings above guarantee feasible teams).
  EXPECT_GT(gt, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, ParameterGridTest,
    ::testing::Values(
        GridCase{2, 2, LocationDistribution::kUniform, 1},
        GridCase{2, 4, LocationDistribution::kUniform, 2},
        GridCase{2, 6, LocationDistribution::kSkewed, 3},
        GridCase{3, 3, LocationDistribution::kUniform, 4},
        GridCase{3, 4, LocationDistribution::kSkewed, 5},
        GridCase{3, 6, LocationDistribution::kUniform, 6},
        GridCase{4, 4, LocationDistribution::kSkewed, 7},
        GridCase{4, 6, LocationDistribution::kUniform, 8},
        GridCase{5, 5, LocationDistribution::kUniform, 9},
        GridCase{5, 8, LocationDistribution::kSkewed, 10}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return "B" + std::to_string(info.param.min_group) + "_a" +
             std::to_string(info.param.capacity) + "_" +
             (info.param.distribution == LocationDistribution::kSkewed
                  ? "skew"
                  : "unif") +
             "_s" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "score"});
  table.AddRow({"TPG", "123.4"});
  table.AddRow({"GT+ALL", "5.0"});
  const std::string text = table.Render();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("GT+ALL"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
  // Each line ends without trailing blanks.
  for (const auto& line : StrSplit(text, '\n')) {
    if (!line.empty()) {
      EXPECT_NE(line.back(), ' ');
    }
  }
}

TEST(TablePrinterTest, RaggedRowsArePadded) {
  TablePrinter table({"a"});
  table.AddRow({"1", "2", "3"});
  table.AddRow({"x"});
  const std::string text = table.Render();
  EXPECT_NE(text.find("3"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter table({"h1", "h2"});
  table.AddRow({"a", "b"});
  EXPECT_EQ(table.RenderCsv(), "h1,h2\na,b\n");
}

// ---------------------------------------------------------------------------
// Full figure harness (tiny scale, smoke)
// ---------------------------------------------------------------------------

TEST(RunFigureTest, ProducesOneResultPerPointAndApproach) {
  ExperimentSettings base = SmallSettings(20);
  base.rounds = 2;
  base.num_workers = 60;
  base.num_tasks = 20;
  std::vector<SweepPoint> points;
  for (const int capacity : {3, 4}) {
    SweepPoint point;
    point.label = std::to_string(capacity);
    point.settings = base;
    point.settings.capacity = capacity;
    points.push_back(point);
  }
  const auto results =
      RunFigure("Smoke Figure", "a_j", points, DataKind::kSynthetic,
                {ApproachId::kTpg, ApproachId::kRand});
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].size(), 2u);
  EXPECT_EQ(results[0][0].name, "TPG");
  EXPECT_EQ(results[0][1].name, "RAND");
}

// ---------------------------------------------------------------------------
// Replication harness
// ---------------------------------------------------------------------------

TEST(ReplicationTest, AggregatesAcrossSeeds) {
  ExperimentSettings settings = SmallSettings(0);
  settings.rounds = 2;
  settings.num_workers = 80;
  settings.num_tasks = 25;
  // Dense enough that the greedy actually has choices to make (with the
  // paper's default radii, tiny instances leave TPG and RAND the same
  // handful of feasible teams).
  settings.radius_min_pct = 20;
  settings.radius_max_pct = 40;
  settings.speed_min_pct = 5;
  settings.speed_max_pct = 15;
  const auto results = RunReplications(
      settings, DataKind::kSynthetic,
      {ApproachId::kTpg, ApproachId::kRand}, {11u, 22u, 33u});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].name, "TPG");
  EXPECT_EQ(results[0].score.Count(), 3);
  EXPECT_GT(results[0].score.Mean(), 0.0);
  EXPECT_LE(results[0].upper_frac.Max(), 1.0 + 1e-9);
  // TPG dominates RAND in every replication, hence also in the mean.
  EXPECT_GT(results[0].score.Mean(), results[1].score.Mean());
}

TEST(ReplicationTest, SingleSeedHasZeroStdError) {
  ExperimentSettings settings = SmallSettings(0);
  settings.rounds = 1;
  settings.num_workers = 50;
  settings.num_tasks = 15;
  const auto results = RunReplications(settings, DataKind::kSynthetic,
                                       {ApproachId::kTpg}, {5u});
  EXPECT_DOUBLE_EQ(results[0].score.StdError(), 0.0);
  EXPECT_EQ(results[0].score.Count(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end: GT equilibria are stable under re-running (idempotence of
// the best-response dynamic at a fixpoint)
// ---------------------------------------------------------------------------

TEST(EndToEndTest, NashPointIsFixpointOfBestResponse) {
  ExperimentSettings settings = SmallSettings(30);
  auto source = MakeSource(DataKind::kSynthetic, settings);
  const Instance instance = source->MakeBatch(0, 0.0);
  auto gt = MakeApproach(ApproachId::kGt, settings);
  const Assignment equilibrium = gt->Run(instance);
  ASSERT_TRUE(IsNashEquilibrium(instance, equilibrium, 1e-9));
  // Every worker's best response is its current strategy.
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const BestResponse best = ComputeBestResponse(instance, equilibrium, w);
    EXPECT_EQ(best.task, equilibrium.TaskOf(w)) << "worker " << w;
  }
}

}  // namespace
}  // namespace casc
