#include "sim/batch_runner.h"

#include "algo/upper_bound.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "model/objective.h"

namespace casc {
namespace {

/// Runs the assigner once and fills the batch's metrics.
BatchMetrics MeasureBatch(const Instance& instance, Assigner* assigner,
                          bool compute_upper, int round, double now) {
  BatchMetrics metrics;
  metrics.round = round;
  metrics.now = now;
  metrics.num_workers = instance.num_workers();
  metrics.num_tasks = instance.num_tasks();
  metrics.valid_pairs = static_cast<int64_t>(instance.NumValidPairs());

  Stopwatch watch;
  const Assignment assignment = assigner->Run(instance);
  metrics.seconds = watch.ElapsedSeconds();

  metrics.score = TotalScore(instance, assignment);
  metrics.assigned_workers = assignment.NumAssigned();
  metrics.completed_tasks = CountStartedTasks(instance, assignment);
  metrics.gt_rounds = assigner->stats().rounds;
  metrics.solve_moves = assigner->stats().moves;
  metrics.dirty_workers = assigner->stats().dirty_workers;
  metrics.dirty_fraction =
      instance.num_workers() > 0
          ? static_cast<double>(assigner->stats().dirty_workers) /
                static_cast<double>(instance.num_workers())
          : 0.0;
  metrics.warm_started = assigner->stats().warm_started;
  if (compute_upper) {
    metrics.upper_bound = ComputeUpperBound(instance);
  }
  return metrics;
}

}  // namespace

BatchRunner::BatchRunner(BatchRunnerConfig config) : config_(config) {
  CASC_CHECK_GE(config.rounds, 1);
  CASC_CHECK_GT(config.batch_interval, 0.0);
}

RunSummary BatchRunner::RunRounds(InstanceSource* source,
                                  Assigner* assigner) const {
  CASC_CHECK(source != nullptr);
  CASC_CHECK(assigner != nullptr);
  // One workspace spans the rounds: the assigner reuses its assignment
  // slabs and keeper arrays from round to round.
  BatchWorkspace workspace;
  assigner->set_workspace(&workspace);
  RunSummary summary;
  for (int round = 0; round < config_.rounds; ++round) {
    const double now = round * config_.batch_interval;
    const Instance instance = source->MakeBatch(round, now);
    summary.batches.push_back(MeasureBatch(
        instance, assigner, config_.compute_upper_bound, round, now));
  }
  assigner->set_workspace(nullptr);
  return summary;
}

}  // namespace casc
