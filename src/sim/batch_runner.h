#ifndef CASC_SIM_BATCH_RUNNER_H_
#define CASC_SIM_BATCH_RUNNER_H_

#include "algo/assigner.h"
#include "gen/workload.h"
#include "sim/metrics.h"

namespace casc {

/// Configuration of the batch-based framework (Algorithm 1).
struct BatchRunnerConfig {
  /// Number of batches in round mode (Table II: R = 10).
  int rounds = 10;

  /// Wall-clock time between batches (one time unit per batch).
  double batch_interval = 1.0;

  /// Minimum group size B. Not read by round mode: each generated
  /// instance carries its own B.
  int min_group_size = 3;

  /// Also compute the UPPER estimate (Equation 9) per batch.
  bool compute_upper_bound = false;
};

/// Drives an Assigner through the evaluation protocol of Section VI: each
/// round is an independent batch freshly sampled from an InstanceSource;
/// scores and times are summed/averaged across R rounds. The streaming
/// dynamic of Algorithm 1 (arrivals, carry-over, busy workers) is
/// DispatchService::Run; with shards_per_side = 1 it runs the factory's
/// assigner unsharded.
class BatchRunner {
 public:
  explicit BatchRunner(BatchRunnerConfig config);

  /// Round mode. The assigner is timed on Run() only (instance generation
  /// and UPPER are excluded, matching the paper's "batch running time").
  RunSummary RunRounds(InstanceSource* source, Assigner* assigner) const;

  const BatchRunnerConfig& config() const { return config_; }

 private:
  BatchRunnerConfig config_;
};

}  // namespace casc

#endif  // CASC_SIM_BATCH_RUNNER_H_
