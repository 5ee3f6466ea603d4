#ifndef CASC_MODEL_INSTANCE_H_
#define CASC_MODEL_INSTANCE_H_

#include <span>
#include <vector>

#include "geo/point.h"
#include "model/cooperation_matrix.h"
#include "model/task.h"
#include "model/valid_pair_index.h"
#include "model/worker.h"

namespace casc {

class BatchWorkspace;
class ObjectiveModel;

/// One batch of the CA-SC problem (Definition 4): the available workers
/// W(phi), available tasks T(phi), their pairwise cooperation qualities,
/// the batch timestamp phi, and the platform-wide minimum group size B.
///
/// After ComputeValidPairs() the instance also exposes the valid
/// worker-and-task pairs of Definition 3 in both directions:
/// `ValidTasks(w)` (the set T_i of Algorithm 1) and `Candidates(t)`.
/// The pairs live in a flat CSR ValidPairIndex; shard views adopt a
/// pre-remapped index zero-copy (AdoptValidPairs).
///
/// Validity of (w_i, t_j) at timestamp `now`:
///   1) both are present: phi_i <= now and phi_j <= now;
///   2) l_j is inside w_i's working area: d(l_i, l_j) <= r_i;
///   3) w_i arrives before the deadline: now + d(l_i, l_j)/v_i <= tau_j.
/// (The paper's condition "the worker comes to the system after the task
/// is created" is implied by both being available in the same batch.)
class Instance {
 public:
  /// Builds an instance. Requires coop.num_workers() == workers.size()
  /// and min_group_size >= 2 (Equation 2 divides by group size - 1).
  Instance(std::vector<Worker> workers, std::vector<Task> tasks,
           CooperationMatrix coop, double now, int min_group_size);

  const std::vector<Worker>& workers() const { return workers_; }
  const std::vector<Task>& tasks() const { return tasks_; }
  const CooperationMatrix& coop() const { return coop_; }
  double now() const { return now_; }

  /// The minimum number B of workers required to finish any task.
  int min_group_size() const { return min_group_size_; }

  /// The scoring model every solver layer routes through. Fresh
  /// instances start on ProcessDefaultObjective() (CASC_OBJECTIVE env,
  /// else the paper's CascObjective); shard views inherit the global
  /// instance's objective, the dispatch service applies its config.
  const ObjectiveModel& objective() const { return *objective_; }

  /// Swaps the scoring model. Requires a registry-lived objective (the
  /// pointer is shared across threads and shard views, never owned).
  void set_objective(const ObjectiveModel* objective);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  int num_tasks() const { return static_cast<int>(tasks_.size()); }

  /// SoA views of the hot per-entity fields, contiguous for the
  /// reachability and delta-evaluation inner loops.
  std::span<const Point> worker_locations() const {
    return worker_locations_;
  }
  std::span<const double> worker_speeds() const { return worker_speeds_; }
  std::span<const double> worker_radii() const { return worker_radii_; }
  std::span<const double> worker_arrivals() const {
    return worker_arrivals_;
  }
  std::span<const Point> task_locations() const { return task_locations_; }
  std::span<const double> task_create_times() const {
    return task_create_times_;
  }
  std::span<const double> task_deadlines() const { return task_deadlines_; }
  std::span<const int> task_capacities() const { return task_capacities_; }
  std::span<const SkillMask> worker_skills() const { return worker_skills_; }
  std::span<const SkillMask> task_required_skills() const {
    return task_required_skills_;
  }

  /// Direct geometric/temporal validity check for one pair (Definition 3).
  bool IsValidPair(WorkerIndex w, TaskIndex t) const;

  /// Computes the valid-pair lists for every worker and task (Algorithm 1
  /// lines 4-5). Idempotent. A non-null `workspace` lends its pooled CSR
  /// index and scratch buffers (steady-state streaming batches then
  /// allocate nothing for the pair lists).
  void ComputeValidPairs(BatchWorkspace* workspace = nullptr);

  /// Installs a precomputed CSR index instead of running
  /// ComputeValidPairs(). The dispatch service uses this to derive a
  /// shard's lists from the already-computed global lists (a filter +
  /// remap) rather than re-querying the spatial index per shard. The
  /// caller promises the index equals what ComputeValidPairs() would
  /// produce: per-worker tasks and per-task workers, each in ascending
  /// index order, mutually consistent. Shape must match the instance;
  /// may not be called after valid pairs are ready.
  void AdoptValidPairs(ValidPairIndex index);

  /// Nested-vector compatibility overload (converts into the CSR form).
  void AdoptValidPairs(std::vector<std::vector<TaskIndex>> valid_tasks,
                       std::vector<std::vector<WorkerIndex>> candidates);

  /// Moves the CSR index out (for recycling into a BatchWorkspace once
  /// the batch is committed). The instance reverts to the
  /// pairs-not-ready state.
  ValidPairIndex ReleaseValidPairs();

  /// Valid tasks T_i for worker `w`, ascending task index.
  /// Requires ComputeValidPairs() to have run.
  std::span<const TaskIndex> ValidTasks(WorkerIndex w) const;

  /// Candidate workers for task `t`, ascending worker index.
  /// Requires ComputeValidPairs() to have run.
  std::span<const WorkerIndex> Candidates(TaskIndex t) const;

  /// True once ComputeValidPairs() has run.
  bool valid_pairs_ready() const { return valid_pairs_ready_; }

  /// Total number of valid worker-and-task pairs, O(1).
  size_t NumValidPairs() const;

 private:
  std::vector<Worker> workers_;
  std::vector<Task> tasks_;
  CooperationMatrix coop_;
  double now_;
  int min_group_size_;
  const ObjectiveModel* objective_;

  // SoA mirrors of the hot fields, filled by the constructor.
  std::vector<Point> worker_locations_;
  std::vector<double> worker_speeds_;
  std::vector<double> worker_radii_;
  std::vector<double> worker_arrivals_;
  std::vector<Point> task_locations_;
  std::vector<double> task_create_times_;
  std::vector<double> task_deadlines_;
  std::vector<int> task_capacities_;
  std::vector<SkillMask> worker_skills_;
  std::vector<SkillMask> task_required_skills_;

  bool valid_pairs_ready_ = false;
  ValidPairIndex pairs_;
};

}  // namespace casc

#endif  // CASC_MODEL_INSTANCE_H_
