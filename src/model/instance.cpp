#include "model/instance.h"

#include "common/check.h"
#include "geo/reachability.h"
#include "model/batch_workspace.h"
#include "model/objective_model.h"
#include "model/valid_pair_query.h"

namespace casc {

Instance::Instance(std::vector<Worker> workers, std::vector<Task> tasks,
                   CooperationMatrix coop, double now, int min_group_size)
    : workers_(std::move(workers)),
      tasks_(std::move(tasks)),
      coop_(std::move(coop)),
      now_(now),
      min_group_size_(min_group_size),
      objective_(&ProcessDefaultObjective()) {
  CASC_CHECK_EQ(coop_.num_workers(), static_cast<int>(workers_.size()));
  CASC_CHECK_GE(min_group_size_, 2)
      << "Equation 2 divides by min(|W_j|, a_j) - 1";
  worker_locations_.reserve(workers_.size());
  worker_speeds_.reserve(workers_.size());
  worker_radii_.reserve(workers_.size());
  worker_arrivals_.reserve(workers_.size());
  worker_skills_.reserve(workers_.size());
  for (const Worker& worker : workers_) {
    worker_locations_.push_back(worker.location);
    worker_speeds_.push_back(worker.speed);
    worker_radii_.push_back(worker.radius);
    worker_arrivals_.push_back(worker.arrival_time);
    worker_skills_.push_back(worker.skills);
  }
  task_locations_.reserve(tasks_.size());
  task_create_times_.reserve(tasks_.size());
  task_deadlines_.reserve(tasks_.size());
  task_capacities_.reserve(tasks_.size());
  task_required_skills_.reserve(tasks_.size());
  for (const Task& task : tasks_) {
    CASC_CHECK_GE(task.capacity, min_group_size_)
        << "task capacity a_j below the minimum group size B";
    task_locations_.push_back(task.location);
    task_create_times_.push_back(task.create_time);
    task_deadlines_.push_back(task.deadline);
    task_capacities_.push_back(task.capacity);
    task_required_skills_.push_back(task.required_skills);
  }
}

void Instance::set_objective(const ObjectiveModel* objective) {
  CASC_CHECK(objective != nullptr);
  objective_ = objective;
}

bool Instance::IsValidPair(WorkerIndex w, TaskIndex t) const {
  CASC_CHECK_GE(w, 0);
  CASC_CHECK_LT(w, num_workers());
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, num_tasks());
  const size_t wi = static_cast<size_t>(w);
  const size_t ti = static_cast<size_t>(t);
  if (worker_arrivals_[wi] > now_ || task_create_times_[ti] > now_) {
    return false;
  }
  if (!InWorkingArea(worker_locations_[wi], worker_radii_[wi],
                     task_locations_[ti])) {
    return false;
  }
  return CanArriveByDeadline(worker_locations_[wi], worker_speeds_[wi],
                             task_locations_[ti], now_, task_deadlines_[ti]);
}

void Instance::ComputeValidPairs(BatchWorkspace* workspace) {
  if (valid_pairs_ready_) return;

  if (workspace != nullptr) {
    pairs_ = workspace->AcquireValidPairIndex();
  }
  pairs_.BeginBuild(num_workers(), num_tasks());

  // Index task locations once, then answer one working-area circle query
  // per worker (Algorithm 1 lines 4-5).
  ValidPairQuery query(tasks_, now_,
                       workspace != nullptr ? &workspace->spatial_items()
                                            : nullptr);
  std::vector<TaskIndex> row;
  for (const Worker& worker : workers_) {
    query.ValidTasks(worker, &row);
    for (const TaskIndex t : row) pairs_.AppendValidTask(t);
    pairs_.FinishWorker();
  }
  pairs_.FinishBuild();
  valid_pairs_ready_ = true;
}

void Instance::AdoptValidPairs(ValidPairIndex index) {
  CASC_CHECK(!valid_pairs_ready_)
      << "valid pairs already computed; AdoptValidPairs would discard them";
  CASC_CHECK(index.ready());
  CASC_CHECK_EQ(index.num_workers(), num_workers());
  CASC_CHECK_EQ(index.num_tasks(), num_tasks());
  pairs_ = std::move(index);
  valid_pairs_ready_ = true;
}

void Instance::AdoptValidPairs(
    std::vector<std::vector<TaskIndex>> valid_tasks,
    std::vector<std::vector<WorkerIndex>> candidates) {
  CASC_CHECK(!valid_pairs_ready_)
      << "valid pairs already computed; AdoptValidPairs would discard them";
  CASC_CHECK_EQ(static_cast<int>(valid_tasks.size()), num_workers());
  CASC_CHECK_EQ(static_cast<int>(candidates.size()), num_tasks());
  pairs_.BeginBuild(num_workers(), num_tasks());
  for (const std::vector<TaskIndex>& row : valid_tasks) {
    for (const TaskIndex t : row) pairs_.AppendValidTask(t);
    pairs_.FinishWorker();
  }
  pairs_.FinishBuild();
  // The derived candidate lists must agree with what the caller supplied
  // (the documented mutual-consistency promise).
  for (TaskIndex t = 0; t < num_tasks(); ++t) {
    const auto derived = pairs_.Candidates(t);
    const auto& given = candidates[static_cast<size_t>(t)];
    CASC_CHECK_EQ(derived.size(), given.size())
        << "AdoptValidPairs: inconsistent candidate list for task " << t;
    for (size_t i = 0; i < given.size(); ++i) {
      CASC_CHECK_EQ(derived[i], given[i])
          << "AdoptValidPairs: inconsistent candidate list for task " << t;
    }
  }
  valid_pairs_ready_ = true;
}

ValidPairIndex Instance::ReleaseValidPairs() {
  CASC_CHECK(valid_pairs_ready_) << "no valid pairs to release";
  valid_pairs_ready_ = false;
  ValidPairIndex out = std::move(pairs_);
  pairs_ = ValidPairIndex{};
  return out;
}

std::span<const TaskIndex> Instance::ValidTasks(WorkerIndex w) const {
  CASC_CHECK(valid_pairs_ready_) << "call ComputeValidPairs() first";
  return pairs_.ValidTasks(w);
}

std::span<const WorkerIndex> Instance::Candidates(TaskIndex t) const {
  CASC_CHECK(valid_pairs_ready_) << "call ComputeValidPairs() first";
  return pairs_.Candidates(t);
}

size_t Instance::NumValidPairs() const {
  CASC_CHECK(valid_pairs_ready_) << "call ComputeValidPairs() first";
  return pairs_.NumValidPairs();
}

}  // namespace casc
