#include "seam.h"

#include <algorithm>
#include <malloc.h>
#include <utility>

#include "model/objective.h"
#include "span_trace.h"

namespace canon {

int CountStarted(const casc::Instance& instance,
                 const casc::Assignment& assignment) {
  int started = 0;
  for (casc::TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    if (assignment.GroupSize(t) < instance.min_group_size()) continue;
    if (casc::GroupScore(instance, t, assignment.GroupOf(t)) <= 0.0) continue;
    ++started;
  }
  return started;
}

BatchOutcome Observe(const casc::Instance& instance,
                     const casc::Assignment& assignment) {
  BatchOutcome outcome;
  outcome.score = casc::TotalScore(instance, assignment);
  outcome.assigned = assignment.NumAssigned();
  outcome.started = CountStarted(instance, assignment);
  outcome.workers = instance.num_workers();
  outcome.tasks = instance.num_tasks();
  return outcome;
}

double HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) +
         static_cast<double>(info.hblkhd);
}

double CycleClock::Now() { return NowSeconds(); }

void CycleClock::Begin(double t) {
  if (first_begin_ < 0.0) first_begin_ = t;
  open_at_ = t;
  open_ = true;
}

void CycleClock::End(double t) {
  if (!open_) return;
  cycles_.push_back(t - open_at_);
  open_ = false;
}

casc::Assignment SolverSeam::Solve(const casc::Instance& instance) {
  const double t = CycleClock::Now();
  clock_->End(t);
  clock_->Begin(t);
  if (probe_) return casc::Assignment(instance);
  casc::Assignment assignment = inner_->Solve(instance);
  outcomes_.push_back(Observe(instance, assignment));
  after_solve_ = true;
  return assignment;
}

void SolverSeam::SetSolveDelta(const casc::SolveDelta* delta) {
  if (!after_solve_) heap_max_ = std::max(heap_max_, HeapInUseBytes());
  after_solve_ = false;
  inner_->SetSolveDelta(delta);
}

PaperBatchMaker::Raw PaperBatchMaker::Generate(double now) {
  // Same draws in the same order as casc::GenerateSyntheticInstance.
  Raw raw;
  raw.workers.reserve(static_cast<size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    raw.workers.push_back(
        casc::GenerateWorker(i, config_.worker, now, &rng_));
  }
  raw.tasks.reserve(static_cast<size_t>(config_.num_tasks));
  for (int j = 0; j < config_.num_tasks; ++j) {
    raw.tasks.push_back(casc::GenerateTask(j, config_.task, now, &rng_));
  }
  raw.coop = casc::GenerateQualities(config_.num_workers,
                                     config_.quality_model,
                                     config_.constant_quality, &rng_);
  return raw;
}

casc::Instance PaperBatchMaker::Build(Raw raw, double now) const {
  casc::Instance instance(std::move(raw.workers), std::move(raw.tasks),
                          std::move(raw.coop), now, config_.min_group_size);
  instance.ComputeValidPairs();
  return instance;
}

casc::Instance SourceSeam::MakeBatch(int round, double now) {
  const double entry = CycleClock::Now();
  clock_->End(entry);
  heap_max_ = std::max(heap_max_, HeapInUseBytes());
  PaperBatchMaker::Raw raw = maker_->Generate(now);
  if (round == 0) first_generate_ = CycleClock::Now() - entry;
  casc::Instance instance = maker_->Build(std::move(raw), now);
  clock_->Begin(CycleClock::Now());
  return instance;
}

casc::Assignment OutcomeAssigner::Run(const casc::Instance& instance) {
  inner_->set_workspace(workspace());
  inner_->set_solve_delta(solve_delta());
  casc::Assignment assignment = inner_->Run(instance);
  stats_ = inner_->stats();
  outcomes_.push_back(Observe(instance, assignment));
  return assignment;
}

}  // namespace canon
