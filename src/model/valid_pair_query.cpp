#include "model/valid_pair_query.h"

#include "common/check.h"
#include "geo/reachability.h"
#include "spatial/grid_index.h"
#include "spatial/linear_scan.h"
#include "spatial/probe_index.h"
#include "spatial/rtree.h"

namespace casc {

ValidPairQuery::ValidPairQuery(std::span<const Task> tasks, double now,
                               SpatialBackend backend,
                               std::vector<SpatialItem>* items)
    : tasks_(tasks), now_(now) {
  // The grid backend sizes itself with the same documented heuristic as
  // the streaming splice's probe index (spatial/probe_index.h); cell
  // count never changes query results, only speed.
  switch (backend) {
    case SpatialBackend::kRTree:
      index_ = std::make_unique<RTree>();
      break;
    case SpatialBackend::kGridIndex:
      index_ = std::make_unique<GridIndex>(ProbeGridCells(tasks.size()));
      break;
    case SpatialBackend::kLinearScan:
      index_ = std::make_unique<LinearScan>();
      break;
  }
  CASC_CHECK(index_ != nullptr);

  std::vector<SpatialItem> local_items;
  std::vector<SpatialItem>& build = items != nullptr ? *items : local_items;
  build.clear();
  build.reserve(tasks.size());
  for (size_t t = 0; t < tasks.size(); ++t) {
    build.push_back(SpatialItem{static_cast<int64_t>(t), tasks[t].location});
  }
  index_->Build(build);
}

template <typename Visit>
void ValidPairQuery::Scan(const Worker& worker, Visit visit) {
  if (worker.arrival_time > now_) return;
  index_->CircleQueryInto(worker.location, worker.radius, &in_range_);
  for (const int64_t raw_t : in_range_) {
    const Task& task = tasks_[static_cast<size_t>(raw_t)];
    if (task.create_time > now_) continue;
    if (!CanArriveByDeadline(worker.location, worker.speed, task.location,
                             now_, task.deadline)) {
      continue;
    }
    if (!visit(static_cast<TaskIndex>(raw_t))) return;
  }
}

void ValidPairQuery::ValidTasks(const Worker& worker,
                                std::vector<TaskIndex>* out) {
  out->clear();
  Scan(worker, [out](TaskIndex t) {
    out->push_back(t);
    return true;
  });
}

bool ValidPairQuery::HasValidTask(const Worker& worker) {
  bool found = false;
  Scan(worker, [&found](TaskIndex) {
    found = true;
    return false;
  });
  return found;
}

}  // namespace casc
