#ifndef CASC_MODEL_VALID_PAIR_QUERY_H_
#define CASC_MODEL_VALID_PAIR_QUERY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/task.h"
#include "model/worker.h"
#include "spatial/spatial_index.h"

namespace casc {

/// The from-scratch Definition 3 query: indexes the task locations once
/// with MakeProbeIndex, then answers each worker with one
/// working-area circle query followed by the presence and deadline tests
/// (Algorithm 1 lines 4-5). Instance::ComputeValidPairs builds its pair
/// lists with it, and the streaming plane's scratch mode and audit use it
/// to decide which pool workers have a valid pair, so there is one
/// statement of the validity rule.
class ValidPairQuery {
 public:
  /// Indexes `tasks` (which must outlive the query) for batch time `now`.
  /// A non-null `items` is reused as the index's build buffer.
  ValidPairQuery(std::span<const Task> tasks, double now,
                 std::vector<SpatialItem>* items = nullptr);

  /// Fills `out` with the indexes into `tasks` valid for `worker`, in
  /// ascending order.
  void ValidTasks(const Worker& worker, std::vector<TaskIndex>* out);

  /// True iff `worker` has a valid task; stops at the first one found.
  bool HasValidTask(const Worker& worker);

 private:
  /// Calls visit(t) for each valid task in ascending order until it
  /// returns false.
  template <typename Visit>
  void Scan(const Worker& worker, Visit visit);

  std::span<const Task> tasks_;
  double now_;
  std::unique_ptr<SpatialIndex> index_;
  std::vector<int64_t> in_range_;
};

}  // namespace casc

#endif  // CASC_MODEL_VALID_PAIR_QUERY_H_
