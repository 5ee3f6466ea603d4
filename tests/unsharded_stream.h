// Test helper: the streaming loop (Algorithm 1) with one solver per
// batch. DispatchService::Run at shards_per_side = 1 solves every batch
// with one factory-made assigner over the whole batch instance.

#ifndef CASC_TESTS_UNSHARDED_STREAM_H_
#define CASC_TESTS_UNSHARDED_STREAM_H_

#include <memory>
#include <utility>

#include "algo/assigner.h"
#include "model/cooperation_matrix.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"
#include "sim/metrics.h"

namespace casc {

/// Streaming config with a single shard, the given B and task duration,
/// and every other field at its default.
inline DispatchConfig UnshardedConfig(int min_group_size = 3,
                                      double task_duration = 1.0) {
  DispatchConfig config;
  config.sharded.shards_per_side = 1;
  config.min_group_size = min_group_size;
  config.task_duration = task_duration;
  return config;
}

/// Factory of default-constructed `A` solvers.
template <typename A>
AssignerFactory FactoryOf() {
  return [] { return std::make_unique<A>(); };
}

/// Runs `stream` through the dispatch service under `config`.
inline RunSummary RunStream(const EventStream& stream,
                            const CooperationMatrix& coop,
                            AssignerFactory factory,
                            const DispatchConfig& config = UnshardedConfig()) {
  DispatchService service(config, &coop, std::move(factory));
  return service.Run(stream);
}

}  // namespace casc

#endif  // CASC_TESTS_UNSHARDED_STREAM_H_
