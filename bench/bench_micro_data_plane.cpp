// Micro-benchmarks for the flat data plane (PR 3): CSR valid-pair index
// vs nested vectors, slab-backed group churn, allocation-free pair
// iteration, and the steady-state streaming loop. The streaming
// benchmark CHECKs the PR's acceptance bar: after warm-up, a stream of
// same-shape batches performs zero group-store / pair-index heap
// allocations (process-wide realloc counters do not move).

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "algo/tpg_assigner.h"
#include "common/check.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "model/assignment.h"
#include "model/batch_workspace.h"
#include "model/group_store.h"
#include "model/instance.h"
#include "model/valid_pair_index.h"

namespace casc {
namespace {

Instance MakeInstance(int m, int n) {
  Rng rng(42);
  SyntheticInstanceConfig config;
  config.num_workers = m;
  config.num_tasks = n;
  return GenerateSyntheticInstance(config, 0.0, &rng);
}

// --- Pair iteration: allocating Pairs() vs allocation-free ForEachPair.

void BM_PairsAllocating(benchmark::State& state) {
  const Instance instance =
      MakeInstance(static_cast<int>(state.range(0)), 200);
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  for (auto _ : state) {
    double sum = 0.0;
    for (const AssignedPair& pair : assignment.Pairs()) {
      sum += pair.worker + pair.task;
    }
    benchmark::DoNotOptimize(sum);
  }
}

void BM_ForEachPair(benchmark::State& state) {
  const Instance instance =
      MakeInstance(static_cast<int>(state.range(0)), 200);
  TpgAssigner tpg;
  const Assignment assignment = tpg.Run(instance);
  for (auto _ : state) {
    double sum = 0.0;
    assignment.ForEachPair(
        [&](WorkerIndex w, TaskIndex t) { sum += w + t; });
    benchmark::DoNotOptimize(sum);
  }
}

// --- Valid-pair build: pooled CSR rebuild vs fresh nested vectors.

void BM_ValidPairsPooledCsr(benchmark::State& state) {
  const Instance seed_batch =
      MakeInstance(static_cast<int>(state.range(0)), 200);
  BatchWorkspace workspace;
  for (auto _ : state) {
    Instance instance(seed_batch.workers(), seed_batch.tasks(),
                      seed_batch.coop(), seed_batch.now(),
                      seed_batch.min_group_size());
    instance.ComputeValidPairs(&workspace);
    benchmark::DoNotOptimize(instance.NumValidPairs());
    workspace.Recycle(instance.ReleaseValidPairs());
  }
}

void BM_ValidPairsFresh(benchmark::State& state) {
  const Instance seed_batch =
      MakeInstance(static_cast<int>(state.range(0)), 200);
  for (auto _ : state) {
    Instance instance(seed_batch.workers(), seed_batch.tasks(),
                      seed_batch.coop(), seed_batch.now(),
                      seed_batch.min_group_size());
    instance.ComputeValidPairs();
    benchmark::DoNotOptimize(instance.NumValidPairs());
  }
}

// --- Group churn: slab-backed store vs nested vector-of-vectors.

void BM_GroupChurnSlab(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  const std::vector<int> capacities(static_cast<size_t>(groups), 4);
  GroupStore store;
  store.Reset(capacities, 1);
  Rng rng(7);
  for (auto _ : state) {
    const int g = static_cast<int>(rng.UniformInt(0, groups - 1));
    const WorkerIndex w = static_cast<WorkerIndex>(g);
    store.PushBack(g, w);
    store.Erase(g, w);
    benchmark::DoNotOptimize(store.size(g));
  }
}

void BM_GroupChurnNested(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  std::vector<std::vector<WorkerIndex>> store(
      static_cast<size_t>(groups));
  Rng rng(7);
  for (auto _ : state) {
    const int g = static_cast<int>(rng.UniformInt(0, groups - 1));
    std::vector<WorkerIndex>& group = store[static_cast<size_t>(g)];
    group.push_back(static_cast<WorkerIndex>(g));
    group.pop_back();
    group.shrink_to_fit();  // what a per-batch rebuild costs the old plane
    benchmark::DoNotOptimize(group.size());
  }
}

// --- Steady-state streaming: the acceptance bar. Each iteration is one
// full batch (build pairs, solve with TPG, commit, recycle) against a
// warm workspace; the realloc counters must not move.

void BM_StreamingBatchSteadyState(benchmark::State& state) {
  const Instance seed_batch =
      MakeInstance(static_cast<int>(state.range(0)), 200);
  BatchWorkspace workspace;
  TpgAssigner assigner;
  assigner.set_workspace(&workspace);

  const auto run_batch = [&]() {
    Instance instance(seed_batch.workers(), seed_batch.tasks(),
                      seed_batch.coop(), seed_batch.now(),
                      seed_batch.min_group_size());
    instance.ComputeValidPairs(&workspace);
    Assignment assignment = assigner.Run(instance);
    benchmark::DoNotOptimize(assignment.NumAssigned());
    workspace.Recycle(std::move(assignment));
    workspace.Recycle(instance.ReleaseValidPairs());
  };

  run_batch();  // warm-up sizes every pooled buffer
  run_batch();
  const int64_t group_reallocs = GroupStore::TotalReallocs();
  const int64_t pair_reallocs = ValidPairIndex::TotalReallocs();
  for (auto _ : state) {
    run_batch();
  }
  const int64_t grew = (GroupStore::TotalReallocs() - group_reallocs) +
                       (ValidPairIndex::TotalReallocs() - pair_reallocs);
  CASC_CHECK_EQ(grew, 0)
      << "steady-state streaming grew a pooled backing array";
  state.counters["steady_state_reallocs"] =
      benchmark::Counter(static_cast<double>(grew));
}

BENCHMARK(BM_PairsAllocating)->Arg(500)->Arg(2000);
BENCHMARK(BM_ForEachPair)->Arg(500)->Arg(2000);
BENCHMARK(BM_ValidPairsPooledCsr)->Arg(500)->Arg(2000);
BENCHMARK(BM_ValidPairsFresh)->Arg(500)->Arg(2000);
BENCHMARK(BM_GroupChurnSlab)->Arg(64)->Arg(512);
BENCHMARK(BM_GroupChurnNested)->Arg(64)->Arg(512);
BENCHMARK(BM_StreamingBatchSteadyState)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace casc
