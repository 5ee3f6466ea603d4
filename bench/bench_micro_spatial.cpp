// Micro-benchmarks: probe-index build and circle-query costs, GridIndex
// vs LinearScan, at the per-batch probe sizes around
// kProbeLinearScanCutoff (spatial/probe_index.h). The batch framework
// builds one probe index per batch and issues one working-area circle
// query per worker against it, so the cutoff is where one grid build
// plus its cheaper queries starts beating the scan.
//
// Args: item count (and, for queries, the radius in thousandths).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "spatial/grid_index.h"
#include "spatial/linear_scan.h"
#include "spatial/probe_index.h"

namespace casc {
namespace {

std::vector<SpatialItem> MakeItems(int count) {
  Rng rng(42);
  std::vector<SpatialItem> items;
  items.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    items.push_back(SpatialItem{i, {rng.Uniform(), rng.Uniform()}});
  }
  return items;
}

// The grid is sized exactly as MakeProbeIndex would size it.
template <typename Index>
std::unique_ptr<SpatialIndex> MakeIndex(size_t n);

template <>
std::unique_ptr<SpatialIndex> MakeIndex<LinearScan>(size_t) {
  return std::make_unique<LinearScan>();
}
template <>
std::unique_ptr<SpatialIndex> MakeIndex<GridIndex>(size_t n) {
  return std::make_unique<GridIndex>(ProbeGridCells(n));
}

template <typename Index>
void BM_Build(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto index = MakeIndex<Index>(items.size());
    index->Build(items);
    benchmark::DoNotOptimize(index->Size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

template <typename Index>
void BM_CircleQuery(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  const double radius = static_cast<double>(state.range(1)) / 1000.0;
  auto index = MakeIndex<Index>(items.size());
  index->Build(items);
  Rng rng(7);
  std::vector<int64_t> out;
  for (auto _ : state) {
    const Point center{rng.Uniform(), rng.Uniform()};
    index->CircleQueryInto(center, radius, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

constexpr int64_t kProbeSizes[] = {8, 12, 16, 24, 32, 64, 256};

void BuildArgs(benchmark::internal::Benchmark* bench) {
  for (const int64_t n : kProbeSizes) bench->Arg(n);
}

void QueryArgs(benchmark::internal::Benchmark* bench) {
  for (const int64_t n : kProbeSizes) {
    for (const int64_t radius : {50, 400}) bench->Args({n, radius});
  }
}

BENCHMARK_TEMPLATE(BM_Build, LinearScan)->Apply(BuildArgs);
BENCHMARK_TEMPLATE(BM_Build, GridIndex)->Apply(BuildArgs);
BENCHMARK_TEMPLATE(BM_CircleQuery, LinearScan)->Apply(QueryArgs);
BENCHMARK_TEMPLATE(BM_CircleQuery, GridIndex)->Apply(QueryArgs);

}  // namespace
}  // namespace casc
