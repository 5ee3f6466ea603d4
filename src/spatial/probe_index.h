#ifndef CASC_SPATIAL_PROBE_INDEX_H_
#define CASC_SPATIAL_PROBE_INDEX_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "spatial/spatial_index.h"

namespace casc {

/// The one shared sizing heuristic for the throwaway per-batch probe
/// indexes: the streaming splice's arrival-delta index, the streaming
/// plane's open-task index for new workers' rows, and the from-scratch
/// valid-pair query's index. The choice never affects outputs — both
/// implementations return ascending ids — so these constants tune only
/// speed.
///
/// Below the cutoff a brute-force linear scan wins: building any index
/// costs more than the handful of comparisons per probe it would save.
/// The cutoff was measured on the splice path (one probe per known
/// worker, so at 1M workers even a ~40-item delta deserves cell pruning):
/// the grid overtakes the scan between ~12 and ~24 items for the small
/// working radii large worlds use, and 16 sits in that window on every
/// host tried (see EXPERIMENTS.md; bench_micro_spatial re-measures it).
inline constexpr size_t kProbeLinearScanCutoff = 16;

/// Cells per side for a probe grid over `n` items: sqrt(n) targets ~1
/// item per cell, clamped so tiny deltas keep cells coarse enough to be
/// worth walking and huge batches don't allocate a million empty cells.
int ProbeGridCells(size_t n);

/// Builds the probe index for `items` under the shared heuristic: a
/// LinearScan below kProbeLinearScanCutoff, a ProbeGridCells-sized
/// GridIndex otherwise.
std::unique_ptr<SpatialIndex> MakeProbeIndex(
    const std::vector<SpatialItem>& items);

}  // namespace casc

#endif  // CASC_SPATIAL_PROBE_INDEX_H_
