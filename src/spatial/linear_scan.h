#ifndef CASC_SPATIAL_LINEAR_SCAN_H_
#define CASC_SPATIAL_LINEAR_SCAN_H_

#include <vector>

#include "spatial/spatial_index.h"

namespace casc {

/// Brute-force SpatialIndex: O(n) per query. Serves as the correctness
/// reference for GridIndex in tests, as the probe index below
/// kProbeLinearScanCutoff items, and as the baseline in the spatial
/// micro-benchmark.
class LinearScan : public SpatialIndex {
 public:
  void Insert(const SpatialItem& item) override;
  void Build(const std::vector<SpatialItem>& items) override;
  void CircleQueryInto(const Point& center, double radius,
                       std::vector<int64_t>* out) const override;
  size_t Size() const override { return items_.size(); }

 private:
  std::vector<SpatialItem> items_;
};

}  // namespace casc

#endif  // CASC_SPATIAL_LINEAR_SCAN_H_
