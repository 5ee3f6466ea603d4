#ifndef CASC_SPATIAL_SPATIAL_INDEX_H_
#define CASC_SPATIAL_SPATIAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace casc {

/// An indexed point with an opaque caller-owned identifier (a task or
/// worker index in the model layer).
struct SpatialItem {
  int64_t id = 0;
  Point location;
};

/// Interface for the throwaway per-batch 2-D point indexes that answer
/// "which items lie inside this worker's working area" (Algorithm 1,
/// lines 4-5). Implementations: LinearScan (reference and tiny inputs)
/// and GridIndex; MakeProbeIndex (spatial/probe_index.h) picks one.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Adds one item. Duplicate ids are allowed and returned independently.
  virtual void Insert(const SpatialItem& item) = 0;

  /// Bulk-loads `items`, replacing current contents.
  virtual void Build(const std::vector<SpatialItem>& items) = 0;

  /// Fills `out` (cleared first, capacity reused) with the ids of all
  /// items within `radius` of `center` (boundary inclusive), in ascending
  /// id order. Hot streaming paths issue one query per worker per batch,
  /// so results go to a caller-owned buffer instead of a fresh vector.
  virtual void CircleQueryInto(const Point& center, double radius,
                               std::vector<int64_t>* out) const = 0;

  /// Number of stored items.
  virtual size_t Size() const = 0;
};

}  // namespace casc

#endif  // CASC_SPATIAL_SPATIAL_INDEX_H_
