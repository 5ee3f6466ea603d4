// The traced run: re-drives one pass of a workload through the public
// calls of each layer, with a span around every call, so the per-layer
// table attributes the batch time. It mirrors the sequence of
// DispatchService::Run (including the two-slot pipeline overlap) and of
// BatchRunner::RunRounds, and runs the correctness gate on every batch.
#ifndef CANON_BENCH_TRACED_DRIVE_H_
#define CANON_BENCH_TRACED_DRIVE_H_

#include <string>
#include <vector>

#include "seam.h"
#include "span_trace.h"
#include "workloads.h"

namespace canon {

struct TracedRun {
  std::vector<BatchOutcome> outcomes;
  double start = 0.0;  ///< set-up start (same point as a pass's)
  double end = 0.0;    ///< the re-driven loop returned
  /// Correctness-gate failures, one line each ("batch 7: ...").
  std::vector<std::string> failures;
};

TracedRun RunTraced(const Workload& workload, Tracer* tracer);

}  // namespace canon

#endif  // CANON_BENCH_TRACED_DRIVE_H_
