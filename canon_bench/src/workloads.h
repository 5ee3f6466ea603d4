// The canonical workloads and their end-to-end passes. A workload's
// inputs are generated once from the seed; every pass then builds the
// program's objects from those inputs and drives one top-level entry
// point (DispatchService / DistributedDispatchService ::Run, or
// BatchRunner::RunRounds) through the timing seams in seam.h.
#ifndef CANON_BENCH_WORKLOADS_H_
#define CANON_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/synthetic.h"
#include "gen/trace.h"
#include "net/net_dispatch.h"
#include "seam.h"
#include "service/dispatch_service.h"

namespace canon {

enum class Kind { kPaper, kStreaming };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kStreaming;

  // Paper round mode (Fig. 7/8): one fresh synthetic batch per round.
  casc::SyntheticInstanceConfig paper;
  int rounds = 0;

  // Streaming mode: arrivals from a trace, dispatched by the service.
  casc::TraceConfig trace;
  casc::DispatchConfig dispatch;
  bool distributed = false;
  casc::DistributedConfig dist;
  bool tpg = false;  ///< TPG shard solver instead of GT

  /// Extra set-up-only passes per run (setup_s is the median over these
  /// and the full passes).
  int setup_probes = 0;
};

/// False when `name` is not a canonical workload.
bool MakeSpec(const std::string& name, WorkloadSpec* spec);

casc::AssignerFactory SolverFactory(const WorkloadSpec& spec);

/// Seed of the procedural cooperation matrix for a trace seed.
uint64_t CoopSeed(uint64_t seed);

/// One end-to-end pass as seen from the seams.
struct PassResult {
  std::vector<double> cycle_seconds;
  std::vector<BatchOutcome> outcomes;
  /// The program's own per-batch scores (RunSummary), cross-checked
  /// against the seam's reading.
  std::vector<double> summary_scores;
  /// Sum of the program's BatchMetrics::completed_tasks (context only:
  /// it recounts carried-over groups, see NOTES.md).
  int64_t summary_completed_tasks = 0;
  double setup_seconds = 0.0;
  double wall_seconds = 0.0;  ///< set-up start to entry-point return
  double heap_max_bytes = 0.0;
  int64_t workers_fed = 0;
  int64_t tasks_fed = 0;
  int ingest_threads = 0;  ///< resolved by the service (streaming only)
};

class Workload {
 public:
  /// Generates the inputs (the generator's time is not measured).
  Workload(WorkloadSpec spec, uint64_t seed);

  /// One end-to-end pass. A `setup_probe` pass stops solving at the
  /// first seam entry: only its setup_seconds is meaningful.
  PassResult RunPass(bool setup_probe = false) const;

  const WorkloadSpec& spec() const { return spec_; }
  uint64_t seed() const { return seed_; }
  const std::vector<casc::Worker>& workers() const { return workers_; }
  const std::vector<casc::Task>& tasks() const { return tasks_; }

 private:
  PassResult RunPaperPass(bool setup_probe) const;
  PassResult RunStreamingPass(bool setup_probe) const;

  WorkloadSpec spec_;
  uint64_t seed_;
  std::vector<casc::Worker> workers_;
  std::vector<casc::Task> tasks_;
};

}  // namespace canon

#endif  // CANON_BENCH_WORKLOADS_H_
