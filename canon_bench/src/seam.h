// Outside-in timing seams. The end-to-end numbers come only from the
// program's top-level entry points; these forwarding objects sit in the
// slots those entry points expose and record when control crosses them:
//
// * streaming: a ShardedBatchSolver installed with set_batch_solver.
//   A batch cycle runs from one Solve() entry to the next; the last cycle
//   ends when Run() returns, so the cycles partition Run's wall time after
//   set-up.
// * paper rounds: the InstanceSource handed to BatchRunner::RunRounds. A
//   cycle runs from MakeBatch() return to the next MakeBatch() entry, so
//   instance generation is excluded.
//
// Quality is read at the same seams: score, assigned workers and the
// tasks that start (>= B members and a positive GroupScore — the rule
// StreamingPlane::Commit applies).
#ifndef CANON_BENCH_SEAM_H_
#define CANON_BENCH_SEAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/assigner.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "gen/workload.h"
#include "service/dispatch_service.h"

namespace canon {

/// What one solved batch produced, as seen from outside.
struct BatchOutcome {
  double score = 0.0;
  int assigned = 0;
  int started = 0;
  int workers = 0;
  int tasks = 0;

  bool operator==(const BatchOutcome&) const = default;
};

/// Tasks that start under `assignment`: group of >= B workers with a
/// positive GroupScore.
int CountStarted(const casc::Instance& instance,
                 const casc::Assignment& assignment);

BatchOutcome Observe(const casc::Instance& instance,
                     const casc::Assignment& assignment);

/// glibc heap bytes in use (mallinfo2: uordblks + hblkhd).
double HeapInUseBytes();

/// Cycle boundaries on the steady clock.
class CycleClock {
 public:
  /// Set-up begins (object construction out of the generated inputs).
  void StartSetup() { setup_start_ = Now(); }
  /// A cycle begins; the first one ends set-up.
  void Begin(double t);
  /// The open cycle ends.
  void End(double t);
  static double Now();

  double setup_start() const { return setup_start_; }
  double first_begin() const { return first_begin_; }
  const std::vector<double>& cycle_seconds() const { return cycles_; }

 private:
  double setup_start_ = 0.0;
  double first_begin_ = -1.0;
  double open_at_ = 0.0;
  bool open_ = false;
  std::vector<double> cycles_;
};

/// Forwarding solver seam for DispatchService::Run.
class SolverSeam : public casc::ShardedBatchSolver {
 public:
  /// A `probe` seam times set-up only: it never calls the inner solver
  /// and answers every batch with an empty assignment, so the rest of
  /// the run is cheap.
  SolverSeam(casc::ShardedBatchSolver* inner, CycleClock* clock,
             bool probe = false)
      : inner_(inner), clock_(clock), probe_(probe) {}

  casc::Assignment Solve(const casc::Instance& instance) override;
  const casc::ServiceMetrics& metrics() const override {
    return inner_->metrics();
  }
  void AttachWorkspace(casc::BatchWorkspace* workspace) override {
    inner_->AttachWorkspace(workspace);
  }
  /// The service attaches a delta right before each Solve() (a serial
  /// point: the previous pipeline overlap has joined) and detaches it
  /// right after; the heap is sampled on the attaching call.
  void SetSolveDelta(const casc::SolveDelta* delta) override;

  const std::vector<BatchOutcome>& outcomes() const { return outcomes_; }
  double heap_max_bytes() const { return heap_max_; }

 private:
  casc::ShardedBatchSolver* inner_;
  CycleClock* clock_;
  bool probe_;
  bool after_solve_ = false;
  double heap_max_ = 0.0;
  std::vector<BatchOutcome> outcomes_;
};

/// Generates the paper's synthetic batches exactly as SyntheticSource
/// does (same draws, same order), but splits each MakeBatch into the
/// generator (sampling workers, tasks and qualities) and the program's
/// build (Instance + ComputeValidPairs).
class PaperBatchMaker {
 public:
  PaperBatchMaker(casc::SyntheticInstanceConfig config, uint64_t seed)
      : config_(config), rng_(seed) {}

  struct Raw {
    std::vector<casc::Worker> workers;
    std::vector<casc::Task> tasks;
    casc::CooperationMatrix coop;
  };
  Raw Generate(double now);
  casc::Instance Build(Raw raw, double now) const;

 private:
  casc::SyntheticInstanceConfig config_;
  casc::Rng rng_;
};

/// InstanceSource seam for BatchRunner::RunRounds.
class SourceSeam : public casc::InstanceSource {
 public:
  SourceSeam(PaperBatchMaker* maker, CycleClock* clock)
      : maker_(maker), clock_(clock) {}

  std::string Name() const override { return "UNIF"; }
  casc::Instance MakeBatch(int round, double now) override;

  double heap_max_bytes() const { return heap_max_; }
  /// Generator seconds of round 0 (inside set-up, excluded from it).
  double first_generate_seconds() const { return first_generate_; }

 private:
  PaperBatchMaker* maker_;
  CycleClock* clock_;
  double heap_max_ = 0.0;
  double first_generate_ = 0.0;
};

/// Forwarding Assigner that records each batch's outcome after Run().
class OutcomeAssigner : public casc::Assigner {
 public:
  explicit OutcomeAssigner(std::unique_ptr<casc::Assigner> inner)
      : inner_(std::move(inner)) {}

  std::string Name() const override { return inner_->Name(); }
  casc::Assignment Run(const casc::Instance& instance) override;

  const std::vector<BatchOutcome>& outcomes() const { return outcomes_; }

 private:
  std::unique_ptr<casc::Assigner> inner_;
  std::vector<BatchOutcome> outcomes_;
};

}  // namespace canon

#endif  // CANON_BENCH_SEAM_H_
