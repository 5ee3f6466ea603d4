#ifndef CASC_SERVICE_SHARD_EXECUTOR_H_
#define CASC_SERVICE_SHARD_EXECUTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "algo/assigner.h"
#include "common/thread_pool.h"
#include "model/assignment.h"
#include "model/batch_workspace.h"
#include "model/instance.h"
#include "model/solve_delta.h"
#include "service/shard_map.h"

namespace casc {

/// Creates a fresh solver for one shard. Invoked concurrently from pool
/// threads, so it must be thread-safe (a plain `make_unique<GtAssigner>`
/// is). The produced assigners must be deterministic and single-threaded
/// (GtOptions::num_threads == 1): nested pools are not allowed, and
/// shard results must not depend on where they ran.
using AssignerFactory = std::function<std::unique_ptr<Assigner>()>;

/// Test/fuzz fault hook: returns true when shard `shard` of batch `batch`
/// must be dropped *after* solving — the result vanishes before the fold,
/// exactly as if the network lost it. Used to exercise carry-over replay
/// (dropped shards' workers stay idle and re-enter the next batch's
/// admission) without standing up the simulated network.
using ShardFaultHook = std::function<bool(int batch, int shard)>;

/// One shard's self-contained CA-SC sub-instance plus the index maps
/// back into the global instance. The local instance holds the shard's
/// interior workers and tasks under local indices, a zero-copy
/// CooperationMatrix view remapping local worker indices onto the global
/// matrix, and valid-pair lists derived from the global lists (filter +
/// remap — no per-shard spatial query).
struct ShardProblem {
  Instance instance;                        ///< local, valid pairs ready
  std::vector<WorkerIndex> global_workers;  ///< local w -> global w
  std::vector<TaskIndex> global_tasks;      ///< local t -> global t

  /// Shard-local slice of the batch's cross-batch warm-start delta
  /// (empty / num_carried == 0 when the batch is cold): global seeds are
  /// remapped to local task indices; a worker whose retained seed lives
  /// in another shard loses the seed here and joins the dirty frontier
  /// (phase 2 re-arbitrates it). SolveProblem attaches this to the shard
  /// solver, so the simulated shard nodes warm-start from the dispatched
  /// problem alone — no coordinator state needed.
  SolveDelta delta;
};

/// Phase-1 engine of the sharded dispatch service: materializes the
/// per-shard problems and runs an independent solver on every shard in
/// parallel, folding the local assignments into one global assignment in
/// ascending shard order. Because shards share no workers (interior
/// only) and no tasks, the fold is conflict-free and the result is
/// independent of thread count and scheduling.
///
/// Workspace lifetime: the per-shard workspaces (and any
/// `global_workspace` the caller passes) are touched only between entry
/// to and return from BuildProblems()/Run()/RecycleProblems() — the
/// executor keeps no borrowed pointers across calls. The pipelined
/// dispatch loop relies on this: while one thread is inside Run() for
/// batch N, another may mutate unrelated streaming state (and recycle
/// into a *different* workspace) for batch N+1.
class ShardExecutor {
 public:
  /// A pool of `num_threads` (>= 1; 1 runs inline).
  explicit ShardExecutor(int num_threads);

  /// Builds one ShardProblem per shard of `map` (in parallel). Requires
  /// `global.valid_pairs_ready()`; `map` must have been built from the
  /// same worker/task vectors. A non-null `delta` (the plane's
  /// cross-batch warm-start export over the global instance) is sliced
  /// per shard into each problem's `delta`; null leaves every shard cold.
  std::vector<ShardProblem> BuildProblems(const Instance& global,
                                          const ShardMap& map,
                                          const SolveDelta* delta = nullptr);

  /// Runs a factory-made assigner over every problem in parallel and
  /// folds the local assignments into a global assignment (ascending
  /// shard order; boundary workers stay idle for phase 2). Shards with
  /// no workers or no tasks are skipped. A non-null `shard_seconds`
  /// receives per-shard solver wall times; a non-null `shard_stats`
  /// receives each shard solver's AssignerStats (default-constructed for
  /// skipped shards). The solvers draw their scratch state from this
  /// executor's per-shard workspaces; a non-null `global_workspace`
  /// additionally pools the folded global assignment.
  /// A non-null `fault_hook` is consulted per shard (with `batch_index`)
  /// during the serial fold: a dropped shard's local result is discarded
  /// — its workers stay idle in the returned assignment — and the shard
  /// index is appended to `dropped_shards` (if non-null).
  Assignment Run(const Instance& global,
                 const std::vector<ShardProblem>& problems,
                 const AssignerFactory& factory,
                 std::vector<double>* shard_seconds,
                 BatchWorkspace* global_workspace = nullptr,
                 std::vector<AssignerStats>* shard_stats = nullptr,
                 const ShardFaultHook& fault_hook = nullptr,
                 int batch_index = 0,
                 std::vector<int>* dropped_shards = nullptr);

  /// Solves one shard problem with a factory-made assigner — the unit of
  /// work a simulated shard node performs on dispatch. Returns nullopt
  /// for an empty shard (no workers or no tasks). Thread-safe given a
  /// private `workspace` (may be null). Run() is equivalent to
  /// SolveProblem on every shard (any order/concurrency) followed by
  /// FoldProblem in ascending shard order. When `use_delta` is set (the
  /// default) and the problem carries a non-empty warm-start slice, the
  /// slice is attached to the solver; `use_delta = false` forces a cold
  /// solve of the same problem (the net layer's failover fallback).
  static std::optional<Assignment> SolveProblem(const ShardProblem& problem,
                                                const AssignerFactory& factory,
                                                BatchWorkspace* workspace,
                                                double* seconds = nullptr,
                                                AssignerStats* stats = nullptr,
                                                bool use_delta = true);

  /// Folds one shard's local assignment into the global assignment using
  /// the problem's index maps (local insertion order, so folding shards
  /// in ascending shard order reproduces Run()'s fold bit-identically —
  /// shards share no workers and no tasks, making per-shard folds
  /// commutative across shards).
  static void FoldProblem(const ShardProblem& problem, const Assignment& local,
                          Assignment* global);

  /// Returns the problems' CSR pair indexes to the per-shard workspaces
  /// so the next batch's BuildProblems reuses their capacity. The
  /// problems' instances are left without valid pairs; drop them after.
  void RecycleProblems(std::vector<ShardProblem>* problems);

  int num_threads() const { return pool_.num_threads(); }

 private:
  /// Grows workspaces_ to `count` slots (serial; call before the pool).
  void EnsureWorkspaces(int count);

  ThreadPool pool_;
  /// One workspace per shard slot: ParallelFor bodies touch only their
  /// own slot, so no locking is needed.
  std::vector<std::unique_ptr<BatchWorkspace>> workspaces_;
};

}  // namespace casc

#endif  // CASC_SERVICE_SHARD_EXECUTOR_H_
