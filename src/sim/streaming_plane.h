#ifndef CASC_SIM_STREAMING_PLANE_H_
#define CASC_SIM_STREAMING_PLANE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "model/assignment.h"
#include "model/batch_workspace.h"
#include "model/instance.h"
#include "model/solve_delta.h"
#include "model/task.h"
#include "model/worker.h"
#include "spatial/spatial_index.h"

namespace casc {

class ThreadPool;

/// Configuration of the incremental streaming data plane.
struct StreamingPlaneConfig {
  /// Delta-maintain the valid-pair rows across batches (the whole point
  /// of the plane). When false the plane only does pool bookkeeping,
  /// MaterializeWorkers() finds the active workers with a from-scratch
  /// query and BuildValidPairs() falls back to
  /// Instance::ComputeValidPairs() — the exact pre-existing
  /// rebuild-everything path, used as the baseline and reachable at
  /// runtime via CASC_NO_INCREMENTAL.
  bool incremental = true;

  /// Differential self-check: after every incremental emission, also run
  /// the from-scratch build and CHECK the two CSR indexes are
  /// byte-identical (ValidPairIndex::SameAs). Debug/CI tool, enabled at
  /// runtime via CASC_STREAM_AUDIT.
  bool audit = false;

  /// Fan the per-worker splice, fresh-row and CSR-emission loops out over
  /// an owned thread pool. Outputs are bit-identical on or off (the
  /// partition only decides where a worker's row is processed, never what
  /// it contains); kill switch: CASC_NO_PARALLEL_INGEST.
  bool parallel_ingest = true;

  /// Thread count for the ingest pool; 0 means pick automatically (the
  /// dispatch service reserves the solver's shard threads and hands
  /// ingest the rest; standalone planes use the hardware concurrency).
  /// Ignored when parallel_ingest is false. Env: CASC_INGEST_THREADS.
  int ingest_threads = 0;

  /// Track the cross-batch assignment skeleton and publish a SolveDelta
  /// each batch (BuildSolveDelta) so warm-capable solvers seed from the
  /// previous equilibrium. Works identically in incremental and scratch
  /// modes — the delta is a pure function of the pool bookkeeping and the
  /// built instance, never of how the valid pairs were computed, which is
  /// what keeps warm runs bit-identical across every mode/thread combo.
  /// Kill switch: CASC_NO_WARM_START (restores pre-warm behavior
  /// exactly: BuildSolveDelta returns null and solvers run cold).
  bool warm_start = true;

  /// Bounded-staleness re-seed for standing tasks. A retained open task
  /// whose group survived is normally clean, but fresh candidate
  /// arrivals change its group-formation potential — best-response
  /// rounds alone can never staff it (the kEmpty trap), so it must
  /// periodically re-enter the restricted TPG re-seed. Re-marking it
  /// every batch would put the whole standing frontier back in the
  /// dirty set in arrival-dense traces, erasing the warm start's win;
  /// instead each task re-enters on its round-robin slot (handle modulo
  /// this many batches) and only when it actually accumulated fresh
  /// candidates since it was last seeded. Staffing staleness is bounded
  /// by this epoch length; zero-churn batches stay exactly clean (no
  /// arrivals means no counters, so no task re-enters). 1 restores
  /// every-batch retry; values < 1 are clamped to 1. The default is the
  /// largest epoch that held solution quality within a few percent of
  /// cold on the pr10 feasibility-gap trace (longer epochs kept cutting
  /// solve time but delayed staffing enough to lose deadline-tight
  /// tasks); override with CASC_WARM_RETRY_EPOCH.
  int warm_retry_epoch = 4;

  /// Defaults plus the process-wide runtime switches: incremental off
  /// when CASC_NO_INCREMENTAL is set, audit on when CASC_STREAM_AUDIT is
  /// set, parallel ingest off when CASC_NO_PARALLEL_INGEST is set, thread
  /// count from CASC_INGEST_THREADS when positive, warm start off when
  /// CASC_NO_WARM_START is set, retry epoch from CASC_WARM_RETRY_EPOCH
  /// when set.
  static StreamingPlaneConfig FromEnv();
};

/// Where one Ingest() call's wall time went, plus its splice counters.
/// Reset at the start of every Ingest(); the pipelined service loop
/// snapshots this right after the overlapped ingest returns.
struct StreamingIngestStats {
  double splice_seconds = 0.0;        ///< delta splice into known rows
  double fresh_rows_seconds = 0.0;    ///< full queries for new workers
  double spatial_insert_seconds = 0.0;  ///< open-task index build
  int64_t spliced_entries = 0;   ///< entries appended to known rows
  int64_t splice_rejects = 0;    ///< splice-time deadline rejects (known)
  int64_t fresh_entries = 0;     ///< entries appended to new workers' rows
  int64_t fresh_rejects = 0;     ///< splice-time deadline rejects (new)
};

/// Where one batch's CSR emission time went (incremental mode only; the
/// first pass runs in MaterializeWorkers(), the second in
/// BuildValidPairs()), plus its retention counters.
struct StreamingEmitStats {
  double csr_emit_seconds = 0.0;  ///< prune + sort + parallel CSR fill
  int64_t retained_entries = 0;   ///< row entries still alive
  int64_t dropped_entries = 0;    ///< departed-task / dead-deadline drops
};

/// The cross-batch state of a streaming run (Algorithm 1), maintained
/// incrementally: the idle-worker pool, the open-task pool, the busy-
/// worker queue and a delta-maintained valid-pair row per worker.
/// Between consecutive batches the plane re-runs a circle query only for
/// the new workers instead of one per worker:
///
/// * New tasks are spliced into every known worker's row via a small
///   probe index over just the arrivals.
/// * New workers get one circle query each against a probe index built
///   this batch over all open tasks (this window's arrivals included).
///   No spatial index lives across batches: the open pool is a few
///   hundred tasks, so one build per batch is cheap, and the index
///   holds exactly the live set by construction.
/// * Surviving row entries only need a deadline re-check at emission,
///   because the two non-trivial validity conditions of Definition 3
///   behave monotonically: the working-area test is time-invariant, and
///   CanArriveByDeadline(now) implies CanArriveByDeadline(now') for every
///   now' < now — so a pair that is valid at emission time was valid when
///   the row was spliced, and a pair that fails the deadline re-check can
///   never become valid again (the entry is dropped permanently).
///
/// Rows are keyed by internal task *handles* (dense, monotonically
/// increasing), not pool slots or task ids: slots move on compaction and
/// external ids are not guaranteed unique. Rows therefore survive pool
/// reordering (EDF admission), task departures (lazy: the handle's slot
/// is -1 and the entry is dropped at the next emission) and worker busy
/// spells (rows of busy workers keep being spliced, so a returning worker
/// needs no rebuild).
///
/// One batch cycle, in order (matching DispatchService::Run's sequential
/// loop):
///
///   Ingest(now, arrivals)        // appends workers, then tasks
///   StageReleases(now); FlushReleases();
///   Expire(now);                 // also fixes the batch time
///   if (HasWork()) {
///     Admit(budget);             // EDF under the batch budget
///     MaterializeWorkers/MaterializeAdmittedTasks -> Instance
///     BuildValidPairs(&instance, &workspace);
///     ... solve ...
///     Commit(instance, assignment, now + task_duration);
///   }
///
/// O(active) batches: the instance holds only the *active* pool workers —
/// those with at least one valid pair among the admitted tasks — in pool
/// order, and the plane keeps the back-map from instance worker index to
/// pool slot. A worker without a valid pair has one strategy (idle) under
/// Definition 3, so it can change neither Q(T) nor any other player's
/// utility; leaving it out changes no assignment for any solver that
/// iterates workers in index order (relative order is kept). Every
/// per-batch copy downstream (Instance, CooperationMatrix::View, ShardMap,
/// shard problems, tiles, solver arrays) is then sized by the active set,
/// not the idle population. The cross-batch bookkeeping still spans the
/// whole pool: BuildSolveDelta() stamps and counts every pool worker, and
/// Commit() keeps the full materialized pool prefix in order.
///
/// Pipelining contract: between BuildValidPairs() and Commit(), the
/// methods Ingest() and StageReleases() for the *next* batch may run on a
/// different thread while the current instance is being solved — the
/// solver only reads the Instance (which owns copies) and the published
/// SolveDelta, never the plane. Appended arrivals land past the
/// materialized prefix of the pools, so
/// Commit()'s stable compaction reproduces the sequential pool order
/// [survivors][arrivals][earlier releases][just-returned workers]
/// exactly; overlapping therefore never changes any output.
///
/// Parallel ingest (config.parallel_ingest): the splice, fresh-row and
/// CSR-emission loops fan out over an owned pool, each thread processing
/// a deterministic contiguous range of worker slots and writing only its
/// own rows / flat ranges; counters merge in fixed chunk order after the
/// join. Every per-row computation is independent of every other row, so
/// the outputs are bit-identical to the serial loops for any thread
/// count. The plane owns all its ingest scratch (per-thread slots) — it
/// never touches the service's BatchWorkspaces, which is what lets an
/// overlapped Ingest(N+1) run concurrently with solve(N) without sharing
/// a single allocation.
///
/// Not thread-safe beyond that contract: at most one mutating call at a
/// time.
class StreamingPlane {
 public:
  explicit StreamingPlane(
      StreamingPlaneConfig config = StreamingPlaneConfig::FromEnv());
  ~StreamingPlane();

  StreamingPlane(const StreamingPlane&) = delete;
  StreamingPlane& operator=(const StreamingPlane&) = delete;

  /// Appends this window's arrivals to the pools at batch time `now`.
  /// Incremental mode also splices the tasks into every known worker's
  /// row (one query per worker against a probe index over the arrivals)
  /// and computes fresh rows for the new workers (one query each against
  /// a probe index over all open tasks, built here).
  void Ingest(double now, std::span<const Worker> workers,
              std::span<const Task> tasks);

  /// Moves busy workers whose release time is <= `now` to the staged
  /// list, preserving their start order. Safe to call more than once per
  /// batch (the pipelined loop stages pre-existing releases during the
  /// overlap and the just-returned ones after Commit()).
  void StageReleases(double now);

  /// Appends the staged released workers to the idle pool.
  void FlushReleases();

  /// Drops open tasks whose deadline has passed (deadline < now), stably,
  /// and fixes `now` as the time of the batch about to be materialized.
  void Expire(double now);

  /// True when both pools are non-empty (a batch can run).
  bool HasWork() const {
    return !pool_worker_handles_.empty() && !pool_tasks_.empty();
  }

  /// Selects this batch's tasks: all of them when `budget` <= 0 or the
  /// pool fits, else the earliest-deadline `budget` tasks (stable EDF,
  /// ties by task id — the admission order of the dispatch service).
  /// Instance task i corresponds to pool slot admitted()[i].
  void Admit(int budget);

  /// Pool slots of the admitted tasks, in instance task order. Valid
  /// until the next Commit()/Expire().
  std::span<const int32_t> admitted() const {
    return {admitted_.data(), static_cast<size_t>(admitted_count_)};
  }

  /// Tasks deferred by the last Admit()'s budget.
  int num_deferred() const {
    return static_cast<int>(admitted_.size()) - admitted_count_;
  }

  size_t num_pool_workers() const { return pool_worker_handles_.size(); }

  /// Idle-pool size at the last MaterializeWorkers() — the batch's |W(phi)|
  /// including the workers left out of the instance for want of a valid
  /// pair. Unaffected by arrivals ingested during an overlapped solve.
  int materialized_pool_size() const {
    return static_cast<int>(materialized_pool_size_);
  }
  size_t num_pool_tasks() const { return pool_tasks_.size(); }

  /// Open tasks carried past the last Commit() (non-started admitted plus
  /// deferred), excluding any arrivals already ingested for the next
  /// batch — the queue-depth metric of the sequential loop.
  int queue_depth_after_commit() const { return committed_queue_depth_; }

  /// Copies the active idle-pool workers — those with at least one valid
  /// pair among the admitted tasks at the batch time — into `out`
  /// (cleared first), in pool order, and records the instance -> pool
  /// slot back-map. Call after Admit(). Incremental mode decides who is
  /// active from the emitted rows (the first pass of the CSR emission,
  /// which BuildValidPairs() finishes); scratch mode runs its own
  /// from-scratch query over the whole pool.
  void MaterializeWorkers(std::vector<Worker>* out);

  /// Copies the admitted tasks (in instance order) into `out`.
  void MaterializeAdmittedTasks(std::vector<Task>* out) const;

  /// Fills `instance`'s valid pairs: incremental emission from the
  /// maintained rows (audited against a from-scratch build when
  /// configured), or Instance::ComputeValidPairs() in scratch mode. The
  /// instance must have been materialized from this plane's current
  /// pools/admission (MaterializeWorkers/MaterializeAdmittedTasks). The
  /// emitted CSR is byte-identical to the from-scratch build in either
  /// mode. The audit also checks that every pool worker the instance
  /// leaves out has an empty from-scratch row.
  void BuildValidPairs(Instance* instance, BatchWorkspace* workspace);

  /// Publishes the cross-batch warm-start delta for the instance about to
  /// be solved: the previous equilibrium's skeleton remapped through the
  /// slot back-map onto this batch's indices, plus the dirty frontier
  /// (fresh workers, returners, workers whose seed pair died, and every
  /// candidate of a task that is new to the instance or whose retained
  /// group lost a member). Call after BuildValidPairs() and before the
  /// solve; returns null (cold) when warm start is disabled or no worker
  /// carries over — including always on the first batch — so the cold
  /// path stays bit-identical to pre-warm behavior. Carry-over, stamps
  /// and the group-lost cascade span the whole materialized pool (a
  /// left-out worker is still carried, and its dead seed still regroups
  /// its old task); seeds and dirty flags exist only for the instance's
  /// workers, and left-out carried idle workers are listed by location
  /// (SolveDelta::idle_carried_locations). The returned pointer
  /// stays valid until the next BuildSolveDelta() call; the pipelined
  /// overlap may run the next Ingest() while a solver reads it (ingest
  /// never touches the delta).
  const SolveDelta* BuildSolveDelta(const Instance& instance);

  /// Commits the solved batch: workers of started groups (>= B members)
  /// go busy until `release_time`; started tasks leave the pool;
  /// non-started admitted tasks, deferred tasks and any overlapped
  /// arrivals remain, in exactly the sequential loop's carry-over order.
  /// Pool slots past the materialized prefix are the overlapped
  /// arrivals; instance workers map to their slots through the back-map.
  void Commit(const Instance& instance, const Assignment& assignment,
              double release_time);

  const StreamingPlaneConfig& config() const { return config_; }

  /// Resolved ingest-pool width (1 when parallel ingest is off or the
  /// plane is in scratch mode).
  int ingest_threads() const { return ingest_threads_; }

  /// Phase timings/counters of the most recent Ingest() call.
  const StreamingIngestStats& ingest_stats() const { return ingest_stats_; }

  /// Emission timings/counters of the most recent batch (zeroed in
  /// scratch mode).
  const StreamingEmitStats& emit_stats() const { return emit_stats_; }

 private:
  /// Per-thread ingest scratch. Chunk k of a fanned-out loop owns
  /// slots_[k] exclusively; nothing here outlives the join.
  struct IngestSlot {
    std::vector<int64_t> query;    ///< CircleQueryInto result buffer
    std::vector<TaskIndex> emit;   ///< emission pass-1 instance indexes
    int64_t appended = 0;
    int64_t rejects = 0;
    int64_t retained = 0;
    int64_t dropped = 0;
  };

  /// Invalidates the handle of the task at pool `slot`. Row entries
  /// referencing it die lazily at the next emission.
  void RemoveTask(int32_t slot);

  /// Restores slot_of_handle_ after a pool compaction/reorder.
  void RefreshSlots();

  /// Appends the row entries valid for `worker` at `now` among `tasks`
  /// (a probe index keyed by task handle) into rows_[handle], using and
  /// updating `scratch` (the calling chunk's slot).
  void SpliceRow(int32_t handle, const SpatialIndex& tasks, double now,
                 IngestSlot* scratch);

  /// Prunes rows_[handle of worker slot w] in place and appends the
  /// emitted instance indexes (sorted ascending) to scratch->emit;
  /// records the emitted length in row_lengths_[w].
  void EmitWorkerRow(size_t w, double now, IngestSlot* scratch);

  /// From-scratch Definition 3 (ValidPairQuery, the query behind
  /// Instance::ComputeValidPairs) over the whole idle pool and the
  /// admitted tasks at batch_now_: active_out[slot] = 1 iff the worker
  /// has a valid pair. Independent of the maintained rows (scratch mode's
  /// activity test and the audit's reference).
  void ScratchActive(std::vector<uint8_t>* active_out) const;

  /// Runs fn(chunk, begin, end) over [0, count) split into `chunks`
  /// deterministic contiguous ranges (ThreadPool::ChunkBounds); inline
  /// when chunks <= 1, on the ingest pool otherwise. Both emission passes
  /// call this with the same chunk count, so pass 2 realigns with the
  /// per-chunk buffers pass 1 filled.
  void RunOnChunks(size_t count, int chunks,
                   const std::function<void(int, size_t, size_t)>& fn);

  /// Chunk count for a loop over `count` rows: capped by the pool width
  /// and a minimum grain so tiny batches stay inline.
  int ChunksFor(size_t count) const;

  StreamingPlaneConfig config_;

  /// Every worker ever seen, by handle; parallel to rows_.
  std::vector<Worker> worker_store_;
  /// Per-worker valid-task rows, entries are task handles (unordered).
  std::vector<std::vector<int32_t>> rows_;
  /// Idle pool, in the sequential loop's carry-over order (handles).
  std::vector<int32_t> pool_worker_handles_;

  /// Open-task pool in carry-over order, with parallel handles.
  std::vector<Task> pool_tasks_;
  std::vector<int32_t> pool_task_handles_;
  /// Task handle -> pool slot, -1 once the task left the pool. Grows by
  /// one entry per task ever ingested (4 bytes each).
  std::vector<int32_t> slot_of_handle_;

  /// Busy workers as (release time, handle), in start order.
  std::vector<std::pair<double, int32_t>> busy_;
  std::vector<int32_t> staged_releases_;

  /// Admission state of the current batch.
  std::vector<int32_t> admitted_;  ///< permutation of slots (prefix used)
  int admitted_count_ = 0;
  size_t pool_size_at_admit_ = 0;
  int committed_queue_depth_ = 0;

  /// Batch time fixed by the last Expire().
  double batch_now_ = 0.0;

  /// The materialized batch: instance worker index -> idle-pool slot
  /// (ascending), the pool size it was taken from, and the chunk count of
  /// the emission's first pass (the second pass must realign with it).
  std::vector<int32_t> active_slots_;
  size_t materialized_pool_size_ = 0;
  int emit_chunks_ = 1;
  std::vector<uint8_t> scratch_active_;

  /// Emission and ingest scratch (reused across batches); probe_items_
  /// holds the (task handle, location) items of Ingest()'s probe indexes.
  std::vector<int32_t> instance_index_of_slot_;
  std::vector<int32_t> emit_row_;
  std::vector<SpatialItem> probe_items_;
  std::vector<Task> scratch_tasks_;
  std::vector<int32_t> scratch_handles_;

  /// Warm-start skeleton state (config_.warm_start). Seeds and presence
  /// stamps are keyed by handle, like rows_/slot_of_handle_: a worker
  /// (task) is carried into the next solve iff its stamp equals the
  /// previous BuildSolveDelta() sequence number, which makes returners
  /// from busy spells, skipped no-work batches and overlap arrivals all
  /// read as fresh/dirty without any per-batch set differencing.
  std::vector<int32_t> seed_task_of_worker_;  ///< by worker handle; -1 idle
  std::vector<int64_t> worker_solved_stamp_;  ///< by worker handle
  std::vector<int64_t> task_solved_stamp_;    ///< by task handle
  /// Fresh candidates a standing task accumulated since its last
  /// re-seed, by task handle — drives the warm_retry_epoch re-entry.
  std::vector<int32_t> task_fresh_candidates_;
  int64_t solve_seq_ = 0;
  std::vector<int32_t> task_instance_of_handle_;  ///< per-batch scratch
  std::vector<uint8_t> group_lost_;               ///< per-batch scratch
  SolveDelta delta_;

  /// Parallel-ingest machinery: an owned pool (null when the resolved
  /// width is 1), one scratch slot per chunk, and the per-worker emitted
  /// row lengths feeding the prefix sum of the parallel CSR build.
  int ingest_threads_ = 1;
  std::unique_ptr<ThreadPool> ingest_pool_;
  std::vector<IngestSlot> slots_;
  std::vector<int32_t> row_lengths_;
  StreamingIngestStats ingest_stats_;
  StreamingEmitStats emit_stats_;
};

}  // namespace casc

#endif  // CASC_SIM_STREAMING_PLANE_H_
