#include "traced_drive.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "algo/best_response.h"
#include "algo/gt_assigner.h"
#include "algo/upper_bound.h"
#include "common/thread_pool.h"
#include "kernel/coop_tile.h"
#include "model/objective.h"
#include "model/objective_model.h"
#include "net/net_dispatch.h"
#include "service/boundary_reconciler.h"
#include "service/shard_executor.h"
#include "service/shard_map.h"
#include "sim/event_stream.h"
#include "sim/streaming_plane.h"

namespace canon {
namespace {

/// The tile ceiling the product documents (BatchWorkspace: matrices above
/// it run tile-less); the standalone tile build is timed below it only.
constexpr int kTileCeiling = 2048;

/// Forwards to the workload's solver with an algo.solve span around
/// Run(); outputs and stats are the inner solver's.
class TracedAssigner : public casc::Assigner {
 public:
  TracedAssigner(std::unique_ptr<casc::Assigner> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string Name() const override { return inner_->Name(); }
  casc::Assignment Run(const casc::Instance& instance) override {
    Span span(tracer_, "algo.solve");
    inner_->set_workspace(workspace());
    inner_->set_solve_delta(solve_delta());
    casc::Assignment assignment = inner_->Run(instance);
    stats_ = inner_->stats();
    return assignment;
  }

 private:
  std::unique_ptr<casc::Assigner> inner_;
  Tracer* tracer_;
};

casc::AssignerFactory Traced(casc::AssignerFactory factory, Tracer* tracer) {
  return [factory = std::move(factory), tracer] {
    return std::make_unique<TracedAssigner>(factory(), tracer);
  };
}

/// Per-batch solver telemetry folded the way ShardedAssigner folds it:
/// rounds as the max over shards, everything else summed.
void CountSolverStats(const std::vector<casc::AssignerStats>& shards,
                      Tracer* tracer) {
  int rounds = 0;
  double moves = 0.0, dirty = 0.0, evals = 0.0, skips = 0.0, rejects = 0.0;
  for (const casc::AssignerStats& stats : shards) {
    rounds = std::max(rounds, stats.rounds);
    moves += static_cast<double>(stats.moves);
    dirty += static_cast<double>(stats.dirty_workers);
    evals += static_cast<double>(stats.prune_candidates_evaluated);
    skips += static_cast<double>(stats.prune_candidates_skipped);
    rejects += static_cast<double>(stats.feasibility_rejects);
  }
  tracer->AddCount("algo.rounds", rounds);
  tracer->AddCount("algo.moves", moves);
  tracer->AddCount("sim.dirty_workers", dirty);
  tracer->AddCount("algo.prune_evals", evals);
  tracer->AddCount("algo.prune_skips", skips);
  tracer->AddCount("algo.feasibility_rejects", rejects);
}

/// ShardedAssigner::Run decomposed into its layer calls: ShardMap ->
/// ShardExecutor::BuildProblems/Run -> BoundaryReconciler::Reconcile.
struct ShardedSolver {
  ShardedSolver(const casc::ShardedOptions& options,
                casc::AssignerFactory factory)
      : options(options),
        factory(std::move(factory)),
        executor(options.num_threads),
        reconciler(options.reconcile) {}

  casc::Assignment Solve(const casc::Instance& instance,
                         const casc::SolveDelta* delta, Tracer* tracer,
                         std::vector<casc::AssignerStats>* shard_stats) {
    if (delta != nullptr &&
        (delta->num_carried == 0 ||
         static_cast<int>(delta->seed_task.size()) !=
             instance.num_workers())) {
      delta = nullptr;
    }
    Span partition(tracer, "service.partition");
    casc::ShardMapConfig map_config;
    map_config.shards_per_side = options.shards_per_side;
    map_config.world = options.world;
    const casc::ShardMap map(instance.workers(), instance.tasks(),
                             map_config);
    std::vector<casc::ShardProblem> problems =
        executor.BuildProblems(instance, map, delta);
    const casc::ShardLoadStats load = map.LoadStats();
    partition.Close();
    tracer->AddCount("service.boundary_workers", load.boundary_workers);

    Span phase1(tracer, "service.phase1");
    tracer->set_fanout_parent(phase1.id());
    std::vector<double> shard_seconds;
    casc::Assignment assignment =
        executor.Run(instance, problems, factory, &shard_seconds, workspace,
                     shard_stats, nullptr, batch_index++);
    tracer->set_fanout_parent(Tracer::kRoot);
    phase1.Close();
    double max_seconds = 0.0, sum = 0.0;
    int busy = 0;
    for (const double s : shard_seconds) {
      if (s <= 0.0) continue;
      max_seconds = std::max(max_seconds, s);
      sum += s;
      ++busy;
    }
    if (busy > 0) {
      tracer->AddCount("service.phase1.skew_sum",
                       max_seconds / (sum / busy));
      tracer->AddCount("service.phase1.batches", 1);
    }

    Span reconcile(tracer, "service.reconcile");
    const casc::ReconcileStats stats = reconciler.Reconcile(
        instance, map.boundary_workers(), &assignment, delta);
    reconcile.Close();
    tracer->AddCount("service.reconcile.moves",
                     stats.adopted + stats.inserted + stats.seeded +
                         stats.polish_moves);
    {
      // ShardedAssigner::Run scores its result (stats().final_score).
      Span score(tracer, "model.score");
      final_score = casc::TotalScore(instance, assignment);
    }
    Span recycle(tracer, "service.recycle");
    executor.RecycleProblems(&problems);
    return assignment;
  }

  casc::ShardedOptions options;
  casc::AssignerFactory factory;
  casc::ShardExecutor executor;
  casc::BoundaryReconciler reconciler;
  casc::BatchWorkspace* workspace = nullptr;
  int batch_index = 0;
  double final_score = 0.0;
};

bool SameAssignment(const casc::Assignment& a, const casc::Assignment& b) {
  if (a.num_workers() != b.num_workers()) return false;
  for (casc::WorkerIndex w = 0; w < a.num_workers(); ++w) {
    if (a.TaskOf(w) != b.TaskOf(w)) return false;
  }
  return true;
}

/// Counts and checks shared by both drives: validity of the assignment,
/// the standalone tile build and the active-worker share.
void CheckBatch(const casc::Instance& instance,
                const casc::Assignment& assignment, size_t batch,
                casc::CoopTile* tile, Tracer* tracer, TracedRun* run) {
  {
    Span span(tracer, "kernel.tile_build");
    if (instance.num_workers() <= kTileCeiling) {
      tile->BuildFrom(instance.coop(), kTileCeiling);
    }
  }
  Span span(tracer, "bench.check");
  const casc::Status status = assignment.Validate(instance);
  if (!status.ok()) {
    run->failures.push_back("batch " + std::to_string(batch) +
                            ": Validate: " + status.ToString());
  }
}

TracedRun RunStreamingTraced(const Workload& workload, Tracer* tracer) {
  const WorkloadSpec& spec = workload.spec();
  const casc::DispatchConfig& config = spec.dispatch;
  TracedRun run;
  run.start = NowSeconds();

  Span setup_stream(tracer, "setup.stream");
  const casc::EventStream stream(workload.workers(), workload.tasks());
  setup_stream.Close();

  Span setup_service(tracer, "setup.service");
  const casc::CooperationMatrix coop = casc::CooperationMatrix::Procedural(
      static_cast<int>(stream.num_workers()), CoopSeed(workload.seed()));
  const casc::ObjectiveModel* objective =
      config.objective.empty() ? &casc::ProcessDefaultObjective()
                               : casc::ObjectiveByName(config.objective);
  const casc::AssignerFactory factory =
      Traced(SolverFactory(spec), tracer);
  casc::BatchWorkspace build_workspace;
  casc::BatchWorkspace solve_workspace;
  // In-process engine: committed path for in-process workloads, the
  // reference the networked solve is compared against otherwise (run
  // without algo spans so algo.solve counts only committed solves).
  ShardedSolver sharded(config.sharded,
                        spec.distributed ? SolverFactory(spec) : factory);
  casc::BatchWorkspace reference_workspace;
  std::unique_ptr<casc::NetShardedAssigner> net;
  if (spec.distributed) {
    net = std::make_unique<casc::NetShardedAssigner>(config.sharded,
                                                     spec.dist, factory);
    net->AttachWorkspace(&solve_workspace);
    sharded.workspace = &reference_workspace;
  } else {
    sharded.workspace = &solve_workspace;
  }

  // DispatchService::Run's effective plane configuration and its
  // pool-slice policy for the ingest threads.
  casc::StreamingPlaneConfig plane_config =
      casc::StreamingPlaneConfig::FromEnv();
  plane_config.incremental &= config.enable_incremental;
  plane_config.audit |= config.audit_streaming;
  plane_config.warm_start &= config.enable_warm_start;
  const bool pipeline = config.enable_pipeline;
  if (plane_config.incremental && plane_config.parallel_ingest &&
      plane_config.ingest_threads <= 0) {
    const int hw = casc::ThreadPool::DefaultThreads();
    plane_config.ingest_threads =
        pipeline ? std::max(1, hw - config.sharded.num_threads) : hw;
  }
  casc::StreamingPlane plane(plane_config);
  casc::EventStream::Cursor cursor = stream.NewCursor();
  casc::ThreadPool pipeline_pool(pipeline ? 2 : 1);
  std::vector<casc::Worker> arrived_workers;
  std::vector<casc::Task> arrived_tasks;
  std::vector<casc::Worker> batch_workers;
  std::vector<casc::Task> batch_tasks;
  casc::CoopTile tile;
  setup_service.Close();

  double net_seconds = 0.0;
  double reference_seconds = 0.0;
  double active_workers = 0.0;
  double now = stream.FirstEventTime();
  const double end = stream.LastEventTime() + config.batch_interval;
  double window_start = -std::numeric_limits<double>::infinity();
  bool ingested_ahead = false;

  // Pulls the arrivals of (window_start, at] into the plane.
  auto ingest = [&](double at) {
    arrived_workers.clear();
    arrived_tasks.clear();
    cursor.NextBatch(window_start, at + 1e-12, &arrived_workers,
                     &arrived_tasks);
    window_start = at + 1e-12;
    plane.Ingest(at, arrived_workers, arrived_tasks);
    tracer->AddCount("sim.ingest.arrivals",
                     static_cast<double>(arrived_workers.size() +
                                         arrived_tasks.size()));
    const casc::StreamingIngestStats& stats = plane.ingest_stats();
    tracer->AddCount("sim.ingest.spliced",
                     static_cast<double>(stats.spliced_entries));
    tracer->AddCount("sim.ingest.fresh",
                     static_cast<double>(stats.fresh_entries));
  };

  auto solve = [&](const casc::Instance& instance,
                   const casc::SolveDelta* delta) {
    std::vector<casc::AssignerStats> shard_stats;
    if (!net) {
      casc::Assignment assignment =
          sharded.Solve(instance, delta, tracer, &shard_stats);
      CountSolverStats(shard_stats, tracer);
      return assignment;
    }
    net->SetSolveDelta(delta);
    Span net_span(tracer, "net.solve");
    const double net_start = NowSeconds();
    casc::Assignment assignment = net->Solve(instance);
    net_seconds += NowSeconds() - net_start;
    net_span.Close();
    net->SetSolveDelta(nullptr);
    const casc::ServiceMetrics& m = net->metrics();
    tracer->AddCount("net.messages", static_cast<double>(m.net_messages));
    tracer->AddCount("net.bytes", static_cast<double>(m.net_bytes));
    tracer->AddCount("net.retries", m.net_retries);
    casc::AssignerStats folded;
    folded.rounds = m.solve_rounds;
    folded.moves = m.solve_moves;
    folded.dirty_workers = m.dirty_workers;
    folded.prune_candidates_evaluated = m.prune_evals;
    folded.prune_candidates_skipped = m.prune_skips;
    folded.feasibility_rejects = m.feasibility_rejects;
    CountSolverStats({folded}, tracer);

    Span reference_span(tracer, "net.reference");
    const double reference_start = NowSeconds();
    casc::Assignment reference =
        sharded.Solve(instance, delta, tracer, &shard_stats);
    reference_seconds += NowSeconds() - reference_start;
    reference_span.Close();
    if (!SameAssignment(assignment, reference)) {
      run.failures.push_back(
          "zero-fault networked solve differs from the in-process engine");
    }
    reference_workspace.Recycle(std::move(reference));
    return assignment;
  };

  while (now < end) {
    if (!ingested_ahead) {
      Span span(tracer, "sim.ingest");
      ingest(now);
    }
    ingested_ahead = false;
    bool has_work = false;
    {
      Span span(tracer, "sim.admit");
      plane.StageReleases(now);
      plane.FlushReleases();
      plane.Expire(now);
      has_work = plane.HasWork();
      if (has_work) plane.Admit(config.max_tasks_per_batch);
    }
    if (has_work) {
      {
        Span span(tracer, "sim.materialize");
        plane.MaterializeWorkers(&batch_workers);
        plane.MaterializeAdmittedTasks(&batch_tasks);
      }
      tracer->AddCount("sim.materialize.workers",
                       static_cast<double>(batch_workers.size()));
      Span instance_span(tracer, "model.instance");
      std::vector<int> ids;
      ids.reserve(batch_workers.size());
      for (const casc::Worker& worker : batch_workers) {
        if (worker.id < 0 || worker.id >= coop.num_workers()) {
          run.failures.push_back("worker id outside the cooperation matrix");
        }
        ids.push_back(static_cast<int>(worker.id));
      }
      std::optional<casc::Instance> held;
      held.emplace(batch_workers, batch_tasks, coop.View(std::move(ids)),
                   now, config.min_group_size);
      casc::Instance& instance = *held;
      instance.set_objective(objective);
      instance_span.Close();
      {
        Span span(tracer, "sim.valid_pairs");
        plane.BuildValidPairs(&instance, &build_workspace);
      }
      tracer->AddCount("sim.valid_pairs.pairs",
                       static_cast<double>(instance.NumValidPairs()));
      const casc::SolveDelta* delta = nullptr;
      {
        Span span(tracer, "sim.solve_delta");
        delta = plane.BuildSolveDelta(instance);
      }

      const double next_now = now + config.batch_interval;
      const bool overlap = pipeline && next_now < end;
      casc::Assignment assignment;
      if (overlap) {
        double solved_at = 0.0;
        pipeline_pool.ParallelFor(2, [&](int64_t chunk) {
          if (chunk == 0) {
            assignment = solve(instance, delta);
            solved_at = NowSeconds();
          } else {
            Span span(tracer, "sim.ingest", Tracer::kRoot);
            ingest(next_now);
            plane.StageReleases(next_now);
          }
        });
        tracer->Record("pipeline.join_wait", solved_at, NowSeconds());
        ingested_ahead = true;
      } else {
        assignment = solve(instance, delta);
      }

      BatchOutcome outcome;
      {
        Span span(tracer, "model.score");
        outcome = Observe(instance, assignment);
      }
      run.outcomes.push_back(outcome);
      {
        Span span(tracer, "sim.commit");
        plane.Commit(instance, assignment, now + config.task_duration);
      }
      CheckBatch(instance, assignment, run.outcomes.size() - 1, &tile,
                 tracer, &run);
      {
        Span span(tracer, "bench.check");
        for (casc::WorkerIndex w = 0; w < instance.num_workers(); ++w) {
          if (!instance.ValidTasks(w).empty()) active_workers += 1.0;
        }
      }
      Span recycle(tracer, "model.recycle");
      build_workspace.Recycle(instance.ReleaseValidPairs());
      solve_workspace.Recycle(std::move(assignment));
      held.reset();
    }
    now += config.batch_interval;
  }
  run.end = NowSeconds();

  const double materialized = tracer->Count("sim.materialize.workers");
  tracer->AddCount("sim.active_ratio",
                   materialized > 0.0 ? active_workers / materialized : 0.0);
  if (net) {
    tracer->AddCount("net.overhead_ratio",
                     reference_seconds > 0.0 ? net_seconds / reference_seconds
                                             : 0.0);
  }
  return run;
}

TracedRun RunPaperTraced(const Workload& workload, Tracer* tracer) {
  const WorkloadSpec& spec = workload.spec();
  TracedRun run;
  PaperBatchMaker maker(spec.paper, workload.seed());
  run.start = NowSeconds();
  Span setup(tracer, "setup.service");
  casc::GtAssigner assigner;
  casc::BatchWorkspace workspace;
  assigner.set_workspace(&workspace);
  casc::CoopTile tile;
  setup.Close();

  for (int round = 0; round < spec.rounds; ++round) {
    const double now = round * 1.0;  // BatchRunnerConfig::batch_interval
    std::optional<PaperBatchMaker::Raw> raw;
    {
      Span span(tracer, "gen.make_batch");
      raw = maker.Generate(now);
    }
    Span instance_span(tracer, "model.instance");
    std::optional<casc::Instance> instance(
        maker.Build(std::move(*raw), now));
    instance_span.Close();

    Span solve_span(tracer, "algo.solve");
    const casc::Assignment assignment = assigner.Run(*instance);
    solve_span.Close();
    CountSolverStats({assigner.stats()}, tracer);

    BatchOutcome outcome;
    {
      Span span(tracer, "model.score");
      outcome = Observe(*instance, assignment);
    }
    run.outcomes.push_back(outcome);
    CheckBatch(*instance, assignment, run.outcomes.size() - 1, &tile, tracer,
               &run);
    {
      Span span(tracer, "bench.check");
      if (!casc::IsNashEquilibrium(*instance, assignment, 1e-9)) {
        run.failures.push_back("round " + std::to_string(round) +
                               ": GT output is not a Nash equilibrium");
      }
      const double upper = casc::ComputeUpperBound(*instance);
      if (outcome.score > upper + 1e-9 * std::max(1.0, upper)) {
        run.failures.push_back("round " + std::to_string(round) +
                               ": score exceeds UPPER (Eq. 9)");
      }
    }
    Span release(tracer, "model.recycle");
    instance.reset();
  }
  run.end = NowSeconds();
  return run;
}

}  // namespace

TracedRun RunTraced(const Workload& workload, Tracer* tracer) {
  TracedRun run = workload.spec().kind == Kind::kPaper
                      ? RunPaperTraced(workload, tracer)
                      : RunStreamingTraced(workload, tracer);
  const double evals = tracer->Count("algo.prune_evals");
  const double skips = tracer->Count("algo.prune_skips");
  tracer->AddCount("algo.prune_skip_ratio",
                   evals + skips > 0.0 ? skips / (evals + skips) : 0.0);
  const double skew_batches = tracer->Count("service.phase1.batches");
  tracer->AddCount("service.phase1.skew",
                   skew_batches > 0.0
                       ? tracer->Count("service.phase1.skew_sum") /
                             skew_batches
                       : 0.0);
  return run;
}

}  // namespace canon
