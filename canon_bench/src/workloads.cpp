#include "workloads.h"

#include <memory>
#include <utility>

#include "algo/gt_assigner.h"
#include "algo/tpg_assigner.h"
#include "common/check.h"
#include "common/rng.h"
#include "sim/batch_runner.h"
#include "sim/event_stream.h"

namespace canon {
namespace {

/// The opening rush window every trace workload shares: 4x arrivals over
/// the first 15% of the horizon floods the pool, so the steady state
/// re-solves a standing population.
void AddOpeningRush(casc::TraceConfig* trace) {
  trace->rush_windows.push_back({0.0, trace->horizon * 0.15, 4.0});
}

casc::DispatchConfig StreamingDispatch(int shards_per_side,
                                       int shard_threads, int budget) {
  casc::DispatchConfig config;  // product defaults otherwise
  config.sharded.shards_per_side = shards_per_side;
  config.sharded.num_threads = shard_threads;
  config.min_group_size = 3;
  config.batch_interval = 1.0;
  config.task_duration = 2.0;
  config.max_tasks_per_batch = budget;
  return config;
}

WorkloadSpec PaperRounds() {
  WorkloadSpec spec;
  spec.name = "paper-rounds";
  spec.kind = Kind::kPaper;
  // Table II / Fig. 7-8 default point: UNIF, m = 1K, n = 500, B = 3,
  // a = 4 (the SyntheticInstanceConfig defaults). GT's round times
  // cluster by best-response round count, so the median needs many
  // distinct instances to settle: 400 fresh rounds, not repeated passes.
  spec.rounds = 400;
  spec.setup_probes = 15;
  return spec;
}

WorkloadSpec Rush1m() {
  WorkloadSpec spec;
  spec.name = "rush-1m";
  // The sustained rush-hour geometry: small working radii keep valid
  // pairs sparse, so the population-sized data plane dominates. The
  // rate integrates to ~1.0M workers over 110 one-unit batches.
  casc::TraceConfig& trace = spec.trace;
  trace.horizon = 110.0;
  trace.worker_rate = 6300.0;
  trace.task_rate = 40.0;
  AddOpeningRush(&trace);
  trace.worker.radius_min = 0.008;
  trace.worker.radius_max = 0.015;
  trace.worker.speed_min = 0.05;
  trace.worker.speed_max = 0.10;
  trace.task.remaining_time = 12.0;
  trace.task.capacity = 4;
  // One shard, so the solve is one TPG pass and the pipeline's ingest
  // side gets the other three cores.
  spec.dispatch = StreamingDispatch(/*shards_per_side=*/1,
                                    /*shard_threads=*/1, /*budget=*/200);
  spec.tpg = true;
  return spec;
}

WorkloadSpec MultiskillGap() {
  WorkloadSpec spec;
  spec.name = "multiskill-gap";
  // Feasibility gap: tasks need 3 draws from 32 skills, workers carry
  // 2, so about three tasks in four never find a covering group; their
  // 40-unit deadlines keep them standing (and re-read) batch after
  // batch.
  casc::TraceConfig& trace = spec.trace;
  trace.horizon = 120.0;
  trace.worker_rate = 60.0;
  trace.task_rate = 25.0;
  AddOpeningRush(&trace);
  trace.worker.radius_min = 0.07;
  trace.worker.radius_max = 0.12;
  trace.worker.speed_min = 0.05;
  trace.worker.speed_max = 0.10;
  trace.task.remaining_time = 40.0;
  trace.task.capacity = 4;
  trace.worker.num_skills = 32;
  trace.worker.skills_per_worker = 2;
  trace.task.num_skills = 32;
  trace.task.skills_per_task = 3;
  spec.dispatch = StreamingDispatch(/*shards_per_side=*/2,
                                    /*shard_threads=*/3, /*budget=*/140);
  spec.dispatch.objective = "multiskill";
  spec.setup_probes = 5;
  return spec;
}

WorkloadSpec NetSharded() {
  WorkloadSpec spec;
  spec.name = "net-sharded";
  // Carry-over rush trace: wide working areas and slow workers, so most
  // in-range candidates miss their deadline and a large idle pool
  // carries over batch to batch.
  casc::TraceConfig& trace = spec.trace;
  trace.horizon = 120.0;
  trace.worker_rate = 100.0;
  trace.task_rate = 8.0;
  AddOpeningRush(&trace);
  trace.worker.radius_min = 0.35;
  trace.worker.radius_max = 0.50;
  trace.worker.speed_min = 0.002;
  trace.worker.speed_max = 0.004;
  trace.task.remaining_time = 12.0;
  trace.task.capacity = 4;
  spec.dispatch = StreamingDispatch(/*shards_per_side=*/4,
                                    /*shard_threads=*/3, /*budget=*/140);
  spec.distributed = true;
  spec.dist.num_nodes = 4;  // zero-fault network (NetworkConfig defaults)
  spec.setup_probes = 6;
  return spec;
}

}  // namespace

bool MakeSpec(const std::string& name, WorkloadSpec* spec) {
  if (name == "paper-rounds") {
    *spec = PaperRounds();
  } else if (name == "rush-1m") {
    *spec = Rush1m();
  } else if (name == "multiskill-gap") {
    *spec = MultiskillGap();
  } else if (name == "net-sharded") {
    *spec = NetSharded();
  } else {
    return false;
  }
  return true;
}

casc::AssignerFactory SolverFactory(const WorkloadSpec& spec) {
  if (spec.tpg) return [] { return std::make_unique<casc::TpgAssigner>(); };
  return [] { return std::make_unique<casc::GtAssigner>(); };
}

uint64_t CoopSeed(uint64_t seed) { return seed ^ 0x9E3779B9u; }

Workload::Workload(WorkloadSpec spec, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  if (spec_.kind != Kind::kStreaming) return;
  // Streamed straight into the input vectors; draw-for-draw identical
  // to casc::GenerateTrace.
  casc::Rng rng(seed_);
  casc::TraceCursor cursor(spec_.trace, &rng);
  workers_.reserve(static_cast<size_t>(cursor.num_workers()));
  casc::Worker worker;
  while (cursor.NextWorker(&worker)) workers_.push_back(worker);
  casc::Task task;
  while (cursor.NextTask(&task)) tasks_.push_back(task);
}

PassResult Workload::RunPass(bool setup_probe) const {
  return spec_.kind == Kind::kPaper ? RunPaperPass(setup_probe)
                                    : RunStreamingPass(setup_probe);
}

PassResult Workload::RunPaperPass(bool setup_probe) const {
  PassResult result;
  CycleClock clock;
  PaperBatchMaker maker(spec_.paper, seed_);
  clock.StartSetup();
  OutcomeAssigner assigner(std::make_unique<casc::GtAssigner>());
  casc::BatchRunnerConfig config;
  config.rounds = setup_probe ? 1 : spec_.rounds;
  config.min_group_size = spec_.paper.min_group_size;
  const casc::BatchRunner runner(config);
  SourceSeam source(&maker, &clock);
  const casc::RunSummary summary = runner.RunRounds(&source, &assigner);
  const double end = CycleClock::Now();
  clock.End(end);

  result.cycle_seconds = clock.cycle_seconds();
  result.outcomes = assigner.outcomes();
  for (const casc::BatchMetrics& batch : summary.batches) {
    result.summary_scores.push_back(batch.score);
    result.summary_completed_tasks += batch.completed_tasks;
  }
  result.setup_seconds = clock.first_begin() - clock.setup_start() -
                         source.first_generate_seconds();
  result.wall_seconds = end - clock.setup_start();
  result.heap_max_bytes = source.heap_max_bytes();
  result.workers_fed =
      static_cast<int64_t>(spec_.paper.num_workers) * spec_.rounds;
  result.tasks_fed =
      static_cast<int64_t>(spec_.paper.num_tasks) * spec_.rounds;
  return result;
}

PassResult Workload::RunStreamingPass(bool setup_probe) const {
  PassResult result;
  CycleClock clock;
  clock.StartSetup();
  const casc::EventStream stream(workers_, tasks_);
  const casc::CooperationMatrix coop = casc::CooperationMatrix::Procedural(
      static_cast<int>(stream.num_workers()), CoopSeed(seed_));
  casc::RunSummary summary;
  std::vector<BatchOutcome> outcomes;
  double heap_max = 0.0;
  double end = 0.0;
  int ingest_threads = 0;
  auto drive = [&](casc::DispatchService& service,
                   casc::ShardedBatchSolver* inner) {
    SolverSeam seam(inner, &clock, setup_probe);
    service.set_batch_solver(&seam);
    summary = service.Run(stream);
    end = CycleClock::Now();
    clock.End(end);
    service.set_batch_solver(nullptr);
    outcomes = seam.outcomes();
    heap_max = seam.heap_max_bytes();
    if (!service.batch_metrics().empty()) {
      ingest_threads = service.batch_metrics().back().ingest_threads;
    }
  };
  if (spec_.distributed) {
    casc::DistributedDispatchService service(spec_.dispatch, spec_.dist,
                                             &coop, SolverFactory(spec_));
    CASC_CHECK(service.distributed());
    drive(service.service(), service.net_solver());
  } else {
    casc::DispatchService service(spec_.dispatch, &coop,
                                  SolverFactory(spec_));
    drive(service, &service.sharded_assigner());
  }

  result.cycle_seconds = clock.cycle_seconds();
  result.outcomes = std::move(outcomes);
  for (const casc::BatchMetrics& batch : summary.batches) {
    result.summary_scores.push_back(batch.score);
    result.summary_completed_tasks += batch.completed_tasks;
  }
  result.setup_seconds = clock.first_begin() - clock.setup_start();
  result.wall_seconds = end - clock.setup_start();
  result.heap_max_bytes = heap_max;
  result.workers_fed = static_cast<int64_t>(stream.num_workers());
  result.tasks_fed = static_cast<int64_t>(stream.num_tasks());
  result.ingest_threads = ingest_threads;
  return result;
}

}  // namespace canon
