// O(active) batches: a worker without a valid pair has one strategy
// (idle) under Definition 3, so adding or removing such workers must not
// change any assignment or score. The streaming plane relies on this to
// hand solvers only the active workers of each batch; these tests pin
// that the per-id assignment and the score bits are unchanged for every
// assigner and engine, and that whole streaming runs reproduce outputs
// recorded before the plane compacted its batches.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/exact_assigner.h"
#include "algo/gt_assigner.h"
#include "algo/local_search.h"
#include "algo/maxflow_assigner.h"
#include "algo/online_assigner.h"
#include "algo/random_assigner.h"
#include "algo/tpg_assigner.h"
#include "common/rng.h"
#include "gen/trace.h"
#include "model/cooperation_matrix.h"
#include "model/objective.h"
#include "net/net_dispatch.h"
#include "service/dispatch_service.h"
#include "sim/event_stream.h"

namespace casc {
namespace {

// ---------------------------------------------------------------------------
// Idle workers are inert, for every solver.
// ---------------------------------------------------------------------------

/// A solver under test: Run() on a ready instance, returning the result.
struct SolverCase {
  std::string name;
  int max_workers;  ///< instance-size ceiling (ExactAssigner's)
  std::function<Assignment(const Instance&)> solve;
};

/// Solves with a solver made fresh for every call.
template <typename Make>
std::function<Assignment(const Instance&)> RunFresh(Make make) {
  return [make](const Instance& instance) { return make()->Run(instance); };
}

std::vector<SolverCase> AllSolvers() {
  const int kAny = 1 << 30;
  std::vector<SolverCase> cases;
  cases.push_back({"gt", kAny, RunFresh([] {
                     return std::make_unique<GtAssigner>();
                   })});
  cases.push_back({"gt-tsi-lub", kAny, RunFresh([] {
                     GtOptions options;
                     options.use_tsi = true;
                     options.use_lub = true;
                     return std::make_unique<GtAssigner>(options);
                   })});
  cases.push_back({"tpg", kAny, RunFresh([] {
                     return std::make_unique<TpgAssigner>();
                   })});
  cases.push_back({"gt+swap", kAny, RunFresh([] {
                     return std::make_unique<LocalSearchAssigner>(
                         std::make_unique<GtAssigner>());
                   })});
  cases.push_back({"online", kAny, RunFresh([] {
                     return std::make_unique<OnlineAssigner>();
                   })});
  cases.push_back({"exact", kExactDefaultMaxWorkers,
                   RunFresh(
                       [] { return std::make_unique<ExactAssigner>(); })});
  cases.push_back({"mflow", kAny, RunFresh([] {
                     return std::make_unique<MaxFlowAssigner>();
                   })});
  cases.push_back({"rand", kAny, RunFresh([] {
                     return std::make_unique<RandomAssigner>(7);
                   })});
  for (const int side : {1, 4}) {
    cases.push_back(
        {"sharded-s" + std::to_string(side), kAny,
         RunFresh([side] {
           ShardedOptions options;
           options.shards_per_side = side;
           return std::make_unique<ShardedAssigner>(
               options, [] { return std::make_unique<GtAssigner>(); });
         })});
  }
  cases.push_back({"net-s4", kAny, [](const Instance& instance) {
                     ShardedOptions options;
                     options.shards_per_side = 4;
                     DistributedConfig dist;
                     dist.num_nodes = 3;  // zero-fault network
                     NetShardedAssigner net(
                         options, dist,
                         [] { return std::make_unique<GtAssigner>(); });
                     return net.Solve(instance);
                   }});
  return cases;
}

/// One random batch: `active` ordinary workers, `idle` workers that can
/// have no valid pair (far outside every task's reach, too slow for any
/// deadline, or not yet arrived), and `tasks` tasks. Workers are shuffled
/// so idle ones sit between active ones; ids are 0..m-1 and index one
/// global cooperation matrix.
struct Population {
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  CooperationMatrix coop{0};
};

Population MakePopulation(int active, int idle, int tasks, uint64_t seed) {
  Population population;
  Rng rng(seed);
  const int m = active + idle;
  for (int i = 0; i < m; ++i) {
    Worker worker;
    worker.id = i;
    worker.location = {rng.Uniform(), rng.Uniform()};
    worker.speed = 0.2 + 0.3 * rng.Uniform();
    worker.radius = 0.25 + 0.2 * rng.Uniform();
    worker.arrival_time = 0.0;
    if (i >= active) {
      switch (i % 3) {
        case 0:  // outside the world, out of every task's reach
          worker.location = {3.0 + rng.Uniform(), -2.0 - rng.Uniform()};
          break;
        case 1:  // in reach of tasks but misses every deadline
          worker.speed = 1e-9;
          break;
        default:  // not present yet at batch time
          worker.arrival_time = 5.0;
          break;
      }
    }
    population.workers.push_back(worker);
  }
  for (int j = 0; j < tasks; ++j) {
    Task task;
    task.id = 1000 + j;
    task.location = {rng.Uniform(), rng.Uniform()};
    task.create_time = 0.0;
    task.deadline = 1.0 + 2.0 * rng.Uniform();
    task.capacity = 3 + static_cast<int>(rng.UniformInt(3));
    population.tasks.push_back(task);
  }
  rng.Shuffle(population.workers);
  population.coop = CooperationMatrix(m);
  for (int i = 0; i < m; ++i) {
    for (int k = i + 1; k < m; ++k) {
      population.coop.SetSymmetric(i, k, rng.Uniform());
    }
  }
  return population;
}

/// The instance over the workers `keep` admits, in population order.
Instance MakeBatch(const Population& population,
                   const std::function<bool(const Worker&)>& keep) {
  std::vector<Worker> workers;
  std::vector<int> ids;
  for (const Worker& worker : population.workers) {
    if (!keep(worker)) continue;
    workers.push_back(worker);
    ids.push_back(static_cast<int>(worker.id));
  }
  Instance instance(std::move(workers), population.tasks,
                    population.coop.View(std::move(ids)), /*now=*/0.0,
                    /*min_group_size=*/3);
  instance.ComputeValidPairs();
  return instance;
}

/// Task id per worker id (-1 idle) for every worker of `instance`.
std::vector<std::pair<int64_t, int64_t>> PairsById(
    const Instance& instance, const Assignment& assignment) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const TaskIndex t = assignment.TaskOf(w);
    pairs.emplace_back(
        instance.workers()[static_cast<size_t>(w)].id,
        t == kNoTask ? -1 : instance.tasks()[static_cast<size_t>(t)].id);
  }
  return pairs;
}

TEST(IdleWorkersTest, AddingWorkersWithoutAValidPairChangesNothing) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const int active : {0, 6, 10, 40}) {
      const int idle = 3 + static_cast<int>(seed % 4) * 2;
      const Population population =
          MakePopulation(active, idle, 5 + static_cast<int>(seed % 3) * 3,
                         seed * 101 + static_cast<uint64_t>(active));
      const int m = active + idle;
      const Instance full =
          MakeBatch(population, [](const Worker&) { return true; });
      // The compacted batch: exactly the workers with a valid pair.
      std::vector<char> has_pair(static_cast<size_t>(m), 0);
      int with_pair = 0;
      for (WorkerIndex w = 0; w < full.num_workers(); ++w) {
        if (full.ValidTasks(w).empty()) continue;
        has_pair[static_cast<size_t>(
            full.workers()[static_cast<size_t>(w)].id)] = 1;
        ++with_pair;
      }
      const Instance compact = MakeBatch(population, [&](const Worker& w) {
        return has_pair[static_cast<size_t>(w.id)] != 0;
      });
      ASSERT_EQ(compact.num_workers(), with_pair);
      ASSERT_EQ(compact.NumValidPairs(), full.NumValidPairs());
      if (active == 0) {
        ASSERT_EQ(compact.num_workers(), 0);
      }

      for (const SolverCase& solver : AllSolvers()) {
        if (m > solver.max_workers) continue;
        const std::string label = solver.name + " seed=" +
                                  std::to_string(seed) +
                                  " active=" + std::to_string(active);
        const Assignment a_full = solver.solve(full);
        const Assignment a_compact = solver.solve(compact);
        ASSERT_TRUE(a_full.Validate(full).ok()) << label;
        ASSERT_TRUE(a_compact.Validate(compact).ok()) << label;
        std::vector<std::pair<int64_t, int64_t>> expected;
        for (const auto& pair : PairsById(full, a_full)) {
          if (has_pair[static_cast<size_t>(pair.first)] != 0) {
            expected.push_back(pair);
          } else {
            ASSERT_EQ(pair.second, -1) << label << ": idle worker assigned";
          }
        }
        EXPECT_EQ(PairsById(compact, a_compact), expected) << label;
        EXPECT_EQ(std::bit_cast<uint64_t>(TotalScore(full, a_full)),
                  std::bit_cast<uint64_t>(TotalScore(compact, a_compact)))
            << label;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 200);
}

// ---------------------------------------------------------------------------
// Streaming runs reproduce the outputs recorded before compaction.
// ---------------------------------------------------------------------------

/// Per-batch output of a streaming run: score bits, assigned workers,
/// started tasks and the idle-pool size |W(phi)|.
struct BatchRow {
  uint64_t score_bits;
  int assigned;
  int started;
  int pool;

  bool operator==(const BatchRow&) const = default;
};

std::vector<BatchRow> Rows(const RunSummary& summary) {
  std::vector<BatchRow> rows;
  for (const BatchMetrics& batch : summary.batches) {
    rows.push_back({std::bit_cast<uint64_t>(batch.score),
                    batch.assigned_workers, batch.completed_tasks,
                    batch.num_workers});
  }
  return rows;
}

/// Prints `rows` as a pasteable initializer when they differ from the
/// pinned ones, so a deliberate output change can be re-pinned.
void ExpectRows(const std::vector<BatchRow>& expected,
                const std::vector<BatchRow>& actual,
                const std::string& label) {
  EXPECT_EQ(expected.size(), actual.size()) << label;
  const bool same = expected == actual;
  EXPECT_TRUE(same) << label << ": per-batch outputs moved";
  if (same) return;
  std::string dump;
  for (const BatchRow& row : actual) {
    char line[96];
    std::snprintf(line, sizeof(line), "      {0x%016llxULL, %d, %d, %d},\n",
                  static_cast<unsigned long long>(row.score_bits),
                  row.assigned, row.started, row.pool);
    dump += line;
  }
  ADD_FAILURE() << label << " actual rows:\n" << dump;
}

/// A small carry-over trace in the net-sharded family: wide working
/// areas and slow workers, so most of the idle pool has no valid pair
/// in any given batch and carries over to the next.
Trace CarryOverTrace(uint64_t seed, int num_skills) {
  TraceConfig config;
  config.horizon = 24.0;
  config.worker_rate = 14.0;
  config.task_rate = 5.0;
  config.rush_windows.push_back({0.0, 4.0, 3.0});
  config.worker.radius_min = 0.3;
  config.worker.radius_max = 0.45;
  config.worker.speed_min = 0.015;
  config.worker.speed_max = 0.03;
  config.task.remaining_time = 10.0;
  config.task.capacity = 4;
  config.worker.num_skills = num_skills;
  config.worker.skills_per_worker = 2;
  config.task.num_skills = num_skills;
  config.task.skills_per_task = 2;
  Rng rng(seed);
  return GenerateTrace(config, &rng);
}

DispatchConfig StreamConfig(int shards_per_side) {
  DispatchConfig config;
  config.sharded.shards_per_side = shards_per_side;
  config.sharded.num_threads = 2;
  config.min_group_size = 3;
  config.task_duration = 2.0;
  config.max_tasks_per_batch = 12;
  return config;
}

std::vector<BatchRow> RunPinned(const Trace& trace, DispatchConfig config,
                                AssignerFactory factory,
                                bool distributed = false) {
  const EventStream stream(trace.workers, trace.tasks);
  const CooperationMatrix coop = CooperationMatrix::Procedural(
      static_cast<int>(stream.num_workers()), 77);
  DispatchService service(config, &coop, factory);
  std::unique_ptr<NetShardedAssigner> net;
  if (distributed) {
    DistributedConfig dist;
    dist.num_nodes = 4;  // zero-fault network
    net = std::make_unique<NetShardedAssigner>(config.sharded, dist, factory);
    service.set_batch_solver(net.get());
  }
  return Rows(service.Run(stream));
}

AssignerFactory Gt() {
  return [] { return std::make_unique<GtAssigner>(); };
}

TEST(PinnedStreamTest, TpgUnsharded) {
  const std::vector<BatchRow> expected = {
      {0x40261710f09480b6ULL, 19, 6, 40},
      {0x403212e46d51b33fULL, 25, 7, 69},
      {0x4038c55718ab0598ULL, 36, 10, 111},
      {0x403b3d1fadf39127ULL, 39, 10, 136},
      {0x403d1bad30febcc2ULL, 39, 10, 144},
      {0x403bd89cf85e016eULL, 40, 10, 157},
      {0x403d191b51a2def4ULL, 43, 11, 176},
      {0x403ee97471eed4c8ULL, 39, 10, 184},
      {0x40317c1fa4b38ae1ULL, 20, 5, 203},
      {0x402b0cec14a08360ULL, 16, 4, 239},
      {0x401c301016be2568ULL, 8, 2, 249},
      {0x402aeeec22972f97ULL, 16, 4, 268},
      {0x4025552e8297042cULL, 12, 3, 270},
      {0x4030d0eb6d19d14cULL, 20, 5, 292},
      {0x40384a7e6307cfdbULL, 28, 7, 298},
      {0x4034d98ddc0350e0ULL, 24, 6, 306},
      {0x4024ab98a5f6b98bULL, 12, 3, 319},
      {0x403c4c074893778eULL, 32, 8, 342},
      {0x402c29c9db6d5e19ULL, 16, 4, 336},
      {0x40322f3add50217eULL, 20, 5, 367},
      {0x402580e7a20e6ec9ULL, 12, 3, 380},
      {0x4038265af7392887ULL, 28, 7, 397},
      {0x402c339dfdb00e99ULL, 16, 4, 394},
      {0x401bbf4bd111af12ULL, 8, 2, 416},
  };
  ExpectRows(expected,
             RunPinned(CarryOverTrace(3, 0), StreamConfig(1),
                       [] { return std::make_unique<TpgAssigner>(); }),
             "tpg s=1");
}

TEST(PinnedStreamTest, GtWarmSharded) {
  const std::vector<BatchRow> expected = {
      {0x4028513f9433a9a8ULL, 21, 6, 43},
      {0x4034d5e943eee1e3ULL, 31, 8, 76},
      {0x403e883aa6f520c9ULL, 44, 11, 103},
      {0x40421d2c31ddee76ULL, 48, 12, 122},
      {0x40414108f6ad8772ULL, 43, 11, 138},
      {0x403e051534928245ULL, 40, 10, 162},
      {0x4040c7bd2161ad7fULL, 44, 11, 174},
      {0x404184ad8d0b9744ULL, 44, 11, 184},
      {0x4039c9f6aef545aaULL, 32, 8, 200},
      {0x402a7ad3a614a8d9ULL, 16, 4, 223},
      {0x4037f066b2fbde75ULL, 28, 7, 248},
      {0x402422b07fc6d425ULL, 12, 3, 252},
      {0x402b9f32fb908d23ULL, 16, 4, 287},
      {0x4024ce2d51b1cdafULL, 12, 3, 297},
      {0x402c6f7df648d21dULL, 16, 4, 306},
      {0x401b47ae0c29c7b8ULL, 8, 2, 311},
      {0x402d088b804f7fb7ULL, 16, 4, 337},
      {0x402bee9ce93b15d1ULL, 16, 4, 340},
      {0x402c16a58ae4cb27ULL, 16, 4, 357},
      {0x4024dc5b97a68498ULL, 12, 3, 375},
      {0x400b466d4217ca84ULL, 4, 1, 393},
      {0x4035811d5adb665eULL, 24, 6, 417},
      {0x40356585a75ce19bULL, 24, 6, 408},
      {0x4038cb4f371338a2ULL, 28, 7, 418},
  };
  ExpectRows(expected, RunPinned(CarryOverTrace(5, 0), StreamConfig(4), Gt()),
             "gt warm s=4");
}

TEST(PinnedStreamTest, ZeroFaultNetSharded) {
  const std::vector<BatchRow> expected = {
      {0x4028513f9433a9a8ULL, 21, 6, 43},
      {0x4034d5e943eee1e3ULL, 31, 8, 76},
      {0x403e883aa6f520c9ULL, 44, 11, 103},
      {0x40421d2c31ddee76ULL, 48, 12, 122},
      {0x40414108f6ad8772ULL, 43, 11, 138},
      {0x403e051534928245ULL, 40, 10, 162},
      {0x4040c7bd2161ad7fULL, 44, 11, 174},
      {0x404184ad8d0b9744ULL, 44, 11, 184},
      {0x4039c9f6aef545aaULL, 32, 8, 200},
      {0x402a7ad3a614a8d9ULL, 16, 4, 223},
      {0x4037f066b2fbde75ULL, 28, 7, 248},
      {0x402422b07fc6d425ULL, 12, 3, 252},
      {0x402b9f32fb908d23ULL, 16, 4, 287},
      {0x4024ce2d51b1cdafULL, 12, 3, 297},
      {0x402c6f7df648d21dULL, 16, 4, 306},
      {0x401b47ae0c29c7b8ULL, 8, 2, 311},
      {0x402d088b804f7fb7ULL, 16, 4, 337},
      {0x402bee9ce93b15d1ULL, 16, 4, 340},
      {0x402c16a58ae4cb27ULL, 16, 4, 357},
      {0x4024dc5b97a68498ULL, 12, 3, 375},
      {0x400b466d4217ca84ULL, 4, 1, 393},
      {0x4035811d5adb665eULL, 24, 6, 417},
      {0x40356585a75ce19bULL, 24, 6, 408},
      {0x4038cb4f371338a2ULL, 28, 7, 418},
  };
  ExpectRows(expected,
             RunPinned(CarryOverTrace(5, 0), StreamConfig(4), Gt(),
                       /*distributed=*/true),
             "net s=4");
}

TEST(PinnedStreamTest, MultiskillSharded) {
  DispatchConfig config = StreamConfig(2);
  config.objective = "multiskill";
  const std::vector<BatchRow> expected = {
      {0x4022e64fb5899fd4ULL, 22, 4, 43},
      {0x402ac317f2608e23ULL, 28, 5, 72},
      {0x4036db252e59d23fULL, 38, 9, 110},
      {0x4035b960c9f632d0ULL, 40, 8, 146},
      {0x403ac73386c524abULL, 45, 9, 165},
      {0x40312b1492d5d8e5ULL, 35, 6, 171},
      {0x40318b99b0f818a6ULL, 30, 6, 200},
      {0x402b8db829a43c99ULL, 25, 5, 217},
      {0x4024e341a5df4f21ULL, 25, 4, 232},
      {0x403183e212bdc418ULL, 30, 6, 251},
      {0x40330663954439e8ULL, 27, 7, 259},
      {0x4041f7350682ed0dULL, 44, 11, 270},
      {0x4040a1b9a4b5cd84ULL, 40, 10, 265},
      {0x403430810521ffc2ULL, 24, 6, 282},
      {0x403df777824fd1cdULL, 36, 9, 311},
      {0x4043247bb6e11ef0ULL, 44, 11, 310},
      {0x4030fa2e69af77b6ULL, 20, 5, 322},
      {0x402bcccade3ef8e5ULL, 16, 4, 359},
      {0x4030834bb319bd2cULL, 20, 5, 384},
      {0x402c5d2ba258a569ULL, 16, 4, 395},
      {0x403c65d0d98344ebULL, 32, 8, 416},
      {0x4031cfbe8cfd1be8ULL, 20, 5, 415},
      {0x40254337eef6b62fULL, 12, 3, 438},
      {0x4025bd98afd84446ULL, 12, 3, 458},
  };
  ExpectRows(expected, RunPinned(CarryOverTrace(9, 6), config, Gt()),
             "multiskill s=2");
}

// ---------------------------------------------------------------------------
// The warm gate counts carried workers the batch leaves out.
// ---------------------------------------------------------------------------

/// Batch 0 solves one far-off worker (no valid pair) against a standing
/// task; at batch 1 three fresh workers arrive next to the task. The
/// only carried worker is inactive and every active worker is fresh, yet
/// the batch warm-starts — exactly as when the idle worker sat in the
/// instance. `idle_x` places the carried worker in the arrivals' shard
/// (top-left quarter) or in another one (top-right) of an S = 2 split.
RunSummary RunCarriedIdleStream(int shards_per_side, double idle_x) {
  const std::vector<Worker> workers = {
      {0, {idle_x, 0.95}, 0.5, 0.05, 0.0},
      {1, {0.2, 0.8}, 0.5, 0.1, 1.0},
      {2, {0.21, 0.8}, 0.5, 0.1, 1.0},
      {3, {0.2, 0.81}, 0.5, 0.1, 1.0},
  };
  const std::vector<Task> tasks = {
      {100, {0.2, 0.8}, 0.0, 9.0, 3},
      {101, {0.7, 0.7}, 6.0, 5.5, 3},  // expired on arrival (horizon pad)
  };
  CooperationMatrix coop(4);
  for (int i = 0; i < 4; ++i) {
    for (int k = i + 1; k < 4; ++k) coop.SetSymmetric(i, k, 0.6);
  }
  DispatchConfig config = StreamConfig(shards_per_side);
  config.max_tasks_per_batch = 0;
  DispatchService service(config, &coop, Gt());
  return service.Run(EventStream(workers, tasks));
}

TEST(CarriedIdleTest, InactiveCarriedWorkerKeepsTheBatchWarm) {
  for (const int side : {1, 2}) {
    const RunSummary summary = RunCarriedIdleStream(side, 0.1);
    ASSERT_GE(summary.batches.size(), 2u) << "s=" << side;
    EXPECT_FALSE(summary.batches[0].warm_started) << "s=" << side;
    EXPECT_EQ(summary.batches[0].num_workers, 1) << "s=" << side;
    EXPECT_EQ(summary.batches[0].valid_pairs, 0) << "s=" << side;
    EXPECT_TRUE(summary.batches[1].warm_started) << "s=" << side;
    EXPECT_EQ(summary.batches[1].num_workers, 4) << "s=" << side;
  }
  // The carried worker homes in the other shard: the arrivals' shard
  // has nothing carried and solves cold.
  const RunSummary other = RunCarriedIdleStream(2, 0.9);
  ASSERT_GE(other.batches.size(), 2u);
  EXPECT_FALSE(other.batches[1].warm_started);
}

TEST(CarriedIdleTest, PinnedOutputs) {
  const std::vector<std::pair<int, double>> layouts = {
      {1, 0.1}, {2, 0.1}, {2, 0.9}};
  const std::vector<std::vector<BatchRow>> expected = {
      {
          {0x0000000000000000ULL, 0, 0, 1},
          {0x0000000000000000ULL, 0, 0, 4},
          {0x0000000000000000ULL, 0, 0, 4},
          {0x3ffcccccccccccccULL, 3, 1, 4},
      },
      {
          {0x0000000000000000ULL, 0, 0, 1},
          {0x0000000000000000ULL, 0, 0, 4},
          {0x0000000000000000ULL, 0, 0, 4},
          {0x3ffcccccccccccccULL, 3, 1, 4},
      },
      {
          {0x0000000000000000ULL, 0, 0, 1},
          {0x3ffcccccccccccccULL, 3, 1, 4},
      },
  };
  for (size_t i = 0; i < layouts.size(); ++i) {
    ExpectRows(expected[i],
               Rows(RunCarriedIdleStream(layouts[i].first,
                                         layouts[i].second)),
               "carried idle layout " + std::to_string(i));
  }
}

}  // namespace
}  // namespace casc
