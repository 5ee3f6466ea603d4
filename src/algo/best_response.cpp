#include "algo/best_response.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/check.h"
#include "model/objective.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Strict-improvement threshold guarding against floating-point ping-pong
/// in the best-response loop.
constexpr double kImprovementTolerance = 1e-12;

}  // namespace

double StrategyUtility(const Instance& instance,
                       const Assignment& assignment, WorkerIndex w,
                       TaskIndex t, WorkerIndex* crowded_out) {
  if (crowded_out != nullptr) *crowded_out = kNoWorker;
  if (t == kNoTask) return 0.0;

  // W_t = the other workers currently playing t, plus w.
  std::vector<WorkerIndex> group;
  group.reserve(assignment.GroupOf(t).size() + 1);
  for (const WorkerIndex member : assignment.GroupOf(t)) {
    if (member != w) group.push_back(member);
  }
  const std::vector<WorkerIndex> others = group;  // W_t \ {w}
  group.push_back(w);

  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  if (static_cast<int>(group.size()) <= capacity) {
    return GroupScore(instance, t, group) -
           GroupScore(instance, t, others);
  }

  // Overfull: Equation 2 pays only the best a_t-subset of W_t. The member
  // left out of that subset is the crowded-out worker.
  const std::vector<WorkerIndex> best =
      BestSubset(instance.coop(), group, capacity);
  if (crowded_out != nullptr) {
    for (const WorkerIndex member : group) {
      if (std::find(best.begin(), best.end(), member) == best.end()) {
        *crowded_out = member;
        break;
      }
    }
  }
  return GroupScore(instance, t, group) - GroupScore(instance, t, others);
}

BestResponse ComputeBestResponse(const Instance& instance,
                                 const Assignment& assignment,
                                 WorkerIndex w) {
  const TaskIndex current = assignment.TaskOf(w);
  BestResponse best;
  // Seed with the current strategy so ties keep the worker in place.
  best.task = current;
  best.utility =
      StrategyUtility(instance, assignment, w, current, &best.crowded_out);

  // The strategy space is the *feasible* valid tasks (plus staying and
  // idling): objectives with a non-trivial join predicate restrict the
  // deviations a worker may even consider. IsNashEquilibrium applies the
  // same filter, so the equilibrium notion stays consistent.
  const ObjectiveModel& objective = instance.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();
  for (const TaskIndex t : instance.ValidTasks(w)) {
    if (t == current) continue;
    if (filter_joins &&
        !objective.JoinFeasible(instance, t, assignment.GroupOf(t), w)) {
      continue;
    }
    WorkerIndex crowded = kNoWorker;
    const double utility =
        StrategyUtility(instance, assignment, w, t, &crowded);
    if (utility > best.utility + kImprovementTolerance) {
      best.task = t;
      best.utility = utility;
      best.crowded_out = crowded;
    }
  }
  // Idling beats a negative current utility (cannot happen with
  // non-negative qualities, but keeps the game well-defined).
  if (0.0 > best.utility + kImprovementTolerance) {
    best = BestResponse{kNoTask, 0.0, kNoWorker};
  }
  return best;
}

double StrategyUtility(const Instance& instance, const ScoreKeeper& keeper,
                       const Assignment& assignment, WorkerIndex w,
                       TaskIndex t, WorkerIndex* crowded_out) {
  if (crowded_out != nullptr) *crowded_out = kNoWorker;
  if (t == kNoTask) return 0.0;

  if (assignment.TaskOf(w) == t) {
    // U_i = Q(W_t) - Q(W_t \ {w_i}): exactly the leaving marginal.
    return keeper.LossIfLeft(w, t);
  }

  const std::span<const WorkerIndex> others = keeper.GroupOf(t);
  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  if (static_cast<int>(others.size()) < capacity) {
    return keeper.GainIfJoined(w, t);
  }

  // Overfull: Equation 2 pays only the best a_t-subset of W_t ∪ {w}. The
  // pre-join score is already cached; only the joined group needs the
  // BestSubset fallback.
  std::vector<WorkerIndex> group(others.begin(), others.end());
  group.push_back(w);
  const std::vector<WorkerIndex> best =
      BestSubset(instance.coop(), group, capacity);
  if (crowded_out != nullptr) {
    for (const WorkerIndex member : group) {
      if (std::find(best.begin(), best.end(), member) == best.end()) {
        *crowded_out = member;
        break;
      }
    }
  }
  double joined_score = 0.0;
  if (static_cast<int>(group.size()) >= instance.min_group_size()) {
    // The surviving subset is scored by the objective (a crowd-out can
    // break skill coverage); for the default objective this is exactly
    // the historical PairSum(best) / (capacity - 1).
    joined_score = instance.objective().ScoreGroup(
        instance, t, best, kNoWorker, kNoWorker,
        instance.coop().PairSum(best), capacity);
  }
  return joined_score - keeper.TaskScore(t);
}

BestResponse ComputeBestResponse(const Instance& instance,
                                 const ScoreKeeper& keeper,
                                 const Assignment& assignment,
                                 WorkerIndex w) {
  return ComputeBestResponse(instance, keeper, assignment, w,
                             /*prune=*/false, /*counters=*/nullptr);
}

bool PruningDisabledByEnv() {
  static const bool kDisabled = std::getenv("CASC_NO_PRUNE") != nullptr;
  return kDisabled;
}

namespace {

/// CASC_PRUNE_AUDIT: evaluate every pruned candidate anyway and CHECK
/// it could not have beaten the incumbent (read once per process).
bool PruneAuditEnabled() {
  static const bool kAudit = std::getenv("CASC_PRUNE_AUDIT") != nullptr;
  return kAudit;
}

}  // namespace

BestResponse ComputeBestResponse(const Instance& instance,
                                 const ScoreKeeper& keeper,
                                 const Assignment& assignment, WorkerIndex w,
                                 bool prune, PruneCounters* counters) {
  const TaskIndex current = assignment.TaskOf(w);
  BestResponse best;
  best.task = current;
  best.utility = StrategyUtility(instance, keeper, assignment, w, current,
                                 &best.crowded_out);
  const bool do_prune = prune && !PruningDisabledByEnv();
  const ObjectiveModel& objective = instance.objective();
  // Hoisted so the default objective pays no per-candidate virtual call
  // for a predicate that is constantly true.
  const bool filter_joins = !objective.AlwaysJoinFeasible();
  const auto join_feasible = [&](TaskIndex t) {
    if (!filter_joins) return true;
    if (objective.JoinFeasible(instance, t, keeper.GroupOf(t), w)) {
      return true;
    }
    if (counters != nullptr) ++counters->feasibility_rejects;
    return false;
  };

  for (const TaskIndex t : instance.ValidTasks(w)) {
    if (t == current) continue;
    if (!join_feasible(t)) continue;
    const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
    if (do_prune && static_cast<int>(keeper.GroupOf(t).size()) < capacity) {
      // Screen: an upper bound on the joining gain that cannot beat the
      // incumbent means the unpruned scan would reject this candidate
      // here too — skipping is exactly neutral.
      const double bound = keeper.JoinBound(w, t);
      if (bound <= best.utility + kImprovementTolerance) {
        if (counters != nullptr) ++counters->pruned;
        if (PruneAuditEnabled()) {
          const double exact = keeper.GainIfJoined(w, t);
          CASC_CHECK(exact <= bound)
              << "JoinBound(" << w << ", " << t
              << ") is not an upper bound: exact=" << exact
              << " bound=" << bound;
          CASC_CHECK(exact <= best.utility + kImprovementTolerance)
              << "pruned candidate task " << t << " beats the incumbent "
              << "for worker " << w << ": exact=" << exact
              << " incumbent=" << best.utility;
        }
        continue;
      }
    }
    WorkerIndex crowded = kNoWorker;
    const double utility =
        StrategyUtility(instance, keeper, assignment, w, t, &crowded);
    if (counters != nullptr) ++counters->evaluated;
    if (utility > best.utility + kImprovementTolerance) {
      best.task = t;
      best.utility = utility;
      best.crowded_out = crowded;
    }
  }
  if (0.0 > best.utility + kImprovementTolerance) {
    best = BestResponse{kNoTask, 0.0, kNoWorker};
  }
  return best;
}

MoveResult ApplyMove(const Instance& instance, Assignment* assignment,
                     WorkerIndex w, TaskIndex t) {
  CASC_CHECK(assignment != nullptr);
  MoveResult result;
  result.from = assignment->TaskOf(w);
  if (t == kNoTask) {
    assignment->Unassign(w);
    return result;
  }
  CASC_CHECK(instance.IsValidPair(w, t))
      << "ApplyMove: pair (" << w << ", " << t << ") is not valid";
  assignment->Assign(w, t);
  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  if (assignment->GroupSize(t) > capacity) {
    const std::span<const WorkerIndex> overfull = assignment->GroupOf(t);
    const std::vector<WorkerIndex> group(overfull.begin(), overfull.end());
    const std::vector<WorkerIndex> best =
        BestSubset(instance.coop(), group, capacity);
    for (const WorkerIndex member : group) {
      if (std::find(best.begin(), best.end(), member) == best.end()) {
        assignment->Unassign(member);
        result.crowded_out = member;
        break;
      }
    }
    CASC_CHECK_LE(assignment->GroupSize(t), capacity);
  }
  return result;
}

MoveResult ApplyMove(const Instance& instance, Assignment* assignment,
                     ScoreKeeper* keeper, WorkerIndex w, TaskIndex t) {
  if (keeper == nullptr) return ApplyMove(instance, assignment, w, t);
  CASC_CHECK(assignment != nullptr);
  MoveResult result;
  result.from = assignment->TaskOf(w);
  if (result.from == t) return result;  // Assign(w, TaskOf(w)) is a no-op

  // Keeper updates interleave with the assignment mutations: each
  // Remove/Add must scan the group state the mirrored-keeper design saw,
  // so the eviction delta is computed before the newcomer joins and the
  // join delta after the evictee left.
  if (result.from != kNoTask) {
    keeper->Remove(w, result.from);
    assignment->Unassign(w);
  }
  if (t == kNoTask) return result;
  CASC_CHECK(instance.IsValidPair(w, t))
      << "ApplyMove: pair (" << w << ", " << t << ") is not valid";

  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  if (assignment->GroupSize(t) >= capacity) {
    // Joining would overfill: Equation 2 pays only the best a_t-subset of
    // W_t ∪ {w}; the member left out is crowded out (possibly w itself).
    const std::span<const WorkerIndex> current = assignment->GroupOf(t);
    std::vector<WorkerIndex> group(current.begin(), current.end());
    group.push_back(w);
    const std::vector<WorkerIndex> best =
        BestSubset(instance.coop(), group, capacity);
    WorkerIndex evicted = kNoWorker;
    for (const WorkerIndex member : group) {
      if (std::find(best.begin(), best.end(), member) == best.end()) {
        evicted = member;
        break;
      }
    }
    CASC_CHECK_NE(evicted, kNoWorker);
    result.crowded_out = evicted;
    if (evicted == w) return result;  // w stays out; the group is unchanged
    keeper->Remove(evicted, t);
    assignment->Unassign(evicted);
  }
  keeper->Add(w, t);
  assignment->Assign(w, t);
  return result;
}

bool IsNashEquilibrium(const Instance& instance,
                       const Assignment& assignment, double tolerance) {
  const ObjectiveModel& objective = instance.objective();
  const bool filter_joins = !objective.AlwaysJoinFeasible();
  for (WorkerIndex w = 0; w < instance.num_workers(); ++w) {
    const TaskIndex current = assignment.TaskOf(w);
    const double current_utility =
        StrategyUtility(instance, assignment, w, current, nullptr);
    for (const TaskIndex t : instance.ValidTasks(w)) {
      if (t == current) continue;
      // Deviations are restricted to objective-feasible joins — the same
      // filter ComputeBestResponse applies, so "no improving move" and
      // "equilibrium" quantify over the same strategy space.
      if (filter_joins &&
          !objective.JoinFeasible(instance, t, assignment.GroupOf(t), w)) {
        continue;
      }
      const double utility =
          StrategyUtility(instance, assignment, w, t, nullptr);
      if (utility > current_utility + tolerance) return false;
    }
    if (0.0 > current_utility + tolerance) return false;
  }
  return true;
}

}  // namespace casc
