#include "model/objective.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "model/objective_model.h"

namespace casc {
namespace {

/// Number of k-subsets of an n-set, saturating at `limit`.
int64_t BinomialCapped(int n, int k, int64_t limit) {
  if (k < 0 || k > n) return 0;
  k = std::min(k, n - k);
  int64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    result = result * (n - k + i) / i;
    if (result >= limit) return limit;
  }
  return result;
}

/// Enumerates all k-subsets, tracking the best PairSum.
void EnumerateSubsets(const CooperationMatrix& coop,
                      std::span<const WorkerIndex> group, int k,
                      size_t start, std::vector<WorkerIndex>* current,
                      double current_sum, double* best_sum,
                      std::vector<WorkerIndex>* best) {
  if (static_cast<int>(current->size()) == k) {
    if (current_sum > *best_sum) {
      *best_sum = current_sum;
      *best = *current;
    }
    return;
  }
  const int needed = k - static_cast<int>(current->size());
  for (size_t i = start; i + static_cast<size_t>(needed) <= group.size();
       ++i) {
    const WorkerIndex w = group[i];
    double added = 0.0;
    for (const WorkerIndex member : *current) {
      added += coop.Quality(member, w) + coop.Quality(w, member);
    }
    current->push_back(w);
    EnumerateSubsets(coop, group, k, i + 1, current, current_sum + added,
                     best_sum, best);
    current->pop_back();
  }
}

}  // namespace

std::vector<WorkerIndex> BestSubset(const CooperationMatrix& coop,
                                    std::span<const WorkerIndex> group,
                                    int k) {
  CASC_CHECK_GE(k, 0);
  CASC_CHECK_LE(k, static_cast<int>(group.size()));
  if (k == static_cast<int>(group.size())) {
    return std::vector<WorkerIndex>(group.begin(), group.end());
  }
  if (k == 0) return {};

  constexpr int64_t kEnumerationLimit = 20000;
  if (BinomialCapped(static_cast<int>(group.size()), k,
                     kEnumerationLimit) < kEnumerationLimit) {
    std::vector<WorkerIndex> best, current;
    double best_sum = -1.0;
    EnumerateSubsets(coop, group, k, 0, &current, 0.0, &best_sum, &best);
    return best;
  }

  // Greedy backward elimination: drop the member with the smallest total
  // affinity (incoming + outgoing) to the remaining members. Each
  // member's affinity is computed once up front (O(g^2)) and decremented
  // when a member is dropped, so every drop costs O(g) instead of the
  // naive O(g^2) rescan.
  std::vector<WorkerIndex> remaining(group.begin(), group.end());
  std::vector<double> affinity(remaining.size(), 0.0);
  for (size_t i = 0; i < remaining.size(); ++i) {
    for (size_t j = 0; j < remaining.size(); ++j) {
      if (i == j) continue;
      affinity[i] += coop.Quality(remaining[i], remaining[j]) +
                     coop.Quality(remaining[j], remaining[i]);
    }
  }
  while (static_cast<int>(remaining.size()) > k) {
    size_t worst_index = 0;
    double worst_affinity = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (affinity[i] < worst_affinity) {
        worst_affinity = affinity[i];
        worst_index = i;
      }
    }
    const WorkerIndex worst = remaining[worst_index];
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(worst_index));
    affinity.erase(affinity.begin() + static_cast<ptrdiff_t>(worst_index));
    for (size_t i = 0; i < remaining.size(); ++i) {
      affinity[i] -= coop.Quality(remaining[i], worst) +
                     coop.Quality(worst, remaining[i]);
    }
  }
  return remaining;
}

double GroupScore(const Instance& instance, TaskIndex t,
                  std::span<const WorkerIndex> group) {
  CASC_CHECK_GE(t, 0);
  CASC_CHECK_LT(t, instance.num_tasks());
  const int size = static_cast<int>(group.size());
  if (size < instance.min_group_size()) return 0.0;
  const int capacity = instance.tasks()[static_cast<size_t>(t)].capacity;
  const CooperationMatrix& coop = instance.coop();
  const ObjectiveModel& objective = instance.objective();
  if (size <= capacity) {
    return objective.ScoreGroup(instance, t, group, kNoWorker, kNoWorker,
                                coop.PairSum(group), size);
  }
  // Over capacity: only the best a_j-subset is paid (Equation 2's note).
  // Subset selection maximizes the cooperation term regardless of the
  // objective — the crowding mechanism is engine-side — but the chosen
  // subset is *scored* by the objective (a skill-gated subset can come
  // out at 0 if the crowd-out dropped the last holder of a skill).
  const std::vector<WorkerIndex> best = BestSubset(coop, group, capacity);
  return objective.ScoreGroup(instance, t, best, kNoWorker, kNoWorker,
                              coop.PairSum(best), capacity);
}

double MarginalOfMember(const Instance& instance, TaskIndex t,
                        std::span<const WorkerIndex> group, WorkerIndex w) {
  CASC_CHECK(std::find(group.begin(), group.end(), w) != group.end())
      << "MarginalOfMember: worker " << w << " not in group";
  std::vector<WorkerIndex> without;
  without.reserve(group.size() - 1);
  for (const WorkerIndex member : group) {
    if (member != w) without.push_back(member);
  }
  return GroupScore(instance, t, group) - GroupScore(instance, t, without);
}

double GainOfJoining(const Instance& instance, TaskIndex t,
                     std::span<const WorkerIndex> group, WorkerIndex w) {
  CASC_CHECK(std::find(group.begin(), group.end(), w) == group.end())
      << "GainOfJoining: worker " << w << " already in group";
  std::vector<WorkerIndex> with(group.begin(), group.end());
  with.push_back(w);
  return GroupScore(instance, t, with) - GroupScore(instance, t, group);
}

double TotalScore(const Instance& instance, const Assignment& assignment) {
  double total = 0.0;
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    total += GroupScore(instance, t, assignment.GroupOf(t));
  }
  return total;
}

bool GroupStarts(const Instance& instance, TaskIndex t,
                 std::span<const WorkerIndex> group) {
  return static_cast<int>(group.size()) >= instance.min_group_size() &&
         GroupScore(instance, t, group) > 0.0;
}

int CountStartedTasks(const Instance& instance,
                      const Assignment& assignment) {
  int started = 0;
  for (TaskIndex t = 0; t < instance.num_tasks(); ++t) {
    if (GroupStarts(instance, t, assignment.GroupOf(t))) ++started;
  }
  return started;
}

}  // namespace casc
