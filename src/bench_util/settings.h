#ifndef CASC_BENCH_UTIL_SETTINGS_H_
#define CASC_BENCH_UTIL_SETTINGS_H_

#include <string>

#include "common/status.h"
#include "gen/meetup_like.h"
#include "gen/synthetic.h"

namespace casc {

/// The experimental settings of Table II. Defaults are the paper's bold
/// values where stated and the DESIGN.md inferences otherwise (epsilon =
/// 0.05 is stated explicitly; m = 1K and n = 500 follow from the Figure
/// 7/8 discussion; B = 3 and R = 10 are stated).
///
/// Speeds and radii are the paper's percentages of the unit space: a
/// speed range of [1, 5] means v_i in [0.01, 0.05] distance per time
/// unit.
struct ExperimentSettings {
  int capacity = 4;              ///< a_j in {3,4,5,6}
  double speed_min_pct = 1.0;    ///< v- in percent
  double speed_max_pct = 5.0;    ///< v+ in percent
  double radius_min_pct = 5.0;   ///< r- in percent
  double radius_max_pct = 10.0;  ///< r+ in percent
  double remaining_time = 3.0;   ///< tau_j in {1..5} batch units
  double epsilon = 0.05;         ///< TSI threshold in {0,...,0.08}
  int num_workers = 1000;        ///< m in {500,...,5K}
  int num_tasks = 500;           ///< n in {100,...,1K}
  int rounds = 10;               ///< R = 10
  int min_group_size = 3;        ///< B = 3
  LocationDistribution distribution = LocationDistribution::kUniform;
  uint64_t seed = 42;            ///< master seed for generators

  /// Ok iff the generators and the Instance constructor accept these
  /// settings: non-negative counts, B >= 2, a_j >= B, ordered
  /// non-negative speed and radius ranges, and non-negative tau_j,
  /// epsilon and R. Callers taking settings from user input check this
  /// before MakeSource() instead of hitting a CHECK inside it.
  Status Validate() const;

  /// Worker sampling parameters implied by these settings.
  WorkerGenConfig MakeWorkerConfig() const;

  /// Task sampling parameters implied by these settings.
  TaskGenConfig MakeTaskConfig() const;

  /// Full synthetic-batch recipe implied by these settings.
  SyntheticInstanceConfig MakeSyntheticConfig() const;

  /// The Meetup-like dataset shape (Section VI-A's HK slice).
  MeetupLikeConfig MakeMeetupConfig() const;

  /// One-line rendering of all parameters, printed by every bench binary.
  std::string ToString() const;
};

}  // namespace casc

#endif  // CASC_BENCH_UTIL_SETTINGS_H_
