#include "bench_util/settings.h"

#include "common/strings.h"

namespace casc {

Status ExperimentSettings::Validate() const {
  if (num_workers < 0) {
    return Status::InvalidArgument("worker count must be >= 0, got " +
                                   std::to_string(num_workers));
  }
  if (num_tasks < 0) {
    return Status::InvalidArgument("task count must be >= 0, got " +
                                   std::to_string(num_tasks));
  }
  if (min_group_size < 2) {
    return Status::InvalidArgument(
        "minimum group size B must be >= 2 (Equation 2 divides by B - 1), "
        "got " + std::to_string(min_group_size));
  }
  if (capacity < min_group_size) {
    return Status::InvalidArgument(
        "task capacity a_j (" + std::to_string(capacity) +
        ") must be >= the minimum group size B (" +
        std::to_string(min_group_size) + ")");
  }
  if (!(speed_min_pct >= 0.0 && speed_min_pct <= speed_max_pct)) {
    return Status::InvalidArgument("speed range must satisfy 0 <= v- <= v+");
  }
  if (!(radius_min_pct >= 0.0 && radius_min_pct <= radius_max_pct)) {
    return Status::InvalidArgument("radius range must satisfy 0 <= r- <= r+");
  }
  if (!(remaining_time >= 0.0)) {
    return Status::InvalidArgument("remaining time tau_j must be >= 0");
  }
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  if (rounds < 0) {
    return Status::InvalidArgument("rounds R must be >= 0");
  }
  return Status::Ok();
}

WorkerGenConfig ExperimentSettings::MakeWorkerConfig() const {
  WorkerGenConfig config;
  config.spatial.distribution = distribution;
  config.speed_min = speed_min_pct / 100.0;
  config.speed_max = speed_max_pct / 100.0;
  config.radius_min = radius_min_pct / 100.0;
  config.radius_max = radius_max_pct / 100.0;
  return config;
}

TaskGenConfig ExperimentSettings::MakeTaskConfig() const {
  TaskGenConfig config;
  config.spatial.distribution = distribution;
  config.remaining_time = remaining_time;
  config.capacity = capacity;
  return config;
}

SyntheticInstanceConfig ExperimentSettings::MakeSyntheticConfig() const {
  SyntheticInstanceConfig config;
  config.num_workers = num_workers;
  config.num_tasks = num_tasks;
  config.min_group_size = min_group_size;
  config.worker = MakeWorkerConfig();
  config.task = MakeTaskConfig();
  config.quality_model = QualityModel::kUniform;
  return config;
}

MeetupLikeConfig ExperimentSettings::MakeMeetupConfig() const {
  return MeetupLikeConfig{};  // the paper's HK slice shape
}

std::string ExperimentSettings::ToString() const {
  std::string out;
  out += "a_j=" + std::to_string(capacity);
  out += " [v-,v+]=[" + FormatDouble(speed_min_pct, 0) + "," +
         FormatDouble(speed_max_pct, 0) + "]%";
  out += " [r-,r+]=[" + FormatDouble(radius_min_pct, 0) + "," +
         FormatDouble(radius_max_pct, 0) + "]%";
  out += " tau=" + FormatDouble(remaining_time, 0);
  out += " eps=" + FormatDouble(epsilon, 2);
  out += " m=" + std::to_string(num_workers);
  out += " n=" + std::to_string(num_tasks);
  out += " R=" + std::to_string(rounds);
  out += " B=" + std::to_string(min_group_size);
  out += distribution == LocationDistribution::kSkewed ? " SKEW" : " UNIF";
  out += " seed=" + std::to_string(seed);
  return out;
}

}  // namespace casc
