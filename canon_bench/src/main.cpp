// canon_bench: one run of one canonical workload.
//
//   canon_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--out DIR]
//
// --trace 0 repeats end-to-end passes until the next one would overrun
// S seconds (at least one) and reports the end-to-end metrics. --trace 1
// runs one end-to-end pass, then the traced re-drive of the same
// batches, gates it against the pass and reports the per-layer metrics;
// the Chrome trace and the layer table are written to DIR. The last line
// on stdout is one JSON object (see run.py, which wraps this binary).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "host_probe.h"
#include "seam.h"
#include "span_trace.h"
#include "traced_drive.h"
#include "workloads.h"

extern char** environ;

namespace canon {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* rest = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &rest, 10);
      if (*rest != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &rest);
      if (*rest != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (key == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->trace >= 0;
}

/// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - std::floor(pos));
}

std::string Num(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << (std::isfinite(value) ? value : 0.0);
  return out.str();
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-batch sanity of a seam reading.
std::string CheckOutcome(const BatchOutcome& o, int min_group_size) {
  if (!std::isfinite(o.score) || o.score < 0.0) return "score not finite";
  if (o.started < 0 || o.started > o.tasks) return "started out of range";
  if (o.assigned < 0 || o.assigned > o.workers) {
    return "assigned out of range";
  }
  if (static_cast<int64_t>(o.started) * min_group_size > o.assigned) {
    return "more started tasks than assigned workers allow";
  }
  return "";
}

int MinGroupSize(const WorkloadSpec& spec) {
  return spec.kind == Kind::kPaper ? spec.paper.min_group_size
                                   : spec.dispatch.min_group_size;
}

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::ostringstream context;  // extra JSON members
};

constexpr size_t kMinTimedBatches = 100;

void RunEndToEnd(const Workload& workload, const Args& args,
                 RunOutput* out) {
  const WorkloadSpec& spec = workload.spec();
  std::vector<PassResult> passes;
  const double start = NowSeconds();
  for (;;) {
    const double before = NowSeconds();
    passes.push_back(workload.RunPass());
    const double pass_seconds = NowSeconds() - before;
    if (NowSeconds() - start + pass_seconds > args.seconds) break;
  }

  std::vector<double> setups;
  double probe_wall = 0.0;
  for (int i = 0; i < spec.setup_probes; ++i) {
    const double before = NowSeconds();
    setups.push_back(workload.RunPass(/*setup_probe=*/true).setup_seconds);
    probe_wall += NowSeconds() - before;
  }

  const PassResult& first = passes.front();
  std::vector<double> cycles_ms;
  double cycle_sum = 0.0;
  int64_t fed = 0;
  double heap_max = 0.0;
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pass = passes[p];
    const int64_t batches = static_cast<int64_t>(pass.outcomes.size());
    out->attempted += batches;
    std::string pass_failure;
    if (pass.cycle_seconds.size() != pass.outcomes.size() ||
        pass.summary_scores.size() != pass.outcomes.size()) {
      pass_failure = "seam saw a different batch count than RunSummary";
    } else if (pass.outcomes.size() < kMinTimedBatches) {
      pass_failure = "fewer than 100 timed batches";
    } else if (p > 0 && pass.outcomes != first.outcomes) {
      pass_failure = "outputs differ from pass 0 (not deterministic)";
    }
    if (!pass_failure.empty()) {
      out->failed += batches;
      out->failures.push_back("pass " + std::to_string(p) + ": " +
                              pass_failure);
    } else {
      for (size_t b = 0; b < pass.outcomes.size(); ++b) {
        std::string failure = CheckOutcome(pass.outcomes[b],
                                           MinGroupSize(spec));
        if (failure.empty() &&
            pass.outcomes[b].score != pass.summary_scores[b]) {
          failure = "seam score differs from RunSummary";
        }
        if (!failure.empty()) {
          ++out->failed;
          out->failures.push_back("pass " + std::to_string(p) + " batch " +
                                  std::to_string(b) + ": " + failure);
        }
      }
    }
    for (const double c : pass.cycle_seconds) {
      cycles_ms.push_back(c * 1e3);
      cycle_sum += c;
    }
    setups.push_back(pass.setup_seconds);
    fed += pass.workers_fed + pass.tasks_fed;
    heap_max = std::max(heap_max, pass.heap_max_bytes);
  }

  double score = 0.0;
  int64_t started = 0;
  for (const BatchOutcome& o : first.outcomes) {
    score += o.score;
    started += o.started;
  }
  out->metrics = {
      {"batch_ms_p50", Percentile(cycles_ms, 0.5), "ms"},
      {"batch_ms_p90", Percentile(cycles_ms, 0.9), "ms"},
      {"arrivals_per_s", static_cast<double>(fed) / cycle_sum, "1/s"},
      {"score", score, "Q"},
      {"completed_ratio",
       static_cast<double>(started) / static_cast<double>(first.tasks_fed),
       "ratio"},
      {"setup_s", Percentile(setups, 0.5), "s"},
      {"heap_mb", heap_max / 1e6, "MB"},
  };

  out->context << ",\"passes\":" << passes.size()
               << ",\"batches_per_pass\":" << first.outcomes.size()
               << ",\"timed_batches\":" << cycles_ms.size()
               << ",\"workers_fed\":" << first.workers_fed
               << ",\"tasks_fed\":" << first.tasks_fed
               << ",\"summary_completed_per_task\":"
               << Num(static_cast<double>(first.summary_completed_tasks) /
                      static_cast<double>(first.tasks_fed))
               << ",\"ingest_threads\":" << first.ingest_threads
               << ",\"setup_probe_wall_s\":" << Num(probe_wall)
               << ",\"cycle_ms_quantiles\":[";
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    out->context << (q > 0.0 ? "," : "") << Num(Percentile(cycles_ms, q));
  }
  out->context << "],\"pass_wall_s\":[";
  for (size_t p = 0; p < passes.size(); ++p) {
    out->context << (p > 0 ? "," : "") << Num(passes[p].wall_seconds);
  }
  out->context << "],\"setup_s_samples\":[";
  for (size_t p = 0; p < setups.size(); ++p) {
    out->context << (p > 0 ? "," : "") << Num(setups[p]);
  }
  out->context << "]";
}

/// The per-layer metrics, in BENCHMARK.json order: the self time per
/// batch of the span `span`, or (span null) the traced drive's counter
/// of the same name.
struct LayerMetric {
  const char* name;
  const char* span;
  const char* unit;
};

const LayerMetric kLayerMetrics[] = {
    {"sim.ingest.ms", "sim.ingest", "ms/batch"},
    {"sim.ingest.arrivals", nullptr, "count"},
    {"sim.ingest.spliced", nullptr, "count"},
    {"sim.ingest.fresh", nullptr, "count"},
    {"pipeline.join_wait.ms", "pipeline.join_wait", "ms/batch"},
    {"sim.admit.ms", "sim.admit", "ms/batch"},
    {"sim.materialize.ms", "sim.materialize", "ms/batch"},
    {"sim.materialize.workers", nullptr, "count"},
    {"model.instance.ms", "model.instance", "ms/batch"},
    {"sim.valid_pairs.ms", "sim.valid_pairs", "ms/batch"},
    {"sim.valid_pairs.pairs", nullptr, "count"},
    {"sim.active_ratio", nullptr, "ratio"},
    {"sim.commit.ms", "sim.commit", "ms/batch"},
    {"sim.solve_delta.ms", "sim.solve_delta", "ms/batch"},
    {"sim.dirty_workers", nullptr, "count"},
    {"service.partition.ms", "service.partition", "ms/batch"},
    {"service.boundary_workers", nullptr, "count"},
    {"service.phase1.ms", "service.phase1", "ms/batch"},
    {"service.phase1.skew", nullptr, "ratio"},
    {"service.reconcile.ms", "service.reconcile", "ms/batch"},
    {"service.reconcile.moves", nullptr, "count"},
    {"algo.solve.ms", "algo.solve", "ms/batch"},
    {"algo.rounds", nullptr, "count"},
    {"algo.moves", nullptr, "count"},
    {"algo.prune_skip_ratio", nullptr, "ratio"},
    {"algo.feasibility_rejects", nullptr, "count"},
    {"kernel.tile_build.ms", "kernel.tile_build", "ms/batch"},
    {"net.solve.ms", "net.solve", "ms/batch"},
    {"net.overhead_ratio", nullptr, "ratio"},
    {"net.messages", nullptr, "count"},
    {"net.bytes", nullptr, "count"},
    {"net.retries", nullptr, "count"},
    {"model.score.ms", "model.score", "ms/batch"},
    {"trace.coverage", nullptr, "ratio"},
    {"trace.overhead", nullptr, "ratio"},
};

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
}

void RunTracedMode(const Workload& workload, const Args& args,
                   RunOutput* out) {
  const PassResult pass = workload.RunPass();
  Tracer tracer;
  const TracedRun traced = RunTraced(workload, &tracer);
  const int64_t batches = static_cast<int64_t>(traced.outcomes.size());
  out->attempted = std::max<int64_t>(batches, 1);
  out->failures = traced.failures;
  if (traced.outcomes.size() != pass.outcomes.size()) {
    out->failures.push_back("traced run solved " + std::to_string(batches) +
                            " batches, the end-to-end pass " +
                            std::to_string(pass.outcomes.size()));
  } else {
    for (size_t b = 0; b < traced.outcomes.size(); ++b) {
      if (!(traced.outcomes[b] == pass.outcomes[b])) {
        out->failures.push_back(
            "batch " + std::to_string(b) +
            ": traced score/assigned/started differ from the end-to-end run");
      }
    }
  }
  out->failed = std::min<int64_t>(
      out->attempted, static_cast<int64_t>(out->failures.size()));

  const double wall = traced.end - traced.start;
  tracer.AddCount("trace.coverage",
                  tracer.Coverage(traced.start, traced.end));
  tracer.AddCount("trace.overhead", wall / pass.wall_seconds);
  const std::map<std::string, LayerRow> table = tracer.LayerTable();
  const double per_batch = 1e3 / static_cast<double>(out->attempted);
  for (const LayerMetric& m : kLayerMetrics) {
    double value = 0.0;
    if (m.span != nullptr) {
      const auto it = table.find(m.span);
      if (it != table.end()) value = it->second.self_seconds * per_batch;
    } else {
      value = tracer.Count(m.name);
    }
    out->metrics.push_back({m.name, value, m.unit});
  }

  // Layer table: every span name, self and total time, span count.
  std::ostringstream rows;
  rows << "# " << workload.spec().name << " seed " << workload.seed()
       << ": traced wall " << Num(wall * 1e3) << " ms over " << batches
       << " batches, end-to-end pass " << Num(pass.wall_seconds * 1e3)
       << " ms\n";
  rows << "span\tself_ms\ttotal_ms\tcount\tself_share\n";
  for (const auto& [name, row] : table) {
    rows << name << "\t" << Num(row.self_seconds * 1e3) << "\t"
         << Num(row.total_seconds * 1e3) << "\t" << row.count << "\t"
         << Num(row.self_seconds / wall) << "\n";
  }
  const std::string stem = args.out + "/" + workload.spec().name + "-seed" +
                           std::to_string(workload.seed());
  WriteFile(stem + "-layers.tsv", rows.str());
  WriteFile(stem + "-trace.json", tracer.ChromeTraceJson());
  out->context << ",\"traced_batches\":" << batches
               << ",\"spans\":" << tracer.num_spans()
               << ",\"layer_table\":" << Quote(stem + "-layers.tsv")
               << ",\"chrome_trace\":" << Quote(stem + "-trace.json");
}

}  // namespace
}  // namespace canon

int main(int argc, char** argv) {
  using namespace canon;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "CASC_", 5) == 0) {
      std::fprintf(stderr,
                   "canon_bench: refusing to run with %s set; the canonical "
                   "workloads run the product defaults\n",
                   *env);
      return 2;
    }
  }
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) || !MakeSpec(args.workload, &spec)) {
    std::fprintf(stderr,
                 "usage: canon_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }

  ThreadId();  // the driving thread is thread 0 in the trace
  const HostProbe probe = RunHostProbe();
  const double generate_start = NowSeconds();
  const Workload workload(spec, args.seed);
  const double generate_seconds = NowSeconds() - generate_start;

  RunOutput out;
  if (args.trace == 0) {
    RunEndToEnd(workload, args, &out);
  } else {
    RunTracedMode(workload, args, &out);
  }
  out.correct = out.failures.empty();

  std::ostringstream json;
  json << "{\"correct\":" << (out.correct ? "true" : "false")
       << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"metrics\":{";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i > 0 ? "," : "") << Quote(m.name) << ":{\"value\":"
         << Num(m.value) << ",\"unit\":" << Quote(m.unit) << "}";
  }
  json << "},\"context\":{\"workload\":" << Quote(spec.name)
       << ",\"seed\":" << args.seed << ",\"trace\":" << args.trace
       << ",\"probe_ns_per_step\":" << Num(probe.ns_per_step)
       << ",\"probe_s\":" << Num(probe.seconds)
       << ",\"probe_buffer_mib\":" << Num(probe.buffer_mib)
       << ",\"generate_s\":" << Num(generate_seconds)
       << ",\"hardware_threads\":" << casc::ThreadPool::DefaultThreads()
       << ",\"shard_threads\":"
       << (spec.kind == Kind::kPaper ? 1 : spec.dispatch.sharded.num_threads)
       << ",\"shards_per_side\":"
       << (spec.kind == Kind::kPaper ? 0
                                     : spec.dispatch.sharded.shards_per_side)
       << ",\"pipeline\":"
       << (spec.kind == Kind::kStreaming && spec.dispatch.enable_pipeline)
       << ",\"net_nodes\":" << (spec.distributed ? spec.dist.num_nodes : 0)
       << out.context.str() << ",\"failures\":[";
  for (size_t i = 0; i < out.failures.size() && i < 20; ++i) {
    json << (i > 0 ? "," : "") << Quote(out.failures[i]);
  }
  json << "]}}";
  std::printf("%s\n", json.str().c_str());
  return out.correct ? 0 : 1;
}
