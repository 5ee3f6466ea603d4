// In-memory span recorder for the traced benchmark run. Spans are
// recorded from the benchmark's own files around calls into each casc
// layer; nothing inside the library is instrumented.
//
// A span carries a static name, start/end on the steady clock, a dense
// thread id and the id of the span that caused it. Spans on a thread nest
// through a thread-local stack; a thread with an empty stack (a pool
// worker running one chunk of a fan-out) inherits the fan-out parent the
// dispatching thread published. The recorder keeps everything in memory
// and writes a Chrome trace-event file plus a per-layer self-time table
// at the end.
#ifndef CANON_BENCH_SPAN_TRACE_H_
#define CANON_BENCH_SPAN_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace canon {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

/// Dense id of the calling thread (0 = the first thread that asked).
int ThreadId();

struct SpanRecord {
  const char* name = nullptr;
  double start = 0.0;
  double end = -1.0;
  int thread = 0;
  int parent = -1;
};

/// Per-name aggregate: summed self time and number of spans.
struct LayerRow {
  double self_seconds = 0.0;
  double total_seconds = 0.0;
  int64_t count = 0;
};

class Tracer {
 public:
  static constexpr int kInherit = -2;  ///< parent = stack top / fan-out
  static constexpr int kRoot = -1;

  int Begin(const char* name, int parent = kInherit);
  void End(int id);
  /// A span measured by the caller, on the calling thread.
  void Record(const char* name, double start, double end,
              int parent = kRoot);

  /// While set, spans opened on threads with an empty stack get this
  /// parent (the fan-out span that dispatched their work).
  void set_fanout_parent(int id) { fanout_parent_.store(id); }

  void AddCount(const std::string& name, double value);
  double Count(const std::string& name) const;

  /// Self time of every span: its duration minus the union of its
  /// children's intervals clipped to it. Aggregated by span name.
  std::map<std::string, LayerRow> LayerTable() const;

  /// Share of [from, to] that root spans on thread 0 cover.
  double Coverage(double from, double to) const;

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  std::string ChromeTraceJson() const;

  size_t num_spans() const { return spans_.size(); }

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counts_;
  std::atomic<int> fanout_parent_{kRoot};
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int parent = Tracer::kInherit)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, parent) : -1) {}
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early (idempotent).
  void Close() {
    if (tracer_ != nullptr) tracer_->End(id_);
    tracer_ = nullptr;
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace canon

#endif  // CANON_BENCH_SPAN_TRACE_H_
