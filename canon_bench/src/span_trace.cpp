#include "span_trace.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <utility>

namespace canon {
namespace {

thread_local std::vector<int> tls_stack;

/// Total length of the union of `intervals` clipped to [lo, hi].
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (const auto& [start, end] : intervals) {
    const double a = std::max(start, cursor);
    const double b = std::min(end, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

}  // namespace

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

int ThreadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

int Tracer::Begin(const char* name, int parent) {
  if (parent == kInherit) {
    parent = tls_stack.empty() ? fanout_parent_.load() : tls_stack.back();
  }
  SpanRecord record;
  record.name = name;
  record.thread = ThreadId();
  record.parent = parent;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(record);
  }
  tls_stack.push_back(id);
  const double start = NowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].start = start;
  return id;
}

void Tracer::End(int id) {
  const double end = NowSeconds();
  if (!tls_stack.empty() && tls_stack.back() == id) tls_stack.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end = end;
}

void Tracer::Record(const char* name, double start, double end,
                    int parent) {
  SpanRecord record;
  record.name = name;
  record.start = start;
  record.end = end;
  record.thread = ThreadId();
  record.parent = parent;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(record);
}

void Tracer::AddCount(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name] += value;
}

double Tracer::Count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::map<std::string, LayerRow> Tracer::LayerTable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(
      spans_.size());
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                               span.end);
    }
  }
  std::map<std::string, LayerRow> table;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const double total = span.end - span.start;
    LayerRow& row = table[span.name];
    row.total_seconds += total;
    row.self_seconds +=
        total - UnionLength(children[i], span.start, span.end);
    ++row.count;
  }
  return table;
}

double Tracer::Coverage(double from, double to) const {
  if (to <= from) return 0.0;
  std::vector<std::pair<double, double>> roots;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord& span : spans_) {
      if (span.parent < 0 && span.thread == 0) {
        roots.emplace_back(span.start, span.end);
      }
    }
  }
  return UnionLength(std::move(roots), from, to) / (to - from);
}

std::string Tracer::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (i > 0) out << ",\n";
    out << "{\"name\":\"" << span.name << "\",\"cat\":\""
        << std::string(span.name).substr(0, std::string(span.name).find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << span.thread
        << ",\"ts\":" << span.start * 1e6
        << ",\"dur\":" << (span.end - span.start) * 1e6
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace canon
