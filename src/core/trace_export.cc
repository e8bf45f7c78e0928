#include "core/trace_export.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <set>

namespace dcdatalog {
namespace {

/// JSON has no Infinity/NaN literals; anything non-finite here is a bug
/// upstream, but the exporter must still emit parseable output.
void JsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  // max_digits10 round-trips doubles; integers still print without a point.
  const auto prev = os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  os.precision(prev);
}

void WriteHistogram(std::ostream& os, const LogHistogram& h) {
  os << "{\"count\": " << h.count() << ", \"total\": " << h.total()
     << ", \"max\": " << h.max() << ", \"mean\": ";
  JsonNumber(os, h.mean());
  os << ", \"p50\": " << h.Quantile(0.50) << ", \"p90\": " << h.Quantile(0.90)
     << ", \"p99\": " << h.Quantile(0.99) << ", \"buckets\": [";
  bool first = true;
  for (uint32_t b = 0; b < LogHistogram::kBuckets; ++b) {
    if (h.bucket(b) == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << "[" << LogHistogram::BucketLowerBound(b) << ", " << h.bucket(b)
       << "]";
  }
  os << "]}";
}

Status WriteFile(const std::string& path,
                 void (*writer)(const EvalStats&, std::ostream&),
                 const EvalStats& stats, const char* what) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return Status::RuntimeError(std::string("cannot open ") + what +
                                " output file: " + path);
  }
  writer(stats, out);
  out.flush();
  if (!out.good()) {
    return Status::RuntimeError(std::string("failed writing ") + what +
                                " output file: " + path);
  }
  return Status::OK();
}

}  // namespace

void WriteChromeTrace(const EvalStats& stats, std::ostream& os) {
  // Normalize to the run's earliest timestamp so ts values stay small and
  // Perfetto's default viewport lands on the data.
  int64_t t0 = std::numeric_limits<int64_t>::max();
  std::set<uint32_t> workers;
  for (const TraceEvent& ev : stats.trace) {
    t0 = std::min(t0, ev.start_ns);
    workers.insert(ev.worker);
  }
  if (stats.trace.empty()) t0 = 0;

  os << "{\"traceEvents\": [";
  bool first = true;
  for (const uint32_t w : workers) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << w << ", \"args\": {\"name\": \"worker " << w << "\"}}";
  }
  for (const TraceEvent& ev : stats.trace) {
    if (!first) os << ",";
    first = false;
    const double ts_us = static_cast<double>(ev.start_ns - t0) * 1e-3;
    os << "\n{\"name\": \"" << TraceEventKindName(ev.kind)
       << "\", \"pid\": 1, \"tid\": " << ev.worker << ", \"ts\": ";
    JsonNumber(os, ts_us);
    if (TraceEventIsSpan(ev.kind)) {
      const double dur_us = static_cast<double>(ev.end_ns - ev.start_ns) * 1e-3;
      os << ", \"ph\": \"X\", \"dur\": ";
      JsonNumber(os, dur_us);
    } else {
      os << ", \"ph\": \"i\", \"s\": \"t\"";
    }
    os << ", \"args\": {\"scc\": " << ev.scc << ", \"tuples\": " << ev.tuples;
    if (ev.kind == TraceEventKind::kDwsDecision) {
      os << ", \"proceed\": " << (ev.proceed ? "true" : "false")
         << ", \"omega\": ";
      JsonNumber(os, ev.omega);
      os << ", \"tau_us\": ";
      JsonNumber(os, static_cast<double>(ev.tau_ns) * 1e-3);
      os << ", \"rho\": ";
      JsonNumber(os, ev.rho);
      os << ", \"lambda\": ";
      JsonNumber(os, ev.lambda);
      os << ", \"mu\": ";
      JsonNumber(os, ev.mu);
    }
    os << "}}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": "
        "{\"trace_dropped\": "
     << stats.trace_dropped << "}}\n";
}

void WriteMetricsJson(const EvalStats& stats, std::ostream& os) {
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : stats.Counters()) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": ";
    JsonNumber(os, value);
  }
  os << "},\n\"trace_events\": " << stats.trace.size()
     << ",\n\"workers\": [";
  for (size_t w = 0; w < stats.worker_metrics.size(); ++w) {
    if (w != 0) os << ",";
    os << "\n{\"worker\": " << w << ", \"iteration_ns\": ";
    WriteHistogram(os, stats.worker_metrics[w].iteration_ns);
    os << ", \"drain_batch\": ";
    WriteHistogram(os, stats.worker_metrics[w].drain_batch);
    os << "}";
  }
  os << "\n]}\n";
}

Status WriteChromeTraceFile(const EvalStats& stats, const std::string& path) {
  return WriteFile(path, &WriteChromeTrace, stats, "trace");
}

Status WriteMetricsJsonFile(const EvalStats& stats, const std::string& path) {
  return WriteFile(path, &WriteMetricsJson, stats, "metrics");
}

}  // namespace dcdatalog
