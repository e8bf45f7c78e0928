#ifndef DCDATALOG_CORE_TRACE_EXPORT_H_
#define DCDATALOG_CORE_TRACE_EXPORT_H_

#include <ostream>
#include <string>

#include "common/status.h"
#include "core/engine.h"

namespace dcdatalog {

/// Serializes EvalStats::trace as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto or
/// chrome://tracing. One track per worker (thread_name metadata); span
/// events (iteration, park, barrier and DWS waits) become ph:"X" complete
/// events with microsecond ts/dur normalized to the run's earliest event;
/// instants (drain, block_push, scc_begin/end, dws_decision) become ph:"i"
/// thread-scoped markers. kDwsDecision events carry the full queueing-model
/// state (omega, tau_us, rho, lambda, mu, proceed) in their args, so the
/// controller's reasoning can be read directly off the timeline.
void WriteChromeTrace(const EvalStats& stats, std::ostream& os);

/// Serializes the flat metrics snapshot: every EvalStats counter (from
/// Counters(), so the set cannot drift from ToString), trace-ring loss, and
/// one object per worker with its iteration-latency and drain-batch
/// log-bucket histograms (count/mean/max, factor-of-2 p50/p90/p99, and the
/// non-empty buckets as [lower_bound, count] pairs).
void WriteMetricsJson(const EvalStats& stats, std::ostream& os);

/// File-writing wrappers: open, serialize, flush; any I/O failure returns a
/// RuntimeError naming the path.
Status WriteChromeTraceFile(const EvalStats& stats, const std::string& path);
Status WriteMetricsJsonFile(const EvalStats& stats, const std::string& path);

}  // namespace dcdatalog

#endif  // DCDATALOG_CORE_TRACE_EXPORT_H_
