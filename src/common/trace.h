#ifndef DCDATALOG_COMMON_TRACE_H_
#define DCDATALOG_COMMON_TRACE_H_

#include <cstdint>
#include <vector>

#include "common/hot_path.h"

namespace dcdatalog {

/// What one trace event records. Spans (start..end) cover where a worker's
/// time went; instants mark a point decision or hand-off. The vocabulary
/// mirrors the coordination machinery the paper's §4 strategies differ in,
/// so a timeline makes the wait/proceed behaviour of each mode visible.
enum class TraceEventKind : uint8_t {
  kIteration = 0,  // Span: one local semi-naive iteration.
  kPark,           // Span: parked at local fixpoint (InactiveWait).
  kBarrierWait,    // Span: blocked at the Global barrier.
  kSspWait,        // Span: blocked on the SSP slack bound.
  kDwsWait,        // Span: DWS bounded wait (Algorithm 2 lines 5-8).
  kDrain,          // Instant: one GatherAll that consumed ring tuples.
  kBlockPush,      // Instant: one MsgBlock pushed to a remote ring.
  kSccBegin,       // Instant: worker entered an SCC's evaluation.
  kSccEnd,         // Instant: worker left an SCC's evaluation.
  kDwsDecision,    // Instant: DwsController::Update recomputed omega/tau.
  kAdmission,      // Instant: the serving front end admitted (proceed=true)
                   // or queued (proceed=false) a session, carrying the same
                   // rho/lambda/mu queueing-model state the DWS decisions
                   // report — one vocabulary for both decision layers.
};

const char* TraceEventKindName(TraceEventKind kind);

/// Spans have a meaningful duration; instants carry start_ns == end_ns.
bool TraceEventIsSpan(TraceEventKind kind);

/// One traced execution event (EngineOptions::enable_trace). Times are raw
/// monotonic nanoseconds; normalize against the run's minimum.
struct TraceEvent {
  using Kind = TraceEventKind;

  TraceEventKind kind = TraceEventKind::kIteration;
  /// kDwsDecision only: true when the controller's omega/tau said iterate
  /// now, false when the small-delta wait path was taken.
  bool proceed = false;
  uint32_t worker = 0;
  uint32_t scc = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t tuples = 0;  // Delta/drained/pushed tuples, by kind.

  // kDwsDecision args: the queueing-model state behind the decision
  // (paper §4.2 — Equation (1) inputs and Kingman's outputs).
  double omega = 0.0;
  double rho = 0.0;
  double lambda = 0.0;
  double mu = 0.0;
  int64_t tau_ns = 0;
};

/// Fixed-capacity per-worker event ring: overwrite-oldest, zero allocation
/// after construction, no synchronization on the write path. Safe without
/// atomics because each ring has exactly one writer (its worker thread) and
/// is only read after that thread joined — the same single-owner discipline
/// the engine's replicas and distributors already follow. A ring built with
/// capacity 0 is disabled: Append is a two-instruction no-op, nothing is
/// allocated, and Snapshot yields nothing, so a trace-off run pays only one
/// predictable branch per would-be event.
class TraceRing {
 public:
  TraceRing() = default;  // Disabled.

  /// `capacity` is rounded up to a power of two; 0 disables the ring.
  explicit TraceRing(uint32_t capacity);

  bool enabled() const { return mask_ != 0; }

  DCD_HOT_ROOT void Append(const TraceEvent& ev) {
    if (mask_ == 0) return;
    slots_[head_ & mask_] = ev;
    ++head_;
  }

  /// Total events offered, including overwritten ones.
  uint64_t appended() const { return head_; }

  /// Events lost to overwrite-oldest.
  uint64_t dropped() const {
    return head_ > slots_.size() ? head_ - slots_.size() : 0;
  }

  /// Appends the surviving events, oldest first, to `*out`. Call only after
  /// the writing thread is done (the engine calls it after the join).
  void Snapshot(std::vector<TraceEvent>* out) const;

 private:
  std::vector<TraceEvent> slots_;
  uint64_t mask_ = 0;
  uint64_t head_ = 0;
};

}  // namespace dcdatalog

#endif  // DCDATALOG_COMMON_TRACE_H_
