#include "common/trace.h"

#include <cstddef>

namespace dcdatalog {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kIteration:
      return "iteration";
    case TraceEventKind::kPark:
      return "park";
    case TraceEventKind::kBarrierWait:
      return "barrier_wait";
    case TraceEventKind::kSspWait:
      return "ssp_wait";
    case TraceEventKind::kDwsWait:
      return "dws_wait";
    case TraceEventKind::kDrain:
      return "drain";
    case TraceEventKind::kBlockPush:
      return "block_push";
    case TraceEventKind::kSccBegin:
      return "scc_begin";
    case TraceEventKind::kSccEnd:
      return "scc_end";
    case TraceEventKind::kDwsDecision:
      return "dws_decision";
    case TraceEventKind::kAdmission:
      return "admission";
  }
  return "unknown";
}

bool TraceEventIsSpan(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kIteration:
    case TraceEventKind::kPark:
    case TraceEventKind::kBarrierWait:
    case TraceEventKind::kSspWait:
    case TraceEventKind::kDwsWait:
      return true;
    case TraceEventKind::kDrain:
    case TraceEventKind::kBlockPush:
    case TraceEventKind::kSccBegin:
    case TraceEventKind::kSccEnd:
    case TraceEventKind::kDwsDecision:
    case TraceEventKind::kAdmission:
      return false;
  }
  return false;
}

TraceRing::TraceRing(uint32_t capacity) {
  if (capacity == 0) return;
  uint32_t cap = 2;  // Smallest power of two with a non-zero mask.
  while (cap < capacity) cap <<= 1;
  slots_.resize(cap);
  mask_ = cap - 1;
}

void TraceRing::Snapshot(std::vector<TraceEvent>* out) const {
  if (mask_ == 0 || head_ == 0) return;
  const uint64_t size = slots_.size();
  const uint64_t first = head_ > size ? head_ - size : 0;
  out->reserve(out->size() + static_cast<size_t>(head_ - first));
  for (uint64_t i = first; i < head_; ++i) {
    out->push_back(slots_[i & mask_]);
  }
}

}  // namespace dcdatalog
