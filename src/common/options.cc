#include "common/options.h"

#include <sstream>
#include <thread>

namespace dcdatalog {

const char* CoordinationModeName(CoordinationMode mode) {
  switch (mode) {
    case CoordinationMode::kGlobal:
      return "Global";
    case CoordinationMode::kSsp:
      return "SSP";
    case CoordinationMode::kDws:
      return "DWS";
  }
  return "unknown";
}

EngineOptions EngineOptions::Resolved() const {
  EngineOptions out = *this;
  if (out.num_workers == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    out.num_workers = hw == 0 ? 4 : hw;
  }
  if (out.spsc_capacity < 2) out.spsc_capacity = 2;
  if (out.ssp_slack < 1) out.ssp_slack = 1;
  return out;
}

std::string EngineOptions::ToString() const {
  std::ostringstream os;
  os << "EngineOptions{workers=" << num_workers
     << ", coordination=" << CoordinationModeName(coordination)
     << ", ssp_slack=" << ssp_slack << ", dws_timeout_us=" << dws_timeout_us
     << ", spsc_capacity=" << spsc_capacity
     << ", trace=" << (enable_trace ? "on" : "off") << "}";
  return os.str();
}

}  // namespace dcdatalog
