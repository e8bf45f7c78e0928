// Ablations for the design choices DESIGN.md §5 calls out:
//
//   B. SSP slack s: the hyper-parameter the paper argues is hard to tune
//      (§4.2 motivates DWS with exactly this); a sweep shows the U-shape /
//      plateau and that no single s dominates across workloads.
//   C. DWS deadlock-avoidance timeout: sensitivity of DWS to its one knob.
//   D. SPSC ring capacity: backpressure-frequency vs memory.
//
// Part A, partial aggregation on/off, went with the switch: Fig. 7 folding
// always runs. Its last numbers are in EXPERIMENTS.md.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace dcdatalog {
namespace bench {
namespace {

void SspSlackSweep() {
  std::printf(
      "B. SSP slack s (the knob DWS replaces; paper uses s=5):\n\n");
  std::printf("%-14s", "workload");
  const std::vector<uint32_t> slacks = {1, 2, 5, 10, 50};
  for (uint32_t s : slacks) std::printf("     s=%-3u", s);
  std::printf("\n");

  const Graph& g = SocialDataset("social-L");
  const uint64_t parts = Scaled(400000);
  struct Workload {
    const char* name;
    std::function<void(DCDatalog*)> setup;
    const char* program;
    const char* result;
  };
  const Workload workloads[] = {
      {"CC/social-L", [&g](DCDatalog* db) { LoadGraphRelations(db, g); },
       kCcProgram, "cc"},
      {"SSSP/social-L", [&g](DCDatalog* db) { LoadGraphRelations(db, g); },
       kSsspProgram, "results"},
      {"Delivery",
       [parts](DCDatalog* db) { LoadDeliveryRelations(db, parts); },
       kDeliveryProgram, "results"},
  };
  for (const Workload& wl : workloads) {
    std::printf("%-14s", wl.name);
    for (uint32_t s : slacks) {
      EngineOptions options = BaseOptions(CoordinationMode::kSsp);
      options.ssp_slack = s;
      RunResult r = RunMedian(options, wl.setup, wl.program, wl.result);
      std::printf(r.ok ? " %8.3fs" : "      ERR", r.seconds);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void DwsTimeoutSweep() {
  std::printf(
      "C. DWS deadlock-avoidance timeout (µs) — DWS's only knob, and its\n"
      "   ω/τ come from the model, so sensitivity should be mild:\n\n");
  std::printf("%-14s", "workload");
  const std::vector<uint32_t> timeouts = {200, 1000, 2000, 10000};
  for (uint32_t t : timeouts) std::printf("   %6uus", t);
  std::printf("\n");
  const Graph& g = SocialDataset("social-L");
  auto setup = [&g](DCDatalog* db) { LoadGraphRelations(db, g); };
  std::printf("%-14s", "CC/social-L");
  for (uint32_t t : timeouts) {
    EngineOptions options = BaseOptions(CoordinationMode::kDws);
    options.dws_timeout_us = t;
    RunResult r = RunMedian(options, setup, kCcProgram, "cc");
    std::printf(r.ok ? " %8.3fs" : "      ERR", r.seconds);
    std::fflush(stdout);
  }
  std::printf("\n\n");
}

void QueueCapacitySweep() {
  std::printf(
      "D. SPSC ring capacity (tuples per producer/consumer pair):\n\n");
  std::printf("%-14s", "workload");
  const std::vector<uint32_t> caps = {64, 512, 4096, 32768};
  for (uint32_t c : caps) std::printf("   cap=%-6u", c);
  std::printf("\n");
  const Graph& g = SocialDataset("social-L");
  auto setup = [&g](DCDatalog* db) { LoadGraphRelations(db, g); };
  std::printf("%-14s", "CC/social-L");
  for (uint32_t c : caps) {
    EngineOptions options = BaseOptions(CoordinationMode::kDws);
    options.spsc_capacity = c;
    RunResult r = RunMedian(options, setup, kCcProgram, "cc");
    std::printf(r.ok ? "   %8.3fs" : "        ERR", r.seconds);
    std::fflush(stdout);
  }
  std::printf("\n");
}

void Main() {
  std::printf("Design-choice ablations (DESIGN.md §5)\n\n");
  SspSlackSweep();
  DwsTimeoutSweep();
  QueueCapacitySweep();
}

}  // namespace
}  // namespace bench
}  // namespace dcdatalog

int main() { dcdatalog::bench::Main(); }
