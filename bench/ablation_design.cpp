// Ablations for the design choices DESIGN.md §5 calls out:
//
//   C. DWS deadlock-avoidance timeout: sensitivity of DWS to its one knob.
//   D. SPSC ring capacity: backpressure-frequency vs memory.
//
// Part A, partial aggregation on/off, went with the switch: Fig. 7 folding
// always runs. Part B, the stale-synchronous slack sweep, went with that
// strategy. The last numbers of both are in EXPERIMENTS.md.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace dcdatalog {
namespace bench {
namespace {

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
  DwsTimeoutSweep();
  QueueCapacitySweep();
}

}  // namespace
}  // namespace bench
}  // namespace dcdatalog

int main() { dcdatalog::bench::Main(); }
