// Reproduces Figure 8: parallel coordination strategies — Global (Alg. 1
// barrier) and DWS (Alg. 2) — on CC, SSSP and Delivery. The paper's third
// column, stale-synchronous coordination, is no longer built; its last
// numbers are frozen in EXPERIMENTS.md. The expected shape: DWS <= Global.

#include <cstdio>

#include "bench/bench_util.h"

namespace dcdatalog {
namespace bench {
namespace {

struct Workload {
  const char* name;
  std::function<void(DCDatalog*)> setup;
  const char* program;
  const char* result;
};

void Main() {
  std::printf(
      "Figure 8 — coordination strategies. Each cell shows\n"
      "wall seconds and, in brackets, cumulative worker idle-wait seconds —\n"
      "the coordination overhead the strategies trade off (on machines with\n"
      "fewer cores than workers, wall time alone hides the effect because\n"
      "the OS gives blocked slices to other workers).\n\n");
  std::printf("%-10s %-12s %19s %19s   %s\n", "query", "dataset",
              "Global", "DWS", "DWS iters(max)");

  const Graph& lj = SocialDataset("social-S");
  const Graph& ar = SocialDataset("social-L");
  const uint64_t delivery_parts = Scaled(400000);

  const Workload workloads[] = {
      {"CC", [&lj](DCDatalog* db) { LoadGraphRelations(db, lj); },
       kCcProgram, "cc"},
      {"CC", [&ar](DCDatalog* db) { LoadGraphRelations(db, ar); },
       kCcProgram, "cc"},
      {"SSSP", [&lj](DCDatalog* db) { LoadGraphRelations(db, lj); },
       kSsspProgram, "results"},
      {"SSSP", [&ar](DCDatalog* db) { LoadGraphRelations(db, ar); },
       kSsspProgram, "results"},
      {"Delivery",
       [delivery_parts](DCDatalog* db) {
         LoadDeliveryRelations(db, delivery_parts);
       },
       kDeliveryProgram, "results"},
  };
  const char* datasets[] = {"social-S", "social-L", "social-S", "social-L",
                            "N-400K"};

  for (size_t w = 0; w < std::size(workloads); ++w) {
    const Workload& wl = workloads[w];
    std::printf("%-10s %-12s", wl.name, datasets[w]);
    RunResult dws;
    for (CoordinationMode mode :
         {CoordinationMode::kGlobal, CoordinationMode::kDws}) {
      RunResult r =
          RunMedian(BaseOptions(mode), wl.setup, wl.program, wl.result);
      if (r.ok) {
        std::printf(" %8.3f [%7.3f]", r.seconds,
                    r.stats.idle_wait_seconds);
      } else {
        std::printf(" %18s", "ERR");
      }
      std::fflush(stdout);
      if (mode == CoordinationMode::kDws) dws = r;
    }
    if (dws.ok) {
      std::printf("   %llu", static_cast<unsigned long long>(
                                 dws.stats.max_local_iterations));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace bench
}  // namespace dcdatalog

int main() { dcdatalog::bench::Main(); }
