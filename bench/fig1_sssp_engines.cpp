// Reproduces Figure 1: SSSP query performance on the LiveJournal-class
// dataset across engines. Engine roles as in Table 2 (see
// table2_end_to_end.cpp and EXPERIMENTS.md); the figure's message — the
// dynamic coordination strategy beats barrier-based coordination — is what
// this regenerates. The paper's staleness-based bar is no longer built; its
// last numbers are frozen in EXPERIMENTS.md.

#include <cstdio>

#include "bench/bench_util.h"

namespace dcdatalog {
namespace bench {
namespace {

void Bar(const char* label, const RunResult& r, double baseline) {
  if (!r.ok) {
    std::printf("%-24s %9s  [%s]\n", label, "ERR", r.error.c_str());
    return;
  }
  const int width = static_cast<int>(40.0 * r.seconds / baseline);
  std::printf("%-24s %8.3fs  idle %7.3fs  ", label, r.seconds,
              r.stats.idle_wait_seconds);
  for (int i = 0; i < width; ++i) std::printf("#");
  std::printf("\n");
}

void Main() {
  std::printf(
      "Figure 1 — SSSP on the LiveJournal-class dataset (social-L),\n"
      "query time per engine/strategy (lower is better)\n\n");
  const Graph& g = SocialDataset("social-L");
  auto setup = [&g](DCDatalog* db) { LoadGraphRelations(db, g); };

  RunResult dws = RunMedian(BaseOptions(CoordinationMode::kDws), setup,
                            kSsspProgram, "results");
  RunResult global = RunMedian(BaseOptions(CoordinationMode::kGlobal), setup,
                               kSsspProgram, "results");
  EngineOptions one = BaseOptions(CoordinationMode::kGlobal);
  one.num_workers = 1;
  RunResult single = RunMedian(one, setup, kSsspProgram, "results");

  const double slowest =
      std::max({dws.seconds, global.seconds, single.seconds, 1e-9});
  Bar("DCDatalog (DWS)", dws, slowest);
  Bar("Global (DeALS-MC-style)", global, slowest);
  Bar("Single worker", single, slowest);

  if (dws.ok && global.ok) {
    std::printf("\nDWS vs Global speedup: %.2fx   (paper: 131.68s -> 11.82s"
                ", 11.1x on 32 cores)\n",
                global.seconds / dws.seconds);
  }
  std::printf("result tuples: %llu (identical across engines)\n",
              static_cast<unsigned long long>(dws.result_rows));
}

}  // namespace
}  // namespace bench
}  // namespace dcdatalog

int main() { dcdatalog::bench::Main(); }
