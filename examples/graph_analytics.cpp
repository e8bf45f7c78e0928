// Graph analytics on a synthetic social network: connected components,
// single-source shortest paths, and PageRank — the three graph workloads
// of the paper's evaluation (§7.1.1), on one generated dataset.
//
//   ./graph_analytics [num_vertices] [num_workers] [global|dws]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/timer.h"
#include "core/dcdatalog.h"
#include "graph/generators.h"

namespace {

using namespace dcdatalog;

CoordinationMode ParseMode(const char* s) {
  if (std::strcmp(s, "global") == 0) return CoordinationMode::kGlobal;
  return CoordinationMode::kDws;
}

void RunQuery(const EngineOptions& options, const Graph& graph,
              const char* name, const std::string& program,
              const std::string& result_pred) {
  DCDatalog db(options);
  db.AddGraph(graph, "arc");
  db.AddGraph(graph, "warc", /*weighted=*/true);
  // PageRank needs the transition matrix with out-degrees.
  std::map<uint64_t, int64_t> outdeg;
  for (const Edge& e : graph.edges()) ++outdeg[e.src];
  Relation matrix("matrix", Schema::Ints(3));
  for (const Edge& e : graph.edges()) {
    matrix.Append({e.src, e.dst, WordFromInt(outdeg[e.src])});
  }
  db.catalog().Put(std::move(matrix));

  Status st = db.LoadProgramText(program);
  if (!st.ok()) {
    std::fprintf(stderr, "[%s] %s\n", name, st.ToString().c_str());
    return;
  }
  WallTimer timer;
  auto stats = db.Run();
  if (!stats.ok()) {
    std::fprintf(stderr, "[%s] %s\n", name,
                 stats.status().ToString().c_str());
    return;
  }
  std::printf("%-10s %8.3fs  %9llu result tuples  (%llu local iterations)\n",
              name, timer.ElapsedSeconds(),
              static_cast<unsigned long long>(
                  db.ResultFor(result_pred)->size()),
              static_cast<unsigned long long>(
                  stats.value().total_local_iterations));
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;
  EngineOptions options;
  options.num_workers = argc > 2 ? std::atoi(argv[2]) : 4;
  options.coordination = ParseMode(argc > 3 ? argv[3] : "dws");

  std::printf("generating social graph: %llu vertices...\n",
              static_cast<unsigned long long>(n));
  Graph graph = GenerateSocialGraph(n, /*avg_degree=*/10, /*seed=*/2022);
  AssignRandomWeights(&graph, 100, 7);
  std::printf("%llu edges; workers=%u, strategy=%s\n\n",
              static_cast<unsigned long long>(graph.num_edges()),
              options.num_workers,
              CoordinationModeName(options.coordination));

  RunQuery(options, graph, "CC", R"(
    cc2(Y, min<Y>) :- arc(Y, _).
    cc2(Y, min<Y>) :- arc(_, Y).
    cc2(Y, min<Z>) :- cc2(X, Z), arc(X, Y).
    cc2(Y, min<Z>) :- cc2(X, Z), arc(Y, X).
    cc(Y, min<Z>) :- cc2(Y, Z).
  )",
           "cc");

  RunQuery(options, graph, "SSSP", R"(
    sp(To, min<C>) :- To = 0, C = 0.
    sp(To2, min<C>) :- sp(To1, C1), warc(To1, To2, C2), C = C1 + C2.
    results(To, min<C>) :- sp(To, C).
  )",
           "results");

  char pagerank[512];
  std::snprintf(pagerank, sizeof(pagerank), R"(
    rank(X, sum<(X, I)>) :- matrix(X, _, _), I = 0.15 / %llu.0.
    rank(X, sum<(Y, K)>) :- rank(Y, C), matrix(Y, X, D), K = 0.85 * (C / D).
    results(X, V) :- rank(X, V).
  )",
                static_cast<unsigned long long>(n));
  RunQuery(options, graph, "PageRank", pagerank, "results");
  return 0;
}
