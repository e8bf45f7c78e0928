#ifndef DCDATALOG_GRAPH_GRAPH_H_
#define DCDATALOG_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"

namespace dcdatalog {

/// One directed edge with an optional integer weight (1 when unweighted).
struct Edge {
  uint64_t src = 0;
  uint64_t dst = 0;
  int64_t weight = 1;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
  }
};

/// A directed graph as an edge list — the natural shape for loading into a
/// Datalog `arc(X, Y)` / `warc(X, Y, W)` relation. Vertices are dense ids
/// [0, num_vertices).
class Graph {
 public:
  Graph() = default;
  explicit Graph(uint64_t num_vertices) : num_vertices_(num_vertices) {}

  uint64_t num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }

  void AddEdge(uint64_t src, uint64_t dst, int64_t weight = 1) {
    edges_.push_back(Edge{src, dst, weight});
    num_vertices_ = std::max(num_vertices_, std::max(src, dst) + 1);
  }

  void Reserve(uint64_t n) { edges_.reserve(n); }

  /// Removes duplicate (src, dst) pairs and self loops, keeping the first
  /// weight seen. Generators call this so datasets match the paper's simple
  /// graphs.
  void Canonicalize();

  /// Materializes arc(src:int, dst:int) as a Relation named `name`.
  Relation ToArcRelation(const std::string& name = "arc") const;

  /// Materializes warc(src:int, dst:int, weight:int).
  Relation ToWeightedArcRelation(const std::string& name = "warc") const;

 private:
  uint64_t num_vertices_ = 0;
  std::vector<Edge> edges_;
};

/// Loads a whitespace-separated edge list: "u v" or "u v w" per line, with
/// '#' comment lines and empty lines skipped. u and v are unsigned and w
/// signed decimal integers (common/parse.h rules); any other line fails
/// with its line number. Vertex ids are used as-is.
Result<Graph> LoadEdgeList(const std::string& path);

/// Writes a graph in the same format.
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace dcdatalog

#endif  // DCDATALOG_GRAPH_GRAPH_H_
