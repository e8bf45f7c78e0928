#include "graph/graph.h"

#include <algorithm>
#include <fstream>
#include <string_view>

#include "common/parse.h"
#include "storage/text_io.h"

namespace dcdatalog {

void Graph::Canonicalize() {
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  auto last = std::unique(edges_.begin(), edges_.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.src == b.src && a.dst == b.dst;
                          });
  edges_.erase(last, edges_.end());
  auto no_loops =
      std::remove_if(edges_.begin(), edges_.end(),
                     [](const Edge& e) { return e.src == e.dst; });
  edges_.erase(no_loops, edges_.end());
}

Relation Graph::ToArcRelation(const std::string& name) const {
  Relation rel(name, Schema({{"src", ColumnType::kInt},
                             {"dst", ColumnType::kInt}}));
  rel.Reserve(edges_.size());
  for (const Edge& e : edges_) {
    rel.Append({e.src, e.dst});
  }
  return rel;
}

Relation Graph::ToWeightedArcRelation(const std::string& name) const {
  Relation rel(name, Schema({{"src", ColumnType::kInt},
                             {"dst", ColumnType::kInt},
                             {"weight", ColumnType::kInt}}));
  rel.Reserve(edges_.size());
  for (const Edge& e : edges_) {
    rel.Append({e.src, e.dst, WordFromInt(e.weight)});
  }
  return rel;
}

Result<Graph> LoadEdgeList(const std::string& path) {
  LineScanner lines;
  if (!lines.Open(path)) {
    return Status::NotFound("cannot open graph file: " + path);
  }
  Graph graph;
  std::string_view line;
  while (lines.Next(&line)) {
    if (line.empty() || line[0] == '#') continue;
    uint64_t u = 0, v = 0;
    int64_t w = 1;
    const bool ok =
        ParseUint64Checked(NextField(&line), 0, UINT64_MAX, &u) &&
        ParseUint64Checked(NextField(&line), 0, UINT64_MAX, &v);
    const std::string_view weight = NextField(&line);  // Optional.
    if (!ok ||
        (!weight.empty() &&
         !ParseInt64Checked(weight, INT64_MIN, INT64_MAX, &w)) ||
        !NextField(&line).empty()) {
      return Status::ParseError("bad edge at " + path + ":" +
                                std::to_string(lines.line_no()));
    }
    graph.AddEdge(u, v, w);
  }
  if (!lines.ok()) return Status::RuntimeError("read error: " + path);
  return graph;
}

Status SaveEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::RuntimeError("cannot write graph file: " + path);
  // Column count must be uniform: write weights for every edge as soon as
  // any edge is weighted, so loaders see a consistent arity.
  bool weighted = false;
  for (const Edge& e : graph.edges()) {
    if (e.weight != 1) weighted = true;
  }
  for (const Edge& e : graph.edges()) {
    out << e.src << ' ' << e.dst;
    if (weighted) out << ' ' << e.weight;
    out << '\n';
  }
  return Status::OK();
}

}  // namespace dcdatalog
