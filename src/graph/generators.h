#ifndef DCDATALOG_GRAPH_GENERATORS_H_
#define DCDATALOG_GRAPH_GENERATORS_H_

#include <cstdint>

#include "graph/graph.h"

namespace dcdatalog {

/// Synthetic dataset generators matching §7.1.1 of the paper. All are
/// deterministic in the seed.

/// RMAT-n: n vertices, 10·n directed edges, recursive-matrix sampling with
/// the canonical (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) parameters. Degree
/// distribution is heavy-tailed, which is what makes partition workloads
/// skewed — the regime DWS targets.
Graph GenerateRmat(uint64_t num_vertices, uint64_t seed,
                   uint64_t edges_per_vertex = 10);

/// G-n: Erdős–Rényi random digraph where each ordered pair is an edge with
/// probability p (paper: G-10K has n = 10,000, p = 0.001).
Graph GenerateGnp(uint64_t num_vertices, double p, uint64_t seed);

/// Tree-h: rooted tree of height h where every non-leaf has uniform 2..6
/// children (the SG workload's Tree-11). Edges point parent → child.
Graph GenerateRandomTree(uint32_t height, uint64_t seed,
                         uint32_t min_children = 2, uint32_t max_children = 6);

/// N-n trees, following [24] as quoted in §7.1.1: grown level by level,
/// each node has 5..10 children and each child becomes a leaf with a chance
/// drawn from 20 %..60 %. Generation stops once ~`target_vertices` exist.
Graph GenerateLeveledTree(uint64_t target_vertices, uint64_t seed);

/// Social-network-like stand-in for the paper's real graphs (LiveJournal,
/// Orkut, ...): RMAT skeleton re-labelled by a random permutation so vertex
/// id gives no locality hint, mirroring real crawl data.
Graph GenerateSocialGraph(uint64_t num_vertices, uint64_t avg_degree,
                          uint64_t seed);

/// Star/hub graph: `spokes` source vertices each point at one hub, and the
/// hub points at `spokes` distinct sink vertices (s_i → h, h → t_j), plus a
/// short chain through the sinks so recursion runs a few iterations. Under
/// hash partitioning every δ-tuple with the hub in the join column lands on
/// one worker, so TC over this graph is the adversarial single-hot-partition
/// workload: the hub owner's iteration-1 backlog is ~`spokes` driving
/// tuples while every other worker parks.
Graph GenerateStarHub(uint64_t spokes, uint64_t seed);

/// Zipf-degree digraph: n vertices; each vertex draws its out-degree from a
/// (truncated) Zipf/zeta distribution with exponent `alpha` scaled so the
/// hottest vertices reach ~`max_degree`, destinations uniform. A smoother
/// skew than the star: several hot partitions of different sizes rather
/// than one pathological hub.
Graph GenerateZipfDegree(uint64_t num_vertices, double alpha,
                         uint64_t max_degree, uint64_t seed);

/// Adds uniform random weights in [1, max_weight] to every edge of `graph`
/// (for SSSP / APSP workloads).
void AssignRandomWeights(Graph* graph, int64_t max_weight, uint64_t seed);

}  // namespace dcdatalog

#endif  // DCDATALOG_GRAPH_GENERATORS_H_
