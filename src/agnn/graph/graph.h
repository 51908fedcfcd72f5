#ifndef AGNN_GRAPH_GRAPH_H_
#define AGNN_GRAPH_GRAPH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "agnn/common/rng.h"

namespace agnn::graph {

/// Weighted adjacency over nodes [0, num_nodes). Used both for candidate
/// pools (neighbors + proximity weights) and for fixed graphs (kNN,
/// co-purchase, social). Neighbor lists may be empty for isolated nodes.
struct WeightedGraph {
  size_t num_nodes = 0;
  std::vector<std::vector<size_t>> neighbors;
  std::vector<std::vector<double>> weights;

  void Resize(size_t n) {
    num_nodes = n;
    neighbors.assign(n, {});
    weights.assign(n, {});
  }

  void AddEdge(size_t from, size_t to, double weight);

  /// Adds an edge whose target lives in a DIFFERENT node space (bipartite
  /// adjacency, e.g., user -> item). Only `from` is range-checked; such
  /// graphs must not rely on SampleNeighbors' self-loop fallback (use
  /// SampleOrIsolate-style handling instead) and must be checked with
  /// ValidateCross, not Validate.
  void AddCrossEdge(size_t from, size_t to, double weight);

  size_t Degree(size_t node) const { return neighbors[node].size(); }
  size_t NumEdges() const;
  double AverageDegree() const;

  /// Keeps only the top-k heaviest neighbors of every node, heaviest first;
  /// equal weights keep the earlier entries (TopKOrder).
  void TruncateTopK(size_t k);

  /// Consistency check: indices in range, parallel arrays, finite weights.
  void Validate() const;

  /// Validate() for bipartite graphs built with AddCrossEdge: targets must
  /// lie in [0, target_num_nodes) — the size of the OTHER node space.
  void ValidateCross(size_t target_num_nodes) const;
};

/// Compressed-sparse-row adjacency: the flat-array counterpart of
/// WeightedGraph for catalog-scale graphs (DESIGN.md §13). Node n's
/// neighbors occupy targets/weights[offsets[n], offsets[n+1]). Three flat
/// allocations regardless of node count, cache-friendly row scans, and
/// O(1) row views — at the price of append-only construction (CsrBuilder).
///
/// `num_targets` is the size of the target node space: equal to num_nodes
/// for ordinary graphs, the other side's size for bipartite adjacency.
struct CsrGraph {
  size_t num_nodes = 0;
  size_t num_targets = 0;
  std::vector<size_t> offsets;  ///< size num_nodes + 1; offsets[0] == 0
  std::vector<size_t> targets;
  std::vector<double> weights;

  size_t Degree(size_t node) const {
    return offsets[node + 1] - offsets[node];
  }
  size_t NumEdges() const { return targets.size(); }
  double AverageDegree() const;

  std::span<const size_t> Neighbors(size_t node) const {
    return std::span<const size_t>(targets.data() + offsets[node],
                                   Degree(node));
  }
  std::span<const double> Weights(size_t node) const {
    return std::span<const double>(weights.data() + offsets[node],
                                   Degree(node));
  }

  /// Keeps only the top-k heaviest neighbors of every node, compacting the
  /// flat arrays in place. Selects exactly the rows WeightedGraph's
  /// TruncateTopK would (both use TopKOrder).
  void TruncateTopK(size_t k);

  /// Consistency check: monotone offsets, targets < num_targets == num_nodes,
  /// finite weights. For bipartite graphs use ValidateCross.
  void Validate() const;

  /// Validate() for bipartite adjacency: targets < target_num_nodes, which
  /// must equal num_targets.
  void ValidateCross(size_t target_num_nodes) const;

  /// Dense <-> flat conversions (test helpers and migration aids).
  static CsrGraph FromWeighted(const WeightedGraph& graph);
  WeightedGraph ToWeighted() const;
};

/// Incremental CSR construction for builders that emit edges grouped by
/// source node in nondecreasing order (all of attribute_graph.cc does).
class CsrBuilder {
 public:
  /// `num_targets` defaults to num_nodes (ordinary graph).
  explicit CsrBuilder(size_t num_nodes, size_t num_targets = 0);

  /// Adds an edge; `from` must be >= every previously added source.
  void AddEdge(size_t from, size_t to, double weight);

  CsrGraph Finish() &&;

 private:
  CsrGraph graph_;
};

/// Samples exactly `count` neighbors of `node`, proportionally to edge
/// weight, with replacement when the neighborhood is smaller than `count`.
/// Isolated nodes fall back to `count` copies of the node itself (a
/// self-loop), which turns the aggregation step into an identity — the
/// correct degenerate behaviour for a node with no usable neighbors.
std::vector<size_t> SampleNeighbors(const WeightedGraph& graph, size_t node,
                                    size_t count, Rng* rng);
std::vector<size_t> SampleNeighbors(const CsrGraph& graph, size_t node,
                                    size_t count, Rng* rng);

/// Appending form of SampleNeighbors: pushes the `count` sampled ids onto
/// `out` without clearing it, so batched callers fill one flat [B*S] list
/// with no per-node vector. Identical RNG consumption and results.
///
/// The WeightedGraph and CsrGraph overloads share one row-level core, so on
/// the same adjacency and seed they consume the RNG identically and return
/// identical samples — the §13 migration guarantee that switching a caller
/// to CSR changes no experiment.
void SampleNeighborsInto(const WeightedGraph& graph, size_t node, size_t count,
                         Rng* rng, std::vector<size_t>* out);
void SampleNeighborsInto(const CsrGraph& graph, size_t node, size_t count,
                         Rng* rng, std::vector<size_t>* out);

/// Selection order of one row's top-k: indices into the row under the total
/// order (weight descending, then position ascending), so equal weights go
/// to the lowest positions. Shared by WeightedGraph, CsrGraph, and
/// DynamicKnnGraph so the truncation paths cannot drift. Requires
/// k <= w.size().
std::vector<size_t> TopKOrder(std::span<const double> w, size_t k);

/// Row-level weighted sampling core behind every SampleNeighborsInto
/// overload (including DynamicKnnGraph's). Any change here changes every
/// sampled experiment in the repo — all representations consume the RNG
/// through this one function, which is what keeps them
/// bitwise-interchangeable. Empty rows fall back to `count` copies of
/// `node` (the self-loop degenerate case).
void SampleRowInto(std::span<const size_t> adj, std::span<const double> w,
                   size_t node, size_t count, Rng* rng,
                   std::vector<size_t>* out);

}  // namespace agnn::graph

#endif  // AGNN_GRAPH_GRAPH_H_
