#ifndef AGNN_GRAPH_DYNAMIC_GRAPH_H_
#define AGNN_GRAPH_DYNAMIC_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "agnn/common/rng.h"
#include "agnn/graph/graph.h"

namespace agnn::graph {

/// Appendable top-k attribute-proximity graph (DESIGN.md §17): the dynamic
/// counterpart of BuildKnnGraph(PairwiseBinaryCosine(slots), k) for the
/// online cold-start ingestion path.
///
/// Only each node's top-k adjacency row is kept (memory O(N·k)); full
/// similarity rows are never materialized. InsertNode finds the new node's
/// co-occurring nodes through the inverted slot index, computes its own row,
/// and updates every neighbor's row eagerly and exactly:
///  - a row of degree < k appends the new node (it stays in ascending-id
///    order, as TruncateTopK leaves short rows);
///  - a row going from k to k+1 entries takes TopKOrder over all k+1;
///  - a full row admits the new node iff `sim > kth weight`, placed after
///    every equal weight. The new node has the maximum id, so under
///    TopKOrder's (weight descending, position ascending) total order it
///    loses every tie, and top-k(row ∪ {new}) == top-k(top-k(row) ∪ {new}).
/// The constructor builds by the same inserts, in id order.
///
/// Rebuild-equivalence contract: after any insert sequence, Flatten() is
/// byte-for-byte equal to BuildKnnGraph(PairwiseBinaryCosine(all slots), k)
/// over the post-insert slot catalog (enforced by dynamic_graph_test):
///  - binary-cosine dots are exact small-integer counts, so the counting
///    order cannot differ from the batch builder's accumulation;
///  - `sim = dot / (norms[u] * norms[v])` sees the identical float operands
///    in both directions (IEEE float multiplication is commutative);
///  - both paths select under the same total order, which depends only on
///    (weight, id), never on the rest of the row.
class DynamicKnnGraph {
 public:
  struct InsertResult {
    size_t id = 0;
    /// Pre-existing nodes with non-zero similarity to the new node.
    size_t linked = 0;
    /// Pre-existing adjacency rows the insert changed: the new node entered
    /// their top-k, or the row first exceeded k and was reordered.
    size_t rewritten = 0;
  };

  /// `slots[n]` are node n's active attribute slots, sorted strictly
  /// ascending, each < num_slots (the Dataset attr convention). The initial
  /// adjacency equals BuildKnnGraph(PairwiseBinaryCosine(slots, num_slots),
  /// k); counters start at zero.
  DynamicKnnGraph(const std::vector<std::vector<size_t>>& slots,
                  size_t num_slots, size_t k);

  /// Inserts one node with the given slots (same convention as the
  /// constructor) and returns its id (== previous num_nodes()) plus its
  /// churn. An attribute-free node is inserted isolated, as the batch
  /// builder would leave it.
  InsertResult InsertNode(const std::vector<size_t>& slots);

  size_t num_nodes() const { return norms_.size(); }
  size_t num_slots() const { return by_slot_.size(); }
  size_t k() const { return k_; }

  /// Top-k adjacency row views, valid until the next InsertNode.
  std::span<const size_t> Neighbors(size_t node) const;
  std::span<const double> Weights(size_t node) const;

  /// Weighted neighbor sampling through the shared SampleRowInto core:
  /// identical RNG consumption and samples as SampleNeighborsInto on the
  /// flattened CSR graph.
  void SampleNeighborsInto(size_t node, size_t count, Rng* rng,
                           std::vector<size_t>* out) const;

  /// Materializes the CSR adjacency. Equals a from-scratch BuildKnnGraph
  /// over the current slot catalog, byte for byte — the §17
  /// rebuild-equivalence contract.
  CsrGraph Flatten() const;

  /// Cumulative churn of InsertNode calls since construction: adjacency
  /// rows rewritten (InsertResult::rewritten) and edges linked
  /// (InsertResult::linked).
  uint64_t rows_refreshed() const { return rows_refreshed_; }
  uint64_t edges_linked() const { return edges_linked_; }

 private:
  /// Merges the new node `id` with similarity `sim` into `node`'s row;
  /// returns whether the row changed.
  bool LinkInto(size_t node, size_t id, double sim);

  size_t k_ = 0;
  /// Inverted index slot -> nodes active on it, ascending id (appends keep
  /// it sorted because inserted ids are maximal).
  std::vector<std::vector<size_t>> by_slot_;
  std::vector<float> norms_;
  /// Number of nodes with non-zero similarity to each node; the row holds
  /// min(degree, k) of them.
  std::vector<size_t> degree_;
  /// Row n occupies [n * k, n * k + min(degree_[n], k)).
  std::vector<size_t> adj_;
  std::vector<double> adj_w_;
  /// InsertNode scratch: a dense per-node shared-slot counter (then the
  /// similarity), all zero between inserts, and the nodes it touched.
  std::vector<float> dots_;
  std::vector<size_t> candidates_;
  uint64_t rows_refreshed_ = 0;
  uint64_t edges_linked_ = 0;
};

}  // namespace agnn::graph

#endif  // AGNN_GRAPH_DYNAMIC_GRAPH_H_
