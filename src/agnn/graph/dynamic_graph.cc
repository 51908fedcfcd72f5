#include "agnn/graph/dynamic_graph.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "agnn/common/logging.h"

namespace agnn::graph {

DynamicKnnGraph::DynamicKnnGraph(const std::vector<std::vector<size_t>>& slots,
                                 size_t num_slots, size_t k)
    : k_(k), by_slot_(num_slots) {
  AGNN_CHECK_GT(k_, 0u);
  norms_.reserve(slots.size());
  degree_.reserve(slots.size());
  adj_.reserve(slots.size() * k_);
  adj_w_.reserve(slots.size() * k_);
  dots_.reserve(slots.size());
  for (const auto& node : slots) InsertNode(node);
  rows_refreshed_ = 0;
  edges_linked_ = 0;
}

DynamicKnnGraph::InsertResult DynamicKnnGraph::InsertNode(
    const std::vector<size_t>& slots) {
  // The Dataset convention (sorted strictly ascending, in range) is what
  // keeps the inverted index ordered and the attribute forward
  // deterministic.
  for (size_t i = 0; i < slots.size(); ++i) {
    AGNN_CHECK_LT(slots[i], num_slots());
    if (i > 0) AGNN_CHECK_LT(slots[i - 1], slots[i]);
  }
  const size_t id = num_nodes();
  InsertResult result;
  result.id = id;
  // Same norm arithmetic as PairwiseSparseCosine: float sum of v*v (v == 1),
  // then float sqrt.
  float norm = 0.0f;
  for (size_t i = 0; i < slots.size(); ++i) norm += 1.0f;
  norms_.push_back(std::sqrt(norm));
  degree_.push_back(0);
  adj_.resize(adj_.size() + k_);
  adj_w_.resize(adj_w_.size() + k_);
  dots_.push_back(0.0f);

  // The new node's dots against every co-occurring node, counted through
  // the inverted index into the dense scratch. Binary dots are exact
  // integer counts, so this cannot differ from the batch accumulation; id
  // is not indexed yet, so no self-pair can appear.
  candidates_.clear();
  for (size_t s : slots) {
    for (size_t w : by_slot_[s]) {
      if (dots_[w] == 0.0f) candidates_.push_back(w);
      dots_[w] += 1.0f;
    }
  }
  // Two non-empty slot sets sharing a slot have sim >= 1 / num_slots > 0,
  // so every candidate passes the batch builder's `sim > 0` filter. The
  // value is bitwise the one a rebuild computes for either row, because
  // norms_[id] * norms_[w] == norms_[w] * norms_[id].
  for (size_t w : candidates_) {
    const float sim = dots_[w] / (norms_[id] * norms_[w]);
    dots_[w] = sim;
    if (LinkInto(w, id, sim)) result.rewritten += 1;
  }
  result.linked = candidates_.size();

  // The new node's own row: ascending id when it fits in k (TruncateTopK
  // leaves short rows as built), else the top-k under TopKOrder's total
  // order — ids ascend with row position in the batch row.
  const size_t keep = std::min(candidates_.size(), k_);
  if (candidates_.size() > k_) {
    std::partial_sort(candidates_.begin(),
                      candidates_.begin() + static_cast<ptrdiff_t>(k_),
                      candidates_.end(), [this](size_t a, size_t b) {
                        return dots_[a] > dots_[b] ||
                               (dots_[a] == dots_[b] && a < b);
                      });
  } else {
    std::sort(candidates_.begin(), candidates_.end());
  }
  for (size_t i = 0; i < keep; ++i) {
    adj_[id * k_ + i] = candidates_[i];
    adj_w_[id * k_ + i] = dots_[candidates_[i]];  // float -> double is exact
  }
  degree_[id] = candidates_.size();
  for (size_t w : candidates_) dots_[w] = 0.0f;
  for (size_t s : slots) by_slot_[s].push_back(id);

  rows_refreshed_ += result.rewritten;
  edges_linked_ += result.linked;
  return result;
}

bool DynamicKnnGraph::LinkInto(size_t node, size_t id, double sim) {
  size_t* adj = adj_.data() + node * k_;
  double* w = adj_w_.data() + node * k_;
  const size_t degree = degree_[node]++;
  if (degree < k_) {
    // Short row: still every neighbor, ascending id; id is the maximum.
    adj[degree] = id;
    w[degree] = sim;
    return true;
  }
  if (degree == k_) {
    // The row first exceeds k: select over all k + 1 entries exactly as
    // TruncateTopK does over the batch row (ascending id, new node last).
    std::vector<double> merged(w, w + k_);
    merged.push_back(sim);
    const std::vector<size_t> order = TopKOrder(merged, k_);
    std::vector<size_t> ids(adj, adj + k_);
    ids.push_back(id);
    bool changed = false;
    for (size_t i = 0; i < k_; ++i) {
      changed |= order[i] != i;
      adj[i] = ids[order[i]];
      w[i] = merged[order[i]];
    }
    return changed;
  }
  // Full row, heaviest first. The new node loses every tie, so it enters
  // only above the k-th weight and lands after all equal weights.
  if (!(sim > w[k_ - 1])) return false;
  size_t pos = k_ - 1;
  for (; pos > 0 && w[pos - 1] < sim; --pos) {
    adj[pos] = adj[pos - 1];
    w[pos] = w[pos - 1];
  }
  adj[pos] = id;
  w[pos] = sim;
  return true;
}

std::span<const size_t> DynamicKnnGraph::Neighbors(size_t node) const {
  AGNN_CHECK_LT(node, num_nodes());
  return {adj_.data() + node * k_, std::min(degree_[node], k_)};
}

std::span<const double> DynamicKnnGraph::Weights(size_t node) const {
  AGNN_CHECK_LT(node, num_nodes());
  return {adj_w_.data() + node * k_, std::min(degree_[node], k_)};
}

void DynamicKnnGraph::SampleNeighborsInto(size_t node, size_t count, Rng* rng,
                                          std::vector<size_t>* out) const {
  SampleRowInto(Neighbors(node), Weights(node), node, count, rng, out);
}

CsrGraph DynamicKnnGraph::Flatten() const {
  CsrBuilder builder(num_nodes());
  for (size_t u = 0; u < num_nodes(); ++u) {
    const auto adj = Neighbors(u);
    const auto w = Weights(u);
    for (size_t i = 0; i < adj.size(); ++i) builder.AddEdge(u, adj[i], w[i]);
  }
  CsrGraph graph = std::move(builder).Finish();
  graph.Validate();
  return graph;
}

}  // namespace agnn::graph
