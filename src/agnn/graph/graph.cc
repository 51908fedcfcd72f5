#include "agnn/graph/graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "agnn/common/logging.h"

namespace agnn::graph {

std::vector<size_t> TopKOrder(std::span<const double> w, size_t k) {
  std::vector<size_t> order(w.size());
  std::iota(order.begin(), order.end(), 0);
  // Weight descending, then row position ascending: a total order, so the
  // pick depends only on each entry's (weight, position), never on how
  // partial_sort happens to break ties.
  std::partial_sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(k),
                    order.end(), [&w](size_t a, size_t b) {
                      return w[a] > w[b] || (w[a] == w[b] && a < b);
                    });
  order.resize(k);
  return order;
}

void SampleRowInto(std::span<const size_t> adj, std::span<const double> w,
                   size_t node, size_t count, Rng* rng,
                   std::vector<size_t>* out) {
  AGNN_CHECK(rng != nullptr);
  const size_t target_size = out->size() + count;
  if (adj.empty()) {
    out->insert(out->end(), count, node);
    return;
  }

  if (adj.size() <= count) {
    // Take the whole neighborhood, then top up with weighted replacement.
    out->insert(out->end(), adj.begin(), adj.end());
  }
  double total = 0.0;
  for (double x : w) total += std::max(x, 0.0);
  while (out->size() < target_size) {
    if (total <= 0.0) {
      out->push_back(adj[rng->UniformInt(adj.size())]);
      continue;
    }
    double target = rng->Uniform() * total;
    size_t pick = adj.size() - 1;
    for (size_t i = 0; i < adj.size(); ++i) {
      target -= std::max(w[i], 0.0);
      if (target < 0.0) {
        pick = i;
        break;
      }
    }
    out->push_back(adj[pick]);
  }
}

void WeightedGraph::AddEdge(size_t from, size_t to, double weight) {
  AGNN_CHECK_LT(from, num_nodes);
  AGNN_CHECK_LT(to, num_nodes);
  neighbors[from].push_back(to);
  weights[from].push_back(weight);
}

void WeightedGraph::AddCrossEdge(size_t from, size_t to, double weight) {
  AGNN_CHECK_LT(from, num_nodes);
  neighbors[from].push_back(to);
  weights[from].push_back(weight);
}

size_t WeightedGraph::NumEdges() const {
  size_t total = 0;
  for (const auto& adj : neighbors) total += adj.size();
  return total;
}

double WeightedGraph::AverageDegree() const {
  if (num_nodes == 0) return 0.0;
  return static_cast<double>(NumEdges()) / static_cast<double>(num_nodes);
}

void WeightedGraph::TruncateTopK(size_t k) {
  for (size_t n = 0; n < num_nodes; ++n) {
    auto& adj = neighbors[n];
    auto& w = weights[n];
    if (adj.size() <= k) continue;
    const std::vector<size_t> order = TopKOrder(w, k);
    std::vector<size_t> new_adj(k);
    std::vector<double> new_w(k);
    for (size_t i = 0; i < k; ++i) {
      new_adj[i] = adj[order[i]];
      new_w[i] = w[order[i]];
    }
    adj = std::move(new_adj);
    w = std::move(new_w);
  }
}

void WeightedGraph::Validate() const {
  AGNN_CHECK_EQ(neighbors.size(), num_nodes);
  AGNN_CHECK_EQ(weights.size(), num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    AGNN_CHECK_EQ(neighbors[n].size(), weights[n].size());
    for (size_t i = 0; i < neighbors[n].size(); ++i) {
      AGNN_CHECK_LT(neighbors[n][i], num_nodes);
      AGNN_CHECK(std::isfinite(weights[n][i]));
    }
  }
}

void WeightedGraph::ValidateCross(size_t target_num_nodes) const {
  AGNN_CHECK_EQ(neighbors.size(), num_nodes);
  AGNN_CHECK_EQ(weights.size(), num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    AGNN_CHECK_EQ(neighbors[n].size(), weights[n].size());
    for (size_t i = 0; i < neighbors[n].size(); ++i) {
      AGNN_CHECK_LT(neighbors[n][i], target_num_nodes);
      AGNN_CHECK(std::isfinite(weights[n][i]));
    }
  }
}

double CsrGraph::AverageDegree() const {
  if (num_nodes == 0) return 0.0;
  return static_cast<double>(NumEdges()) / static_cast<double>(num_nodes);
}

void CsrGraph::TruncateTopK(size_t k) {
  size_t write = 0;
  size_t row_begin = 0;  // pre-compaction offset of the current row
  for (size_t n = 0; n < num_nodes; ++n) {
    const size_t row_end = offsets[n + 1];
    const size_t degree = row_end - row_begin;
    offsets[n] = write;
    if (degree <= k) {
      // Rows are compacted left-to-right, so write <= row_begin and the
      // copy never overwrites unread entries.
      for (size_t i = 0; i < degree; ++i) {
        targets[write + i] = targets[row_begin + i];
        weights[write + i] = weights[row_begin + i];
      }
      write += degree;
    } else {
      const std::vector<size_t> order = TopKOrder(
          std::span<const double>(weights.data() + row_begin, degree), k);
      std::vector<size_t> new_adj(k);
      std::vector<double> new_w(k);
      for (size_t i = 0; i < k; ++i) {
        new_adj[i] = targets[row_begin + order[i]];
        new_w[i] = weights[row_begin + order[i]];
      }
      for (size_t i = 0; i < k; ++i) {
        targets[write + i] = new_adj[i];
        weights[write + i] = new_w[i];
      }
      write += k;
    }
    row_begin = row_end;
  }
  offsets[num_nodes] = write;
  targets.resize(write);
  weights.resize(write);
}

void CsrGraph::Validate() const {
  AGNN_CHECK_EQ(num_targets, num_nodes)
      << "bipartite CSR adjacency must use ValidateCross";
  ValidateCross(num_nodes);
}

void CsrGraph::ValidateCross(size_t target_num_nodes) const {
  AGNN_CHECK_EQ(target_num_nodes, num_targets);
  AGNN_CHECK_EQ(offsets.size(), num_nodes + 1);
  AGNN_CHECK_EQ(offsets[0], 0u);
  AGNN_CHECK_EQ(offsets[num_nodes], targets.size());
  AGNN_CHECK_EQ(targets.size(), weights.size());
  for (size_t n = 0; n < num_nodes; ++n) {
    AGNN_CHECK_LE(offsets[n], offsets[n + 1]);
    for (size_t i = offsets[n]; i < offsets[n + 1]; ++i) {
      AGNN_CHECK_LT(targets[i], target_num_nodes);
      AGNN_CHECK(std::isfinite(weights[i]));
    }
  }
}

CsrGraph CsrGraph::FromWeighted(const WeightedGraph& graph) {
  CsrBuilder builder(graph.num_nodes);
  for (size_t n = 0; n < graph.num_nodes; ++n) {
    for (size_t i = 0; i < graph.neighbors[n].size(); ++i) {
      builder.AddEdge(n, graph.neighbors[n][i], graph.weights[n][i]);
    }
  }
  return std::move(builder).Finish();
}

WeightedGraph CsrGraph::ToWeighted() const {
  WeightedGraph graph;
  graph.Resize(num_nodes);
  for (size_t n = 0; n < num_nodes; ++n) {
    for (size_t i = offsets[n]; i < offsets[n + 1]; ++i) {
      graph.neighbors[n].push_back(targets[i]);
      graph.weights[n].push_back(weights[i]);
    }
  }
  return graph;
}

CsrBuilder::CsrBuilder(size_t num_nodes, size_t num_targets) {
  graph_.num_nodes = num_nodes;
  graph_.num_targets = num_targets == 0 ? num_nodes : num_targets;
  graph_.offsets.reserve(num_nodes + 1);
  graph_.offsets.push_back(0);
}

void CsrBuilder::AddEdge(size_t from, size_t to, double weight) {
  AGNN_CHECK_LT(from, graph_.num_nodes);
  AGNN_CHECK_LT(to, graph_.num_targets);
  AGNN_CHECK_LE(graph_.offsets.size() - 1, from + 1)
      << "CsrBuilder edges must arrive grouped by nondecreasing source";
  while (graph_.offsets.size() <= from + 1) {
    graph_.offsets.push_back(graph_.targets.size());
  }
  graph_.targets.push_back(to);
  graph_.weights.push_back(weight);
  graph_.offsets[from + 1] = graph_.targets.size();
}

CsrGraph CsrBuilder::Finish() && {
  while (graph_.offsets.size() <= graph_.num_nodes) {
    graph_.offsets.push_back(graph_.targets.size());
  }
  return std::move(graph_);
}

std::vector<size_t> SampleNeighbors(const WeightedGraph& graph, size_t node,
                                    size_t count, Rng* rng) {
  std::vector<size_t> out;
  out.reserve(count);
  SampleNeighborsInto(graph, node, count, rng, &out);
  return out;
}

std::vector<size_t> SampleNeighbors(const CsrGraph& graph, size_t node,
                                    size_t count, Rng* rng) {
  std::vector<size_t> out;
  out.reserve(count);
  SampleNeighborsInto(graph, node, count, rng, &out);
  return out;
}

void SampleNeighborsInto(const WeightedGraph& graph, size_t node, size_t count,
                         Rng* rng, std::vector<size_t>* out) {
  AGNN_CHECK_LT(node, graph.num_nodes);
  SampleRowInto(graph.neighbors[node], graph.weights[node], node, count, rng,
                out);
}

void SampleNeighborsInto(const CsrGraph& graph, size_t node, size_t count,
                         Rng* rng, std::vector<size_t>* out) {
  AGNN_CHECK_LT(node, graph.num_nodes);
  SampleRowInto(graph.Neighbors(node), graph.Weights(node), node, count, rng,
                out);
}

}  // namespace agnn::graph
