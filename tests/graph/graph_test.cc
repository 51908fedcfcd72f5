#include "agnn/graph/graph.h"

#include <set>

#include <gtest/gtest.h>

namespace agnn::graph {
namespace {

WeightedGraph Triangle() {
  WeightedGraph g;
  g.Resize(3);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 2.0);
  g.AddEdge(1, 0, 1.0);
  g.AddEdge(2, 0, 2.0);
  return g;
}

TEST(WeightedGraphTest, DegreeAndEdgeCounts) {
  WeightedGraph g = Triangle();
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_NEAR(g.AverageDegree(), 4.0 / 3.0, 1e-9);
  g.Validate();
}

TEST(WeightedGraphTest, TruncateTopKKeepsHeaviest) {
  WeightedGraph g;
  g.Resize(2);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 1, 5.0);
  g.AddEdge(0, 1, 3.0);
  g.TruncateTopK(2);
  ASSERT_EQ(g.Degree(0), 2u);
  std::multiset<double> kept(g.weights[0].begin(), g.weights[0].end());
  EXPECT_EQ(kept.count(5.0), 1u);
  EXPECT_EQ(kept.count(3.0), 1u);
}

// TopKOrder is a total order (weight descending, then position ascending):
// ties at the k boundary go to the lowest positions whatever the rest of the
// row holds, and WeightedGraph/CsrGraph truncation inherit that pick.
TEST(TopKOrderTest, TiesAtKBoundaryPickLowestPositions) {
  const std::vector<double> w = {1.0, 2.0, 1.0, 3.0, 1.0, 2.0, 1.0, 0.5, 1.0};
  EXPECT_EQ(TopKOrder(w, 1), (std::vector<size_t>{3}));
  EXPECT_EQ(TopKOrder(w, 3), (std::vector<size_t>{3, 1, 5}));
  EXPECT_EQ(TopKOrder(w, 5), (std::vector<size_t>{3, 1, 5, 0, 2}));
  EXPECT_EQ(TopKOrder(w, 7), (std::vector<size_t>{3, 1, 5, 0, 2, 4, 6}));
  // All-equal rows keep their first k positions in order.
  const std::vector<double> flat(20, 0.25);
  EXPECT_EQ(TopKOrder(flat, 4), (std::vector<size_t>{0, 1, 2, 3}));

  WeightedGraph g;
  g.Resize(10);
  for (size_t v = 1; v < 10; ++v) g.AddEdge(0, v, w[v - 1]);
  CsrGraph csr = CsrGraph::FromWeighted(g);
  g.TruncateTopK(5);
  csr.TruncateTopK(5);
  EXPECT_EQ(g.neighbors[0], (std::vector<size_t>{4, 2, 6, 1, 3}));
  EXPECT_EQ(g.weights[0], (std::vector<double>{3.0, 2.0, 2.0, 1.0, 1.0}));
  EXPECT_EQ(csr.ToWeighted().neighbors, g.neighbors);
}

TEST(WeightedGraphTest, TruncateNoopWhenSmall) {
  WeightedGraph g = Triangle();
  g.TruncateTopK(10);
  EXPECT_EQ(g.NumEdges(), 4u);
}

TEST(SampleNeighborsTest, ReturnsExactCount) {
  WeightedGraph g = Triangle();
  Rng rng(1);
  auto sample = SampleNeighbors(g, 0, 7, &rng);
  EXPECT_EQ(sample.size(), 7u);
  for (size_t v : sample) EXPECT_TRUE(v == 1 || v == 2);
}

TEST(SampleNeighborsTest, IncludesWholeSmallNeighborhood) {
  WeightedGraph g = Triangle();
  Rng rng(2);
  auto sample = SampleNeighbors(g, 0, 5, &rng);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_TRUE(unique.count(1));
  EXPECT_TRUE(unique.count(2));
}

TEST(SampleNeighborsTest, IsolatedNodeFallsBackToSelf) {
  WeightedGraph g;
  g.Resize(4);
  Rng rng(3);
  auto sample = SampleNeighbors(g, 2, 3, &rng);
  ASSERT_EQ(sample.size(), 3u);
  for (size_t v : sample) EXPECT_EQ(v, 2u);
}

TEST(SampleNeighborsTest, WeightsBiasSelection) {
  WeightedGraph g;
  g.Resize(3);
  g.AddEdge(0, 1, 9.0);
  g.AddEdge(0, 2, 1.0);
  Rng rng(4);
  size_t picked_heavy = 0;
  const size_t trials = 3000;
  for (size_t t = 0; t < trials; ++t) {
    // Ask for 1 so the whole-neighborhood shortcut doesn't trigger.
    auto sample = SampleNeighbors(g, 0, 1, &rng);
    if (sample[0] == 1) ++picked_heavy;
  }
  EXPECT_NEAR(static_cast<double>(picked_heavy) / trials, 0.9, 0.03);
}

TEST(SampleNeighborsTest, LargeNeighborhoodSamplesSubset) {
  WeightedGraph g;
  g.Resize(30);
  for (size_t v = 1; v < 30; ++v) g.AddEdge(0, v, 1.0);
  Rng rng(5);
  auto sample = SampleNeighbors(g, 0, 10, &rng);
  EXPECT_EQ(sample.size(), 10u);
  for (size_t v : sample) {
    EXPECT_GE(v, 1u);
    EXPECT_LT(v, 30u);
  }
}

// --- CSR adjacency (DESIGN.md §13) ---------------------------------------

WeightedGraph RaggedFixture() {
  // Mixed degrees, an isolated node (2), duplicate targets, and tied
  // weights — the cases where CSR and vector-of-vectors could diverge.
  WeightedGraph g;
  g.Resize(6);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(0, 2, 2.0);
  g.AddEdge(0, 3, 2.0);  // tie with the previous edge
  g.AddEdge(1, 0, 4.0);
  g.AddEdge(3, 4, 0.5);
  g.AddEdge(3, 4, 0.25);  // duplicate target
  g.AddEdge(4, 5, 1.0);
  g.AddEdge(5, 0, 3.0);
  g.AddEdge(5, 1, 1.0);
  g.AddEdge(5, 2, 2.0);
  return g;
}

TEST(CsrGraphTest, FromWeightedPreservesEveryRow) {
  WeightedGraph dense = RaggedFixture();
  CsrGraph csr = CsrGraph::FromWeighted(dense);
  csr.Validate();
  ASSERT_EQ(csr.num_nodes, dense.num_nodes);
  EXPECT_EQ(csr.num_targets, dense.num_nodes);
  EXPECT_EQ(csr.NumEdges(), dense.NumEdges());
  for (size_t n = 0; n < dense.num_nodes; ++n) {
    ASSERT_EQ(csr.Degree(n), dense.Degree(n)) << "node " << n;
    const auto neighbors = csr.Neighbors(n);
    const auto weights = csr.Weights(n);
    for (size_t k = 0; k < dense.Degree(n); ++k) {
      EXPECT_EQ(neighbors[k], dense.neighbors[n][k]);
      EXPECT_DOUBLE_EQ(weights[k], dense.weights[n][k]);
    }
  }
}

TEST(CsrGraphTest, RoundTripsThroughToWeighted) {
  WeightedGraph dense = RaggedFixture();
  WeightedGraph back = CsrGraph::FromWeighted(dense).ToWeighted();
  EXPECT_EQ(back.neighbors, dense.neighbors);
  EXPECT_EQ(back.weights, dense.weights);
}

TEST(CsrGraphTest, SampleNeighborsMatchesWeightedGraphBitwise) {
  // The §13 migration guarantee: on the same adjacency and seed, the CSR
  // sampler returns the same picks AND leaves the RNG in the same state as
  // the WeightedGraph sampler (checked via the next raw draw).
  WeightedGraph dense = RaggedFixture();
  CsrGraph csr = CsrGraph::FromWeighted(dense);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng dense_rng(seed);
    Rng csr_rng(seed);
    for (size_t node = 0; node < dense.num_nodes; ++node) {
      for (size_t count : {1, 2, 5}) {
        auto a = SampleNeighbors(dense, node, count, &dense_rng);
        auto b = SampleNeighbors(csr, node, count, &csr_rng);
        EXPECT_EQ(a, b) << "node " << node << " count " << count;
      }
    }
    EXPECT_EQ(dense_rng.UniformInt(1u << 30), csr_rng.UniformInt(1u << 30))
        << "RNG streams diverged at seed " << seed;
  }
}

TEST(CsrGraphTest, SampleNeighborsIntoAppendsWithoutClearing) {
  CsrGraph csr = CsrGraph::FromWeighted(RaggedFixture());
  Rng rng(11);
  std::vector<size_t> flat = {99};
  SampleNeighborsInto(csr, 0, 4, &rng, &flat);
  ASSERT_EQ(flat.size(), 5u);
  EXPECT_EQ(flat[0], 99u);
}

TEST(CsrGraphTest, IsolatedNodeFallsBackToSelf) {
  CsrGraph csr = CsrGraph::FromWeighted(RaggedFixture());
  Rng rng(12);
  auto sample = SampleNeighbors(csr, 2, 3, &rng);
  ASSERT_EQ(sample.size(), 3u);
  for (size_t v : sample) EXPECT_EQ(v, 2u);
}

TEST(CsrGraphTest, TruncateTopKMatchesWeightedGraphIncludingTies) {
  WeightedGraph dense = RaggedFixture();
  CsrGraph csr = CsrGraph::FromWeighted(dense);
  for (size_t k : {1, 2, 3, 10}) {
    WeightedGraph dense_k = dense;
    CsrGraph csr_k = csr;
    dense_k.TruncateTopK(k);
    csr_k.TruncateTopK(k);
    csr_k.Validate();
    WeightedGraph back = csr_k.ToWeighted();
    EXPECT_EQ(back.neighbors, dense_k.neighbors) << "k=" << k;
    EXPECT_EQ(back.weights, dense_k.weights) << "k=" << k;
  }
}

TEST(CsrBuilderTest, HandlesGapsAndTrailingIsolatedNodes) {
  CsrBuilder builder(5);
  builder.AddEdge(1, 0, 1.0);
  builder.AddEdge(1, 2, 2.0);
  builder.AddEdge(3, 4, 3.0);
  CsrGraph g = std::move(builder).Finish();
  g.Validate();
  ASSERT_EQ(g.offsets.size(), 6u);
  EXPECT_EQ(g.Degree(0), 0u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_EQ(g.Degree(3), 1u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(CsrBuilderTest, RejectsOutOfOrderSources) {
  EXPECT_DEATH(
      {
        CsrBuilder builder(3);
        builder.AddEdge(2, 0, 1.0);
        builder.AddEdge(1, 0, 1.0);
      },
      "");
}

TEST(CsrGraphTest, ValidateCrossAcceptsBipartiteTargets) {
  CsrBuilder builder(2, /*num_targets=*/7);
  builder.AddEdge(0, 6, 1.0);
  builder.AddEdge(1, 3, 1.0);
  CsrGraph g = std::move(builder).Finish();
  g.ValidateCross(7);
}

TEST(WeightedGraphTest, ValidateCrossRejectsOutOfRangeTargets) {
  WeightedGraph g;
  g.Resize(2);
  g.AddCrossEdge(0, 6, 1.0);
  g.ValidateCross(7);  // in range: fine
  EXPECT_DEATH(g.ValidateCross(5), "");
}

}  // namespace
}  // namespace agnn::graph
