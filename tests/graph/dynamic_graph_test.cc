#include "agnn/graph/dynamic_graph.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "agnn/common/rng.h"
#include "agnn/graph/attribute_graph.h"
#include "agnn/graph/graph.h"
#include "agnn/graph/proximity.h"

namespace agnn::graph {
namespace {

// The §17 rebuild-equivalence oracle: what a from-scratch build over the
// same slot catalog produces.
CsrGraph BatchBuild(const std::vector<std::vector<size_t>>& slots,
                    size_t num_slots, size_t k) {
  return BuildKnnGraph(PairwiseBinaryCosine(slots, num_slots), k);
}

// Byte-for-byte CSR equality — weights compared as exact doubles, not
// within a tolerance, because the contract is bitwise.
void ExpectCsrIdentical(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_nodes, b.num_nodes);
  ASSERT_EQ(a.offsets, b.offsets);
  ASSERT_EQ(a.targets, b.targets);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  if (!a.weights.empty()) {
    EXPECT_EQ(std::memcmp(a.weights.data(), b.weights.data(),
                          a.weights.size() * sizeof(double)),
              0);
  }
}

std::vector<std::vector<size_t>> RandomSlots(size_t nodes, size_t num_slots,
                                             size_t per_node, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<size_t>> slots(nodes);
  for (auto& row : slots) {
    std::vector<bool> active(num_slots, false);
    for (size_t i = 0; i < per_node; ++i) {
      active[rng.UniformInt(num_slots)] = true;
    }
    for (size_t s = 0; s < num_slots; ++s) {
      if (active[s]) row.push_back(s);
    }
  }
  return slots;
}

TEST(DynamicKnnGraphTest, InitialGraphMatchesBatchBuilder) {
  const auto slots = RandomSlots(40, 12, 4, 7);
  DynamicKnnGraph dynamic(slots, 12, 5);
  ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, 12, 5));
  EXPECT_EQ(dynamic.rows_refreshed(), 0u);
  EXPECT_EQ(dynamic.edges_linked(), 0u);
}

TEST(DynamicKnnGraphTest, InsertSequenceMatchesRebuildByteForByte) {
  auto slots = RandomSlots(30, 10, 3, 11);
  DynamicKnnGraph dynamic(slots, 10, 4);
  const auto arrivals = RandomSlots(12, 10, 3, 99);
  for (const auto& node : arrivals) {
    const auto inserted = dynamic.InsertNode(node);
    slots.push_back(node);
    EXPECT_EQ(inserted.id, slots.size() - 1);
    ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, 10, 4));
  }
}

TEST(DynamicKnnGraphTest, TiedSimilaritiesMatchRebuild) {
  // Every node shares the identical slot set, so every pairwise similarity
  // is exactly 1.0 and the top-k selection is pure tie-breaking — the
  // incremental insert must reproduce TopKOrder's tie order, not just
  // "some" top-k.
  std::vector<std::vector<size_t>> slots(9, {0, 1});
  DynamicKnnGraph dynamic(slots, 4, 3);
  for (size_t i = 0; i < 4; ++i) {
    dynamic.InsertNode({0, 1});
    slots.push_back({0, 1});
    ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, 4, 3));
  }
}

TEST(DynamicKnnGraphTest, KLargerThanCandidatePoolKeepsAscendingRows) {
  // 3 nodes sharing a slot, k = 8: rows are shorter than k, and
  // TruncateTopK leaves short rows in ascending-id order.
  std::vector<std::vector<size_t>> slots = {{0}, {0, 1}, {0, 2}};
  DynamicKnnGraph dynamic(slots, 4, 8);
  const auto inserted = dynamic.InsertNode({0, 3});
  slots.push_back({0, 3});
  EXPECT_EQ(inserted.linked, 3u);
  EXPECT_EQ(inserted.rewritten, 3u);
  for (size_t n = 0; n < dynamic.num_nodes(); ++n) {
    const auto row = dynamic.Neighbors(n);
    ASSERT_LE(row.size(), 8u);
    for (size_t i = 1; i < row.size(); ++i) EXPECT_LT(row[i - 1], row[i]);
  }
  ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, 4, 8));
}

TEST(DynamicKnnGraphTest, NodesNeverNeighborThemselves) {
  auto slots = RandomSlots(20, 6, 3, 3);
  DynamicKnnGraph dynamic(slots, 6, 4);
  for (size_t i = 0; i < 6; ++i) {
    dynamic.InsertNode(RandomSlots(1, 6, 3, 1000 + i)[0]);
  }
  for (size_t n = 0; n < dynamic.num_nodes(); ++n) {
    for (size_t v : dynamic.Neighbors(n)) EXPECT_NE(v, n);
  }
}

TEST(DynamicKnnGraphTest, AttributeFreeNodeInsertsIsolated) {
  auto slots = RandomSlots(10, 5, 2, 21);
  slots[4].clear();  // a zero-norm base node stays isolated too
  DynamicKnnGraph dynamic(slots, 5, 3);
  const auto inserted = dynamic.InsertNode({});
  slots.push_back({});
  EXPECT_EQ(inserted.linked, 0u);
  EXPECT_TRUE(dynamic.Neighbors(inserted.id).empty());
  EXPECT_TRUE(dynamic.Neighbors(4).empty());
  ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, 5, 3));
  // And later arrivals still never link the attribute-free nodes.
  dynamic.InsertNode({0, 1, 2, 3, 4});
  slots.push_back({0, 1, 2, 3, 4});
  EXPECT_TRUE(dynamic.Neighbors(inserted.id).empty());
  ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, 5, 3));
}

TEST(DynamicKnnGraphTest, SamplingMatchesFlattenedCsr) {
  auto slots = RandomSlots(25, 8, 3, 17);
  DynamicKnnGraph dynamic(slots, 8, 4);
  for (size_t i = 0; i < 5; ++i) {
    dynamic.InsertNode(RandomSlots(1, 8, 3, 500 + i)[0]);
  }
  CsrGraph flat = dynamic.Flatten();
  for (size_t n = 0; n < flat.num_nodes; ++n) {
    Rng a(42 + n);
    Rng b(42 + n);
    std::vector<size_t> from_dynamic;
    std::vector<size_t> from_csr;
    dynamic.SampleNeighborsInto(n, 6, &a, &from_dynamic);
    SampleNeighborsInto(flat, n, 6, &b, &from_csr);
    EXPECT_EQ(from_dynamic, from_csr) << "node " << n;
  }
}

std::vector<size_t> Ids(std::span<const size_t> row) {
  return std::vector<size_t>(row.begin(), row.end());
}

// rows_refreshed counts only rows an insert rewrote: appends to short rows,
// the first truncation to k when it reorders, and entries into full rows.
TEST(DynamicKnnGraphTest, ChurnCountersCountRewrittenRows) {
  std::vector<std::vector<size_t>> slots = {{0}, {0}, {1}};
  DynamicKnnGraph dynamic(slots, 3, 2);
  const auto check = [&](const std::vector<size_t>& node, size_t linked,
                          size_t rewritten) {
    const auto inserted = dynamic.InsertNode(node);
    slots.push_back(node);
    EXPECT_EQ(inserted.linked, linked) << "node " << inserted.id;
    EXPECT_EQ(inserted.rewritten, rewritten) << "node " << inserted.id;
    ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, 3, 2));
  };
  check({0}, 2, 2);     // 3: appended to rows 0 and 1
  check({0}, 3, 0);     // 4: rows 0, 1, 3 reach k+1, all ties: unchanged
  EXPECT_EQ(Ids(dynamic.Neighbors(0)), (std::vector<size_t>{1, 3}));
  check({0, 1}, 5, 1);  // 5: only row 2 (empty) takes it; 0.707 < 1.0
  check({1}, 2, 1);     // 6: row 2 appends; row 5 ties its k-th and loses
  EXPECT_EQ(Ids(dynamic.Neighbors(5)), (std::vector<size_t>{0, 1}));
  check({1}, 3, 2);     // 7: rows 2 and 6 truncate to k and reorder
  EXPECT_EQ(Ids(dynamic.Neighbors(2)), (std::vector<size_t>{6, 7}));
  check({0, 1}, 8, 1);  // 8: sim 1.0 enters row 5 ahead of its 0.707s
  EXPECT_EQ(Ids(dynamic.Neighbors(5)), (std::vector<size_t>{8, 0}));
  EXPECT_EQ(dynamic.edges_linked(), 2u + 3u + 5u + 2u + 3u + 8u);
  EXPECT_EQ(dynamic.rows_refreshed(), 2u + 0u + 1u + 1u + 2u + 1u);
}

// Tie-heavy random sequences: a 4-slot universe with 1-2 active slots per
// node makes most similarities collide, rows cross k -> k+1 under every k,
// and a fifth of the arrivals are attribute-free. The contract holds after
// every single insert.
TEST(DynamicKnnGraphTest, TieHeavyRandomInsertsMatchRebuildAfterEveryInsert) {
  constexpr size_t kSlots = 4;
  for (size_t k : {size_t{1}, size_t{2}, size_t{8}}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed * 100 + k);
      const auto draw = [&rng] {
        std::vector<size_t> node;
        if (rng.UniformInt(5) == 0) return node;  // attribute-free arrival
        const size_t a = rng.UniformInt(kSlots);
        const size_t b = rng.UniformInt(kSlots);
        node.push_back(std::min(a, b));
        if (a != b) node.push_back(std::max(a, b));
        return node;
      };
      std::vector<std::vector<size_t>> slots;
      for (size_t i = 0; i < 5; ++i) slots.push_back(draw());
      DynamicKnnGraph dynamic(slots, kSlots, k);
      ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, kSlots, k));
      for (size_t i = 0; i < 40; ++i) {
        slots.push_back(draw());
        dynamic.InsertNode(slots.back());
        ExpectCsrIdentical(dynamic.Flatten(), BatchBuild(slots, kSlots, k));
        if (::testing::Test::HasFailure()) {
          FAIL() << "k=" << k << " seed=" << seed << " insert " << i;
        }
      }
    }
  }
}

// Scale: 20k arrivals under the ml100k user schema (gender 2, age 7,
// occupation 21; one slot each), where every node shares a slot with about
// half the catalog and similarities take only three values. A batch rebuild
// would hold ~2e8 pairs, so exactness is checked row by row instead,
// against a brute-force top-k with the batch builder's arithmetic.
TEST(DynamicKnnGraphTest, TwentyThousandInsertsKeepRowsBoundedAndExact) {
  constexpr size_t kSlots = 30;
  constexpr size_t kK = 8;
  Rng rng(2024);
  const auto draw = [&rng] {
    return std::vector<size_t>{rng.UniformInt(2), 2 + rng.UniformInt(7),
                               9 + rng.UniformInt(21)};
  };
  std::vector<std::vector<size_t>> slots;
  for (size_t i = 0; i < 943; ++i) slots.push_back(draw());
  DynamicKnnGraph dynamic(slots, kSlots, kK);
  const auto expect_exact_row = [&](size_t u) {
    const float norm_u = std::sqrt(static_cast<float>(slots[u].size()));
    std::vector<std::pair<double, size_t>> row;  // (-weight, id)
    for (size_t v = 0; v < slots.size(); ++v) {
      if (v == u) continue;
      float dot = 0.0f;
      for (size_t s : slots[v]) {
        if (std::binary_search(slots[u].begin(), slots[u].end(), s)) {
          dot += 1.0f;
        }
      }
      if (dot == 0.0f) continue;
      const float norm_v = std::sqrt(static_cast<float>(slots[v].size()));
      row.push_back({-static_cast<double>(dot / (norm_u * norm_v)), v});
    }
    if (row.size() > kK) {
      std::partial_sort(row.begin(), row.begin() + kK, row.end());
      row.resize(kK);
    }
    const auto adj = dynamic.Neighbors(u);
    const auto w = dynamic.Weights(u);
    ASSERT_EQ(adj.size(), row.size()) << "node " << u;
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(adj[i], row[i].second) << "node " << u << " pos " << i;
      EXPECT_EQ(w[i], -row[i].first) << "node " << u << " pos " << i;
    }
  };
  for (size_t i = 0; i < 20000; ++i) {
    slots.push_back(draw());
    const auto inserted = dynamic.InsertNode(slots.back());
    ASSERT_LE(dynamic.Neighbors(inserted.id).size(), kK);
    ASSERT_LE(inserted.rewritten, inserted.linked);
    if ((i + 1) % 5000 == 0) {
      for (size_t n = 0; n < dynamic.num_nodes(); ++n) {
        ASSERT_LE(dynamic.Neighbors(n).size(), kK) << "node " << n;
      }
      for (size_t probe = 0; probe < 8; ++probe) {
        expect_exact_row(rng.UniformInt(dynamic.num_nodes()));
      }
      expect_exact_row(inserted.id);
    }
  }
  EXPECT_EQ(dynamic.num_nodes(), 943u + 20000u);
}

}  // namespace
}  // namespace agnn::graph
