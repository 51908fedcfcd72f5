// Contract tests for the online ingestion path (DESIGN.md §17): a session
// that ingests attribute-only nodes serves its pre-existing rows exactly as
// a session that never ingested, serves each ingested row exactly as the
// cold-start module computes it, and links arrivals exactly as a batch
// rebuild of the post-ingest attribute graph would.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "agnn/core/inference_session.h"
#include "agnn/data/synthetic.h"
#include "agnn/graph/attribute_graph.h"
#include "agnn/graph/proximity.h"
#include "agnn/obs/metrics.h"
#include "agnn/tensor/workspace.h"

namespace agnn::core {
namespace {

using data::Dataset;

const Dataset& TinyDataset() {
  static const Dataset* ds = [] {
    data::SyntheticConfig config =
        data::SyntheticConfig::Ml100k(data::Scale::kSmall);
    config.num_users = 30;
    config.num_items = 40;
    config.num_ratings = 400;
    return new Dataset(GenerateSynthetic(config, 19));
  }();
  return *ds;
}

AgnnConfig TinyConfig() {
  AgnnConfig config;
  config.embedding_dim = 8;
  config.num_neighbors = 4;
  config.vae_hidden_dim = 8;
  config.prediction_hidden_dim = 8;
  return config;
}

struct ColdFlags {
  std::vector<bool> users;
  std::vector<bool> items;
};

ColdFlags MakeColdFlags() {
  ColdFlags flags;
  flags.users.assign(TinyDataset().num_users, false);
  flags.items.assign(TinyDataset().num_items, false);
  flags.users[1] = true;
  flags.items[6] = true;
  return flags;
}

// Random sorted-unique slot sets within one side's schema — the shape of an
// arriving node's attribute vector.
std::vector<std::vector<size_t>> ArrivalSlots(size_t count, size_t total_slots,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<size_t>> arrivals(count);
  for (auto& slots : arrivals) {
    std::vector<bool> active(total_slots, false);
    for (size_t i = 0; i < 3; ++i) active[rng.UniformInt(total_slots)] = true;
    for (size_t s = 0; s < total_slots; ++s) {
      if (active[s]) slots.push_back(s);
    }
  }
  return arrivals;
}

class IngestSessionTest : public ::testing::Test {
 protected:
  IngestSessionTest()
      : rng_(23),
        flags_(MakeColdFlags()),
        model_(TinyConfig(), TinyDataset(), 3.6f, &rng_) {}

  std::unique_ptr<InferenceSession> MakeSession() {
    return std::make_unique<InferenceSession>(model_, &flags_.users,
                                              &flags_.items);
  }

  // Ingests the same deterministic arrival mix into `session`: 4 users
  // then 3 items.
  void IngestArrivals(InferenceSession* session) {
    for (const auto& slots :
         ArrivalSlots(4, TinyDataset().user_schema.total_slots(), 101)) {
      session->IngestNode(/*user_side=*/true, slots);
    }
    for (const auto& slots :
         ArrivalSlots(3, TinyDataset().item_schema.total_slots(), 202)) {
      session->IngestNode(/*user_side=*/false, slots);
    }
  }

  // Serves every (user, item) pair from `users` x `items` with neighbor
  // lists drawn from the session's dynamic graphs at a fixed seed, so two
  // sessions over the same post-ingest world are probed identically.
  std::vector<float> Probe(InferenceSession* session,
                           const std::vector<size_t>& users,
                           const std::vector<size_t>& items) {
    const size_t s = session->neighbors_per_node();
    std::vector<float> out;
    for (size_t u : users) {
      for (size_t i : items) {
        Rng rng(7000 + u * 131 + i);
        std::vector<size_t> user_neigh;
        std::vector<size_t> item_neigh;
        session->SampleIngestNeighborsInto(/*user_side=*/true, u, s, &rng,
                                           &user_neigh);
        session->SampleIngestNeighborsInto(/*user_side=*/false, i, s, &rng,
                                           &item_neigh);
        out.push_back(session->Predict(u, i, user_neigh, item_neigh));
      }
    }
    return out;
  }

  Rng rng_;
  ColdFlags flags_;
  AgnnModel model_;
};

// Probe ids spanning base warm nodes, base cold nodes, and (given 4 user /
// 3 item arrivals on a 30 x 40 catalog) every ingested node.
const std::vector<size_t> kProbeUsers = {0, 1, 2, 15, 29, 30, 31, 32, 33};
const std::vector<size_t> kProbeItems = {0, 5, 6, 20, 39, 40, 41, 42};

TEST_F(IngestSessionTest, EnableIngestionAloneChangesNoBits) {
  auto plain = MakeSession();
  auto enabled = MakeSession();
  enabled->EnableIngestion(TinyDataset());

  const size_t s = plain->neighbors_per_node();
  std::vector<size_t> user_neigh;
  std::vector<size_t> item_neigh;
  for (size_t i = 0; i < s; ++i) {
    user_neigh.push_back(i % TinyDataset().num_users);
    item_neigh.push_back(i % TinyDataset().num_items);
  }
  for (size_t u : {size_t{0}, size_t{1}, size_t{29}}) {
    for (size_t i : {size_t{0}, size_t{6}, size_t{39}}) {
      EXPECT_EQ(plain->Predict(u, i, user_neigh, item_neigh),
                enabled->Predict(u, i, user_neigh, item_neigh));
    }
  }
  EXPECT_EQ(enabled->ingest_stats().rows_refreshed, 0u);
}

TEST_F(IngestSessionTest, CatalogGrowsAndNodesServeImmediately) {
  auto session = MakeSession();
  session->EnableIngestion(TinyDataset());
  EXPECT_EQ(session->num_users(), TinyDataset().num_users);

  const auto arrivals =
      ArrivalSlots(2, TinyDataset().user_schema.total_slots(), 77);
  EXPECT_EQ(session->IngestNode(true, arrivals[0]), TinyDataset().num_users);
  EXPECT_EQ(session->IngestNode(true, arrivals[1]),
            TinyDataset().num_users + 1);
  EXPECT_EQ(session->num_users(), TinyDataset().num_users + 2);
  EXPECT_EQ(session->num_items(), TinyDataset().num_items);

  // The freshly ingested node answers a prediction right away.
  const size_t s = session->neighbors_per_node();
  Rng rng(5);
  std::vector<size_t> user_neigh;
  std::vector<size_t> item_neigh;
  session->SampleIngestNeighborsInto(true, TinyDataset().num_users, s, &rng,
                                     &user_neigh);
  session->SampleIngestNeighborsInto(false, 0, s, &rng, &item_neigh);
  const float p =
      session->Predict(TinyDataset().num_users, 0, user_neigh, item_neigh);
  EXPECT_TRUE(std::isfinite(p));

  const auto& stats = session->ingest_stats();
  EXPECT_EQ(stats.ingested_users, 2u);
  EXPECT_EQ(stats.ingested_items, 0u);
}

// The §17 serving contract: after K ingests, every base-catalog prediction
// equals that of a fresh session that never ingested, bitwise, and every
// ingested row is exactly ComputeNodesInference over its slots (strict cold,
// catalog form).
TEST_F(IngestSessionTest, IngestsLeaveBaseRowsAndEmbedArrivalsExactly) {
  auto ingesting = MakeSession();
  auto fresh = MakeSession();
  ingesting->EnableIngestion(TinyDataset());
  IngestArrivals(ingesting.get());

  const size_t s = ingesting->neighbors_per_node();
  for (size_t u : {size_t{0}, size_t{1}, size_t{2}, size_t{15}, size_t{29}}) {
    for (size_t i : {size_t{0}, size_t{5}, size_t{6}, size_t{20}, size_t{39}}) {
      Rng rng(9000 + u * 131 + i);
      std::vector<size_t> user_neigh;
      std::vector<size_t> item_neigh;
      for (size_t j = 0; j < s; ++j) {
        user_neigh.push_back(rng.UniformInt(TinyDataset().num_users));
        item_neigh.push_back(rng.UniformInt(TinyDataset().num_items));
      }
      EXPECT_EQ(ingesting->Predict(u, i, user_neigh, item_neigh),
                fresh->Predict(u, i, user_neigh, item_neigh))
          << "user " << u << " item " << i;
    }
  }

  const auto expect_rows = [&](bool user_side, size_t base,
                               const std::vector<std::vector<size_t>>& slots) {
    std::vector<size_t> ids(slots.size());
    for (size_t n = 0; n < ids.size(); ++n) ids[n] = base + n;
    Matrix served(ids.size(), ingesting->embedding_dim());
    ingesting->GatherEmbeddingRows(user_side, ids, &served);
    Workspace ws;
    for (size_t n = 0; n < ids.size(); ++n) {
      const Matrix expected = model_.ComputeNodesInference(
          user_side, {ids[n]}, {slots[n]}, std::vector<bool>(1, true), &ws);
      EXPECT_EQ(std::memcmp(served.data() + n * served.cols(), expected.data(),
                            served.cols() * sizeof(float)),
                0)
          << (user_side ? "user " : "item ") << ids[n];
    }
  };
  expect_rows(true, TinyDataset().num_users,
              ArrivalSlots(4, TinyDataset().user_schema.total_slots(), 101));
  expect_rows(false, TinyDataset().num_items,
              ArrivalSlots(3, TinyDataset().item_schema.total_slots(), 202));
}

// Serving between ingests leaves no stale state behind: a session probed
// after every arrival serves, once all arrivals are in, the same bytes as a
// session that ingested everything first and was probed once — over a
// probe set that includes the ingested nodes and their graph neighbors.
TEST_F(IngestSessionTest, LazyRefreshBitwiseEqualsFullRebuild) {
  auto interleaved = MakeSession();
  auto rebuilt = MakeSession();
  interleaved->EnableIngestion(TinyDataset());
  rebuilt->EnableIngestion(TinyDataset());

  const std::vector<size_t> warm_users = {0, 1, 2, 15, 29};
  const std::vector<size_t> warm_items = {0, 5, 6, 20, 39};
  for (const auto& slots :
       ArrivalSlots(4, TinyDataset().user_schema.total_slots(), 101)) {
    interleaved->IngestNode(/*user_side=*/true, slots);
    Probe(interleaved.get(), warm_users, warm_items);
  }
  for (const auto& slots :
       ArrivalSlots(3, TinyDataset().item_schema.total_slots(), 202)) {
    interleaved->IngestNode(/*user_side=*/false, slots);
    Probe(interleaved.get(), warm_users, warm_items);
  }
  IngestArrivals(rebuilt.get());

  const auto from_interleaved =
      Probe(interleaved.get(), kProbeUsers, kProbeItems);
  const auto from_rebuilt = Probe(rebuilt.get(), kProbeUsers, kProbeItems);
  ASSERT_EQ(from_interleaved.size(), from_rebuilt.size());
  for (size_t i = 0; i < from_interleaved.size(); ++i) {
    EXPECT_EQ(from_interleaved[i], from_rebuilt[i]) << "probe " << i;
  }
  // Inserts did rewrite adjacency rows, identically in both sessions.
  EXPECT_GT(interleaved->ingest_stats().rows_refreshed, 0u);
  EXPECT_EQ(interleaved->ingest_stats().rows_refreshed,
            rebuilt->ingest_stats().rows_refreshed);
  EXPECT_EQ(interleaved->ingest_stats().edges_linked,
            rebuilt->ingest_stats().edges_linked);
}

// Rebuilding the post-ingest world from scratch after serving moves no
// served bytes: probing, rebuilding a fresh session over the same arrivals,
// then probing both returns identical predictions.
TEST_F(IngestSessionTest, RebuildAfterServingIsBitwiseNoOp) {
  auto session = MakeSession();
  session->EnableIngestion(TinyDataset());
  IngestArrivals(session.get());

  const auto before = Probe(session.get(), kProbeUsers, kProbeItems);
  auto rebuilt = MakeSession();
  rebuilt->EnableIngestion(TinyDataset());
  IngestArrivals(rebuilt.get());
  const auto after = Probe(session.get(), kProbeUsers, kProbeItems);
  const auto from_rebuilt = Probe(rebuilt.get(), kProbeUsers, kProbeItems);
  ASSERT_EQ(before.size(), after.size());
  ASSERT_EQ(before.size(), from_rebuilt.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]) << "probe " << i;
    EXPECT_EQ(before[i], from_rebuilt[i]) << "probe " << i;
  }
}

// The session's dynamic graphs match a from-scratch BuildKnnGraph over the
// post-ingest attribute catalog — the graph half of the §17 contract.
TEST_F(IngestSessionTest, DynamicGraphsMatchBatchRebuild) {
  auto session = MakeSession();
  InferenceSession::IngestOptions options;
  options.top_k = 5;
  session->EnableIngestion(TinyDataset(), options);
  IngestArrivals(session.get());

  auto user_slots = TinyDataset().user_attrs;
  for (const auto& slots :
       ArrivalSlots(4, TinyDataset().user_schema.total_slots(), 101)) {
    user_slots.push_back(slots);
  }
  const graph::CsrGraph expected = graph::BuildKnnGraph(
      graph::PairwiseBinaryCosine(user_slots,
                                  TinyDataset().user_schema.total_slots()),
      options.top_k);
  const graph::CsrGraph actual = session->ingest_graph(true)->Flatten();
  ASSERT_EQ(actual.offsets, expected.offsets);
  ASSERT_EQ(actual.targets, expected.targets);
  ASSERT_EQ(actual.weights.size(), expected.weights.size());
  EXPECT_EQ(std::memcmp(actual.weights.data(), expected.weights.data(),
                        actual.weights.size() * sizeof(double)),
            0);
}

TEST_F(IngestSessionTest, RegistryMirrorsIngestCounters) {
  obs::MetricsRegistry metrics;
  InferenceSession session(model_, &flags_.users, &flags_.items, &metrics);
  session.EnableIngestion(TinyDataset());
  IngestArrivals(&session);
  Probe(&session, kProbeUsers, kProbeItems);

  const auto& stats = session.ingest_stats();
  EXPECT_EQ(metrics.GetCounter("ingest/nodes")->value(),
            stats.ingested_users + stats.ingested_items);
  EXPECT_EQ(metrics.GetCounter("ingest/edges_linked")->value(),
            stats.edges_linked);
  EXPECT_EQ(metrics.GetCounter("ingest/rows_refreshed")->value(),
            stats.rows_refreshed);
  // The session's churn is the graphs' adjacency churn, nothing more.
  EXPECT_EQ(stats.rows_refreshed,
            session.ingest_graph(true)->rows_refreshed() +
                session.ingest_graph(false)->rows_refreshed());
  EXPECT_EQ(stats.edges_linked,
            session.ingest_graph(true)->edges_linked() +
                session.ingest_graph(false)->edges_linked());
  EXPECT_GT(stats.rows_refreshed, 0u);
  EXPECT_EQ(stats.ingested_users, 4u);
  EXPECT_EQ(stats.ingested_items, 3u);
}

}  // namespace
}  // namespace agnn::core
