#ifndef AGNN_CORE_INFERENCE_SESSION_H_
#define AGNN_CORE_INFERENCE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "agnn/common/status.h"
#include "agnn/core/agnn_model.h"
#include "agnn/core/embedding_store.h"
#include "agnn/core/serving_checkpoint.h"
#include "agnn/graph/dynamic_graph.h"
#include "agnn/io/mapped_file.h"
#include "agnn/obs/metrics.h"
#include "agnn/obs/trace.h"
#include "agnn/tensor/workspace.h"

namespace agnn::core {

/// Tape-free serving view of a trained AgnnModel (DESIGN.md §9).
///
/// Construction snapshots the model by precomputing the fused node
/// embedding p (Eq. 5) for every user and item under the given strict-cold
/// flags — warm nodes from their trained preference embedding, cold nodes
/// through the configured cold-start module (eVAE-generated x', zeros,
/// DAE output). A steady-state Predict is then a cache gather + gated-GNN
/// aggregation + prediction head with no autograd tape and, once the
/// session workspace is warm, no heap allocation.
///
/// Predictions are bitwise-identical to AgnnModel::Forward(batch, rng,
/// /*training=*/false) on the same ids / neighbor ids / cold flags: the
/// eval-mode forward consumes no randomness and every op is
/// row/block-independent, and the session mirrors the tape's exact
/// per-element operation order (enforced by inference_session_test).
///
/// Besides the model-backed snapshot there is a second construction path,
/// FromServingCheckpoint (DESIGN.md §13): the precomputed embeddings come
/// from the checkpoint's fixed-stride shards and the per-request compute
/// from its serving head, with no AgnnModel or dataset in memory at all. In
/// lazy mode the shards stay memory-mapped and rows are served through a
/// bounded LRU cache, so resident memory is O(cache + head), not
/// O(catalog) — and every prediction is still bitwise-identical to the
/// resident path (the cache is a pure memcpy layer).
///
/// The model and the cold-flag vectors must outlive the session; parameter
/// updates after construction are not reflected. Not thread-safe (owns one
/// Workspace).
class InferenceSession {
 public:
  /// How FromServingCheckpoint materializes the embedding shards.
  struct ServingOptions {
    /// false: copy both shards into resident matrices (verifying their
    /// CRCs). true: keep the file mapped and serve rows through a bounded
    /// LRU cache; only the meta/params sections are CRC-verified, so open
    /// cost and resident memory are O(head + cache), independent of the
    /// catalog size.
    bool lazy = false;
    /// Lazy mode: max cached rows per side (clamped to [1, shard rows]).
    size_t cache_rows = 4096;
    /// Must match the precision the checkpoint was exported with
    /// (DESIGN.md §15): kF32 opens the §13 f32 shards; kInt8 opens the
    /// quantized shards AND routes the session's GEMMs through the int8
    /// kernels over per-column-quantized head weights. Opening a checkpoint
    /// at the wrong precision is a NotFound (the sections are disjoint).
    ServingPrecision precision = ServingPrecision::kF32;
  };

  /// `metrics` (optional, must outlive the session) enables serving
  /// instrumentation (DESIGN.md §10): the session/build_ms gauge, the
  /// session/request_ms latency histogram, request/pair/cache-row counters,
  /// and workspace hit/miss/byte gauges. Null compiles the hot path down to
  /// one branch per request and changes no prediction bits either way.
  ///
  /// `trace` (optional, must outlive the session) additionally wraps the
  /// cache build and every request in spans (DESIGN.md §11): request →
  /// gather/gnn/head components → per-gemm ops, with batch size and
  /// cold-pair counts as args. Same null contract as `metrics`.
  InferenceSession(const AgnnModel& model, const std::vector<bool>* cold_users,
                   const std::vector<bool>* cold_items,
                   obs::MetricsRegistry* metrics = nullptr,
                   obs::TraceRecorder* trace = nullptr);

  /// Serves a training artifact directly: loads the checkpoint's named
  /// "model/params" section into `model` (Status on any corruption or
  /// architecture mismatch, DESIGN.md §12), then snapshots it into a
  /// session exactly like the constructor. `model` carries the loaded
  /// parameters afterwards and must outlive the session, like the other
  /// borrowed arguments.
  static StatusOr<std::unique_ptr<InferenceSession>> FromCheckpoint(
      const std::string& path, AgnnModel* model,
      const std::vector<bool>* cold_users, const std::vector<bool>* cold_items,
      obs::MetricsRegistry* metrics = nullptr,
      obs::TraceRecorder* trace = nullptr);

  /// Serves a self-contained serving checkpoint (ExportServingCheckpoint,
  /// DESIGN.md §13) with no model or dataset: rebuilds the head from
  /// serving/meta + serving/params and reads the embedding shards per
  /// `options`. Cold-start handling is already baked into the shard rows,
  /// so there are no cold flags here. Lazy and resident sessions over the
  /// same file return bitwise-identical predictions.
  static StatusOr<std::unique_ptr<InferenceSession>> FromServingCheckpoint(
      const std::string& path, const ServingOptions& options,
      obs::MetricsRegistry* metrics = nullptr,
      obs::TraceRecorder* trace = nullptr);

  /// Single (user, item) request. Each neighbor list must hold
  /// neighbors_per_node() ids sampled from the attribute graph
  /// (ignored when the aggregator is off).
  float Predict(size_t user_id, size_t item_id,
                const std::vector<size_t>& user_neighbor_ids,
                const std::vector<size_t>& item_neighbor_ids);

  /// Batched requests: neighbor lists are [B*S], grouped per target exactly
  /// as in Batch. `out` is resized to B.
  void PredictBatch(const std::vector<size_t>& user_ids,
                    const std::vector<size_t>& item_ids,
                    const std::vector<size_t>& user_neighbor_ids,
                    const std::vector<size_t>& item_neighbor_ids,
                    std::vector<float>* out);

  /// Destination-passing core of the request pipeline: writes exactly
  /// user_ids.size() predictions into `out`, which the caller must have
  /// sized. Predict and PredictBatch are thin wrappers over this form, and
  /// it is what the ServingGateway's micro-batcher calls on its steady
  /// path — a warm session touches no heap here (DESIGN.md §14).
  void PredictBatchInto(const std::vector<size_t>& user_ids,
                        const std::vector<size_t>& item_ids,
                        const std::vector<size_t>& user_neighbor_ids,
                        const std::vector<size_t>& item_neighbor_ids,
                        float* out);

  /// Online cold-start ingestion (DESIGN.md §17).
  struct IngestOptions {
    /// kNN degree of the per-side dynamic attribute graphs.
    size_t top_k = 8;
  };

  /// Lifetime ingestion counters, exposed without a registry so tests and
  /// benches can assert on them directly (the registry mirrors them under
  /// ingest/*).
  struct IngestStats {
    uint64_t ingested_users = 0;
    uint64_t ingested_items = 0;
    /// Graph edges the ingested nodes linked (both sides combined).
    uint64_t edges_linked = 0;
    /// Pre-existing adjacency rows the inserts rewrote (both sides; see
    /// DynamicKnnGraph::InsertResult::rewritten).
    uint64_t rows_refreshed = 0;
  };

  /// Turns the session mutable (DESIGN.md §17): builds per-side
  /// DynamicKnnGraphs over the dataset's attribute catalog so IngestNode
  /// can insert arriving nodes. Model-backed sessions only (an ingested
  /// node's embedding is computed through the model's cold-start module);
  /// `dataset` must be the session model's construction dataset and must
  /// outlive the session. Predictions are bitwise-unchanged — enabling
  /// ingestion only builds the graphs, and cached rows are never rewritten.
  void EnableIngestion(const data::Dataset& dataset,
                       const IngestOptions& options);
  void EnableIngestion(const data::Dataset& dataset) {
    EnableIngestion(dataset, IngestOptions());
  }

  /// Ingests one attribute-only node (sorted unique slots, the Dataset
  /// convention) into one side and returns its id, == the side's previous
  /// node count. The node is inserted into the side's dynamic attribute
  /// graph via top-k attribute-proximity search, its fused embedding p is
  /// computed eagerly through the cold-start module (eVAE-generated x', so
  /// the node is servable the moment this returns). No cached row changes:
  /// Eq. 5 rows depend only on a node's own attributes and preference, so
  /// base-catalog predictions stay bitwise those of a session that never
  /// ingested (the §17 contract test).
  size_t IngestNode(bool user_side, const std::vector<size_t>& attr_slots);

  bool ingestion_enabled() const { return ingest_ != nullptr; }
  const IngestStats& ingest_stats() const;

  /// The side's dynamic attribute graph (null unless ingestion is
  /// enabled) — the test/bench seam for Flatten() and churn counters.
  const graph::DynamicKnnGraph* ingest_graph(bool user_side) const;

  /// Samples `count` neighbors of `node` from the side's dynamic graph,
  /// appending onto `out` — how callers draw request neighbor lists that
  /// may include (or target) ingested nodes. RNG consumption matches
  /// graph::SampleNeighborsInto on the flattened graph.
  void SampleIngestNeighborsInto(bool user_side, size_t node, size_t count,
                                 Rng* rng, std::vector<size_t>* out);

  size_t num_users() const;
  size_t num_items() const;
  size_t embedding_dim() const { return dim_; }
  size_t neighbors_per_node() const { return neighbors_; }

  /// kInt8 only for a FromServingCheckpoint session opened at int8; every
  /// other construction path serves f32.
  ServingPrecision precision() const {
    return quantized_ ? ServingPrecision::kInt8 : ServingPrecision::kF32;
  }

  /// The one seam between resident and lazy embedding storage: gathers the
  /// fused embeddings of `ids` on one side into `out` ([ids.size(), D],
  /// caller-sized). Both backends copy the same bytes (DESIGN.md §13
  /// bitwise contract); with ingestion enabled, ingested ids are served
  /// through the same memcpy.
  void GatherEmbeddingRows(bool user_side, const std::vector<size_t>& ids,
                           Matrix* out);

  /// Cached fused embeddings ([num_users, D] / [num_items, D]). Empty in a
  /// lazy serving session — rows live in the mapped shards there.
  const Matrix& user_embeddings() const { return user_embeddings_; }
  const Matrix& item_embeddings() const { return item_embeddings_; }

  /// Lazy serving session's row caches; null on the model-backed and
  /// resident paths.
  const LazyEmbeddingStore* lazy_user_store() const {
    return lazy_users_.get();
  }
  const LazyEmbeddingStore* lazy_item_store() const {
    return lazy_items_.get();
  }

  /// The session-owned buffer pool; hits()/misses() expose whether the
  /// steady state allocates (see the no-allocation test).
  Workspace* workspace() { return &ws_; }

 private:
  /// Serving-checkpoint path: exactly one of (lazy stores) / (resident
  /// matrices) is populated per side.
  InferenceSession(io::MappedFile mapped, std::unique_ptr<ServingHead> head,
                   const ServingMeta& meta, ServingPrecision precision,
                   std::unique_ptr<LazyEmbeddingStore> lazy_users,
                   std::unique_ptr<LazyEmbeddingStore> lazy_items,
                   Matrix user_embeddings, Matrix item_embeddings,
                   double build_ms, obs::MetricsRegistry* metrics,
                   obs::TraceRecorder* trace);

  void PrecomputeSide(bool user_side, const std::vector<bool>* cold,
                      Matrix* cache);

  /// Ingestion internals (DESIGN.md §17).
  struct IngestSide {
    std::unique_ptr<graph::DynamicKnnGraph> graph;
    size_t base_rows = 0;
    /// Fused embeddings of ingested nodes, row-major [num_extra, D],
    /// appended by IngestNode.
    std::vector<float> extra;
  };
  struct IngestState {
    IngestSide users;
    IngestSide items;
    IngestStats stats;
    // Registry handles (null without a registry), mirroring `stats`.
    obs::Counter* nodes_counter = nullptr;
    obs::Counter* edges_counter = nullptr;
    obs::Counter* refreshed_counter = nullptr;
  };
  IngestSide& ingest_side(bool user_side) {
    return user_side ? ingest_->users : ingest_->items;
  }
  void GatherIngestRows(bool user_side, const std::vector<size_t>& ids,
                        Matrix* out);

  void ResolveInstruments(double build_ms);

  /// Handles resolved once at construction; all null without a registry.
  struct Instruments {
    obs::Histogram* request_ms = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* pairs = nullptr;
    obs::Counter* cache_rows = nullptr;
    obs::Gauge* workspace_hits = nullptr;
    obs::Gauge* workspace_misses = nullptr;
    obs::Gauge* workspace_allocated_bytes = nullptr;
    // Lazy serving only: LRU cache effectiveness per side.
    obs::Gauge* lazy_user_hits = nullptr;
    obs::Gauge* lazy_user_misses = nullptr;
    obs::Gauge* lazy_item_hits = nullptr;
    obs::Gauge* lazy_item_misses = nullptr;
  };

  /// Null in a serving-checkpoint session; kept for the tracer's cold/warm
  /// request annotation and the model-backed precompute.
  const AgnnModel* model_ = nullptr;
  /// Per-request compute, resolved once: either the model's modules or the
  /// serving head's.
  const GatedGnn* user_gnn_ = nullptr;
  const GatedGnn* item_gnn_ = nullptr;
  const PredictionLayer* prediction_ = nullptr;
  size_t dim_ = 0;
  size_t neighbors_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  // Kept only for the tracer's cold/warm request annotation.
  const std::vector<bool>* cold_users_ = nullptr;
  const std::vector<bool>* cold_items_ = nullptr;
  Instruments instruments_;
  // Serving-checkpoint state: the mapping must outlive the shard-backed
  // stores, and the head owns the parameters the compute pointers alias.
  io::MappedFile mapped_;
  std::unique_ptr<ServingHead> head_;
  std::unique_ptr<LazyEmbeddingStore> lazy_users_;
  std::unique_ptr<LazyEmbeddingStore> lazy_items_;
  Matrix user_embeddings_;
  Matrix item_embeddings_;
  // int8 serving state (DESIGN.md §15): per-column weight snapshots built
  // once at open, plus the integer scratch the quantized GEMMs reuse. All
  // empty/unused when quantized_ is false, which is every path except a
  // FromServingCheckpoint open at ServingPrecision::kInt8.
  bool quantized_ = false;
  GatedGnnQuant user_gnn_quant_;
  GatedGnnQuant item_gnn_quant_;
  std::vector<QuantizedWeight> mlp_quant_;
  QuantScratch qscratch_;
  /// Null until EnableIngestion; model-backed sessions only.
  std::unique_ptr<IngestState> ingest_;
  Workspace ws_;
  // Reused by Predict so the single-request path stays allocation-free.
  std::vector<size_t> one_user_;
  std::vector<size_t> one_item_;
  std::vector<float> one_out_;
};

}  // namespace agnn::core

#endif  // AGNN_CORE_INFERENCE_SESSION_H_
