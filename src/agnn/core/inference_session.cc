#include "agnn/core/inference_session.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "agnn/common/logging.h"
#include "agnn/common/stopwatch.h"
#include "agnn/io/checkpoint.h"
#include "agnn/io/crc32.h"
#include "agnn/io/embedding_shard.h"
#include "agnn/io/quantized_shard.h"
#include "agnn/obs/scoped_timer.h"

namespace agnn::core {

InferenceSession::InferenceSession(const AgnnModel& model,
                                   const std::vector<bool>* cold_users,
                                   const std::vector<bool>* cold_items,
                                   obs::MetricsRegistry* metrics,
                                   obs::TraceRecorder* trace)
    : model_(&model),
      user_gnn_(model.user_side_.gnn.get()),
      item_gnn_(model.item_side_.gnn.get()),
      prediction_(model.prediction_.get()),
      dim_(model.config().embedding_dim),
      neighbors_(model.neighbors_per_node()),
      metrics_(metrics),
      trace_(trace),
      cold_users_(cold_users),
      cold_items_(cold_items) {
  Stopwatch build_watch;
  obs::TraceSpan build_span(trace_, "build", "session");
  PrecomputeSide(/*user_side=*/true, cold_users, &user_embeddings_);
  PrecomputeSide(/*user_side=*/false, cold_items, &item_embeddings_);
  if (build_span.enabled()) {
    build_span.AddArg("users", static_cast<double>(user_embeddings_.rows()));
    build_span.AddArg("items", static_cast<double>(item_embeddings_.rows()));
  }
  build_span.End();
  ResolveInstruments(build_watch.ElapsedMillis());
}

InferenceSession::InferenceSession(io::MappedFile mapped,
                                   std::unique_ptr<ServingHead> head,
                                   const ServingMeta& meta,
                                   ServingPrecision precision,
                                   std::unique_ptr<LazyEmbeddingStore> lazy_users,
                                   std::unique_ptr<LazyEmbeddingStore> lazy_items,
                                   Matrix user_embeddings, Matrix item_embeddings,
                                   double build_ms, obs::MetricsRegistry* metrics,
                                   obs::TraceRecorder* trace)
    : user_gnn_(&head->user_gnn()),
      item_gnn_(&head->item_gnn()),
      prediction_(&head->prediction()),
      dim_(meta.embedding_dim),
      neighbors_(meta.num_neighbors),
      metrics_(metrics),
      trace_(trace),
      mapped_(std::move(mapped)),
      head_(std::move(head)),
      lazy_users_(std::move(lazy_users)),
      lazy_items_(std::move(lazy_items)),
      user_embeddings_(std::move(user_embeddings)),
      item_embeddings_(std::move(item_embeddings)) {
  if (precision == ServingPrecision::kInt8) {
    // Quantize the head weights once; every request's GEMMs then run on the
    // int8 kernels (DESIGN.md §15).
    quantized_ = true;
    user_gnn_quant_ = user_gnn_->QuantizeWeights();
    item_gnn_quant_ = item_gnn_->QuantizeWeights();
    mlp_quant_ = prediction_->QuantizeMlpWeights();
  }
  ResolveInstruments(build_ms);
}

void InferenceSession::ResolveInstruments(double build_ms) {
  if (metrics_ == nullptr) return;
  metrics_->GetGauge("session/build_ms")->Set(build_ms);
  instruments_.request_ms = metrics_->GetHistogram("session/request_ms");
  instruments_.requests = metrics_->GetCounter("session/requests");
  instruments_.pairs = metrics_->GetCounter("session/pairs");
  instruments_.cache_rows = metrics_->GetCounter("session/cache_rows");
  instruments_.workspace_hits = metrics_->GetGauge("session/workspace_hits");
  instruments_.workspace_misses =
      metrics_->GetGauge("session/workspace_misses");
  instruments_.workspace_allocated_bytes =
      metrics_->GetGauge("session/workspace_allocated_bytes");
  if (lazy_users_ != nullptr) {
    instruments_.lazy_user_hits = metrics_->GetGauge("session/lazy_user_hits");
    instruments_.lazy_user_misses =
        metrics_->GetGauge("session/lazy_user_misses");
  }
  if (lazy_items_ != nullptr) {
    instruments_.lazy_item_hits = metrics_->GetGauge("session/lazy_item_hits");
    instruments_.lazy_item_misses =
        metrics_->GetGauge("session/lazy_item_misses");
  }
}

StatusOr<std::unique_ptr<InferenceSession>> InferenceSession::FromCheckpoint(
    const std::string& path, AgnnModel* model,
    const std::vector<bool>* cold_users, const std::vector<bool>* cold_items,
    obs::MetricsRegistry* metrics, obs::TraceRecorder* trace) {
  AGNN_CHECK(model != nullptr);
  StatusOr<io::CheckpointReader> reader = io::CheckpointReader::ReadFile(path);
  if (!reader.ok()) return reader.status();
  StatusOr<std::string_view> params =
      reader->GetSection(io::kSectionModelParams);
  if (!params.ok()) return params.status();
  if (Status s = model->LoadState(*params); !s.ok()) return s;
  return std::make_unique<InferenceSession>(*model, cold_users, cold_items,
                                            metrics, trace);
}

namespace {

/// A section's bytes out of the mapped container, optionally CRC-verified
/// (always for the small meta/params sections; for a multi-hundred-MB shard
/// verification faults in every page, so the lazy path skips it).
StatusOr<std::string_view> IndexedSection(const io::MappedFile& mapped,
                                          const io::CheckpointIndex& index,
                                          std::string_view name,
                                          bool verify_crc) {
  const io::SectionIndexEntry* entry = index.Find(name);
  if (entry == nullptr) {
    return Status::NotFound("serving checkpoint has no \"" +
                            std::string(name) + "\" section");
  }
  const std::string_view payload =
      mapped.view().substr(entry->offset, entry->length);
  if (verify_crc && io::Crc32(payload) != entry->crc) {
    return Status::InvalidArgument("section '" + std::string(name) +
                                   "' CRC mismatch (corrupted payload)");
  }
  return payload;
}

/// Shared by the f32 (EmbeddingShardReader) and int8 (QuantizedShardReader)
/// shard formats — both validate their header in Open and expose
/// rows()/cols() for the meta cross-check.
template <typename ShardReader>
StatusOr<ShardReader> OpenShard(const io::MappedFile& mapped,
                                const io::CheckpointIndex& index,
                                std::string_view name, size_t expected_rows,
                                size_t expected_cols, bool verify_crc) {
  StatusOr<std::string_view> payload =
      IndexedSection(mapped, index, name, /*verify_crc=*/false);
  if (!payload.ok()) return payload.status();
  if (verify_crc) {
    if (Status s = io::VerifyShardCrc(*payload, index.Find(name)->crc);
        !s.ok()) {
      return s;
    }
  }
  StatusOr<ShardReader> reader = ShardReader::Open(*payload);
  if (!reader.ok()) return reader.status();
  if (reader->rows() != expected_rows || reader->cols() != expected_cols) {
    return Status::InvalidArgument(
        "shard \"" + std::string(name) + "\" is [" +
        std::to_string(reader->rows()) + ", " + std::to_string(reader->cols()) +
        "], serving/meta says [" + std::to_string(expected_rows) + ", " +
        std::to_string(expected_cols) + "]");
  }
  return reader;
}

}  // namespace

StatusOr<std::unique_ptr<InferenceSession>>
InferenceSession::FromServingCheckpoint(const std::string& path,
                                        const ServingOptions& options,
                                        obs::MetricsRegistry* metrics,
                                        obs::TraceRecorder* trace) {
  Stopwatch build_watch;
  StatusOr<io::MappedFile> mapped = io::MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  StatusOr<io::CheckpointIndex> index =
      io::ParseCheckpointIndex(mapped->view());
  if (!index.ok()) return index.status();

  StatusOr<std::string_view> meta_bytes = IndexedSection(
      *mapped, *index, io::kSectionServingMeta, /*verify_crc=*/true);
  if (!meta_bytes.ok()) return meta_bytes.status();
  StatusOr<ServingMeta> meta = ServingMeta::Decode(*meta_bytes);
  if (!meta.ok()) return meta.status();

  StatusOr<std::string_view> params = IndexedSection(
      *mapped, *index, io::kSectionServingParams, /*verify_crc=*/true);
  if (!params.ok()) return params.status();
  auto head = std::make_unique<ServingHead>(*meta);
  if (Status s = head->LoadState(*params); !s.ok()) return s;

  std::unique_ptr<LazyEmbeddingStore> lazy_users;
  std::unique_ptr<LazyEmbeddingStore> lazy_items;
  Matrix user_embeddings;
  Matrix item_embeddings;
  const size_t cache_floor = std::max<size_t>(options.cache_rows, 1);
  if (options.precision == ServingPrecision::kInt8) {
    StatusOr<io::QuantizedShardReader> users =
        OpenShard<io::QuantizedShardReader>(
            *mapped, *index, io::kSectionUserEmbeddingsQ8, meta->num_users,
            meta->embedding_dim, /*verify_crc=*/!options.lazy);
    if (!users.ok()) return users.status();
    StatusOr<io::QuantizedShardReader> items =
        OpenShard<io::QuantizedShardReader>(
            *mapped, *index, io::kSectionItemEmbeddingsQ8, meta->num_items,
            meta->embedding_dim, /*verify_crc=*/!options.lazy);
    if (!items.ok()) return items.status();
    if (options.lazy) {
      lazy_users = std::make_unique<LazyEmbeddingStore>(
          *users, std::min(cache_floor, users->rows()));
      lazy_items = std::make_unique<LazyEmbeddingStore>(
          *items, std::min(cache_floor, items->rows()));
    } else {
      user_embeddings = users->ReadAllDequantized();
      item_embeddings = items->ReadAllDequantized();
    }
  } else {
    StatusOr<io::EmbeddingShardReader> users =
        OpenShard<io::EmbeddingShardReader>(
            *mapped, *index, io::kSectionUserEmbeddings, meta->num_users,
            meta->embedding_dim, /*verify_crc=*/!options.lazy);
    if (!users.ok()) return users.status();
    StatusOr<io::EmbeddingShardReader> items =
        OpenShard<io::EmbeddingShardReader>(
            *mapped, *index, io::kSectionItemEmbeddings, meta->num_items,
            meta->embedding_dim, /*verify_crc=*/!options.lazy);
    if (!items.ok()) return items.status();
    if (options.lazy) {
      lazy_users = std::make_unique<LazyEmbeddingStore>(
          *users, std::min(cache_floor, users->rows()));
      lazy_items = std::make_unique<LazyEmbeddingStore>(
          *items, std::min(cache_floor, items->rows()));
    } else {
      user_embeddings = users->ReadAll();
      item_embeddings = items->ReadAll();
    }
  }
  return std::unique_ptr<InferenceSession>(new InferenceSession(
      std::move(mapped).value(), std::move(head), *meta, options.precision,
      std::move(lazy_users), std::move(lazy_items), std::move(user_embeddings),
      std::move(item_embeddings), build_watch.ElapsedMillis(), metrics,
      trace));
}

size_t InferenceSession::num_users() const {
  const size_t base =
      lazy_users_ != nullptr ? lazy_users_->rows() : user_embeddings_.rows();
  return ingest_ != nullptr ? base + ingest_->users.extra.size() / dim_ : base;
}

size_t InferenceSession::num_items() const {
  const size_t base =
      lazy_items_ != nullptr ? lazy_items_->rows() : item_embeddings_.rows();
  return ingest_ != nullptr ? base + ingest_->items.extra.size() / dim_ : base;
}

void InferenceSession::EnableIngestion(const data::Dataset& dataset,
                                       const IngestOptions& options) {
  AGNN_CHECK(model_ != nullptr)
      << "ingestion needs the model's cold-start module; serving-checkpoint "
         "sessions are immutable";
  AGNN_CHECK(ingest_ == nullptr) << "ingestion already enabled";
  AGNN_CHECK_GT(options.top_k, 0u);
  // The graphs must cover exactly the attribute catalog the cached rows
  // were computed from (rules out the social protocol, where the model's
  // user attrs alias social_links rather than user_attrs).
  AGNN_CHECK(model_->user_side_.attrs == &dataset.user_attrs);
  AGNN_CHECK(model_->item_side_.attrs == &dataset.item_attrs);
  obs::TraceSpan span(trace_, "enable", "ingest");
  ingest_ = std::make_unique<IngestState>();
  const auto setup = [&](IngestSide* side,
                         const std::vector<std::vector<size_t>>& attrs,
                         size_t num_slots, size_t base_rows) {
    AGNN_CHECK_EQ(attrs.size(), base_rows);
    side->graph = std::make_unique<graph::DynamicKnnGraph>(attrs, num_slots,
                                                           options.top_k);
    side->base_rows = base_rows;
  };
  setup(&ingest_->users, dataset.user_attrs, dataset.user_schema.total_slots(),
        user_embeddings_.rows());
  setup(&ingest_->items, dataset.item_attrs, dataset.item_schema.total_slots(),
        item_embeddings_.rows());
  if (metrics_ != nullptr) {
    ingest_->nodes_counter = metrics_->GetCounter("ingest/nodes");
    ingest_->edges_counter = metrics_->GetCounter("ingest/edges_linked");
    ingest_->refreshed_counter = metrics_->GetCounter("ingest/rows_refreshed");
  }
  if (span.enabled()) {
    span.AddArg("users", static_cast<double>(ingest_->users.base_rows));
    span.AddArg("items", static_cast<double>(ingest_->items.base_rows));
  }
}

size_t InferenceSession::IngestNode(bool user_side,
                                    const std::vector<size_t>& attr_slots) {
  AGNN_CHECK(ingest_ != nullptr) << "call EnableIngestion first";
  obs::TraceSpan span(trace_, "node", "ingest");
  IngestSide& side = ingest_side(user_side);

  graph::DynamicKnnGraph::InsertResult inserted;
  {
    obs::TraceSpan prox(trace_, "proximity", "ingest");
    inserted = side.graph->InsertNode(attr_slots);
    if (prox.enabled()) {
      prox.AddArg("edges", static_cast<double>(inserted.linked));
    }
  }

  // No cached row changes: a fused row (Eq. 5) depends only on the node's
  // own attributes and preference, never on its adjacency. Eagerly compute
  // the new node's fused row through the cold-start module (catalog-form:
  // the id is beyond the trained preference table, so its preference is
  // fully replaced — the paper's strict-cold regime). An ingested node is
  // servable the moment IngestNode returns; time-to-serve is what
  // bench/cold_ingestion clocks around this call.
  {
    obs::TraceSpan embed(trace_, "embed", "ingest");
    const std::vector<size_t> ids(1, inserted.id);
    const std::vector<std::vector<size_t>> attrs(1, attr_slots);
    const std::vector<bool> missing(1, true);
    Matrix p = model_->ComputeNodesInference(user_side, ids, attrs, missing,
                                             &ws_);
    side.extra.insert(side.extra.end(), p.data(), p.data() + dim_);
    ws_.Give(std::move(p));
  }

  (user_side ? ingest_->stats.ingested_users : ingest_->stats.ingested_items) +=
      1;
  ingest_->stats.edges_linked += inserted.linked;
  ingest_->stats.rows_refreshed += inserted.rewritten;
  if (ingest_->nodes_counter != nullptr) {
    ingest_->nodes_counter->Increment();
    ingest_->edges_counter->Increment(inserted.linked);
    ingest_->refreshed_counter->Increment(inserted.rewritten);
  }
  if (span.enabled()) {
    span.AddArg("side", user_side ? 1.0 : 0.0);
    span.AddArg("id", static_cast<double>(inserted.id));
    span.AddArg("edges", static_cast<double>(inserted.linked));
    span.AddArg("rows", static_cast<double>(inserted.rewritten));
  }
  return inserted.id;
}

const InferenceSession::IngestStats& InferenceSession::ingest_stats() const {
  AGNN_CHECK(ingest_ != nullptr);
  return ingest_->stats;
}

const graph::DynamicKnnGraph* InferenceSession::ingest_graph(
    bool user_side) const {
  if (ingest_ == nullptr) return nullptr;
  return (user_side ? ingest_->users : ingest_->items).graph.get();
}

void InferenceSession::SampleIngestNeighborsInto(bool user_side, size_t node,
                                                 size_t count, Rng* rng,
                                                 std::vector<size_t>* out) {
  AGNN_CHECK(ingest_ != nullptr);
  ingest_side(user_side).graph->SampleNeighborsInto(node, count, rng, out);
}

void InferenceSession::GatherIngestRows(bool user_side,
                                        const std::vector<size_t>& ids,
                                        Matrix* out) {
  IngestSide& side = ingest_side(user_side);
  const Matrix& base = user_side ? user_embeddings_ : item_embeddings_;
  for (size_t i = 0; i < ids.size(); ++i) {
    const size_t id = ids[i];
    AGNN_CHECK_LT(id, side.base_rows + side.extra.size() / dim_);
    const float* src = id < side.base_rows
                           ? base.data() + id * dim_
                           : side.extra.data() + (id - side.base_rows) * dim_;
    std::memcpy(out->data() + i * dim_, src, dim_ * sizeof(float));
  }
}

void InferenceSession::PrecomputeSide(bool user_side,
                                      const std::vector<bool>* cold,
                                      Matrix* cache) {
  const size_t num_nodes = user_side ? model_->user_side_.attrs->size()
                                     : model_->item_side_.attrs->size();
  const size_t dim = dim_;
  *cache = Matrix(num_nodes, dim);

  // Chunked so the workspace high-water mark stays bounded by the chunk
  // size, not the node count. Any grouping yields the same rows (the
  // eval-mode forward is row-independent).
  constexpr size_t kChunk = 256;
  std::vector<size_t> ids;
  for (size_t start = 0; start < num_nodes; start += kChunk) {
    const size_t end = std::min(num_nodes, start + kChunk);
    ids.resize(end - start);
    std::iota(ids.begin(), ids.end(), start);
    Matrix p = model_->ComputeNodesInference(user_side, ids, cold, &ws_);
    std::memcpy(cache->data() + start * dim, p.data(),
                p.size() * sizeof(float));
    ws_.Give(std::move(p));
  }
}

void InferenceSession::GatherEmbeddingRows(bool user_side,
                                           const std::vector<size_t>& ids,
                                           Matrix* out) {
  if (ingest_ != nullptr) {
    GatherIngestRows(user_side, ids, out);
    return;
  }
  if (user_side) {
    if (lazy_users_ != nullptr) {
      lazy_users_->GatherRowsInto(ids, out);
    } else {
      user_embeddings_.GatherRowsInto(ids, out);
    }
  } else {
    if (lazy_items_ != nullptr) {
      lazy_items_->GatherRowsInto(ids, out);
    } else {
      item_embeddings_.GatherRowsInto(ids, out);
    }
  }
}

float InferenceSession::Predict(size_t user_id, size_t item_id,
                                const std::vector<size_t>& user_neighbor_ids,
                                const std::vector<size_t>& item_neighbor_ids) {
  // A single request is a one-row batch through the same unified pipeline
  // (and the same instrumentation), via session-owned reusable buffers.
  one_user_.assign(1, user_id);
  one_item_.assign(1, item_id);
  one_out_.resize(1);
  PredictBatchInto(one_user_, one_item_, user_neighbor_ids, item_neighbor_ids,
                   one_out_.data());
  return one_out_[0];
}

void InferenceSession::PredictBatch(
    const std::vector<size_t>& user_ids, const std::vector<size_t>& item_ids,
    const std::vector<size_t>& user_neighbor_ids,
    const std::vector<size_t>& item_neighbor_ids, std::vector<float>* out) {
  out->resize(user_ids.size());
  PredictBatchInto(user_ids, item_ids, user_neighbor_ids, item_neighbor_ids,
                   out->data());
}

void InferenceSession::PredictBatchInto(
    const std::vector<size_t>& user_ids, const std::vector<size_t>& item_ids,
    const std::vector<size_t>& user_neighbor_ids,
    const std::vector<size_t>& item_neighbor_ids, float* out) {
  const size_t batch = user_ids.size();
  AGNN_CHECK_EQ(item_ids.size(), batch);
  if (batch == 0) return;
  // Observation only — the timer and the spans read no clocks and nothing
  // is recorded when the session has no registry/recorder, and the math
  // below is untouched either way (bitwise contract, DESIGN.md §9-§11).
  obs::ScopedTimer request_timer(instruments_.request_ms);
  obs::TraceSpan request_span(trace_, "request", "session");
  if (request_span.enabled()) {
    request_span.AddArg("batch", static_cast<double>(batch));
    // Cold/warm annotation: how many served pairs touch a strict-cold user
    // or item. Counted only while tracing — not on the untraced hot path.
    // Ids beyond the flag vectors are ingested nodes (§17), strict-cold by
    // construction.
    double cold_pairs = 0.0;
    for (size_t i = 0; i < batch; ++i) {
      const bool cold_u =
          cold_users_ != nullptr && (user_ids[i] >= cold_users_->size() ||
                                     (*cold_users_)[user_ids[i]]);
      const bool cold_i =
          cold_items_ != nullptr && (item_ids[i] >= cold_items_->size() ||
                                     (*cold_items_)[item_ids[i]]);
      if (cold_u || cold_i) cold_pairs += 1.0;
    }
    request_span.AddArg("cold_pairs", cold_pairs);
  }

  const size_t dim = dim_;
  const size_t neighbors = neighbors_;

  Matrix user_final = ws_.Take(batch, dim);
  Matrix item_final = ws_.Take(batch, dim);
  {
    obs::TraceSpan span(trace_, "gather", "session");
    GatherEmbeddingRows(/*user_side=*/true, user_ids, &user_final);
    GatherEmbeddingRows(/*user_side=*/false, item_ids, &item_final);
    span.AddArg("rows", static_cast<double>(2 * batch));
  }

  if (neighbors > 0) {
    AGNN_CHECK_EQ(user_neighbor_ids.size(), batch * neighbors);
    AGNN_CHECK_EQ(item_neighbor_ids.size(), batch * neighbors);
    obs::TraceSpan span(trace_, "gnn", "session");
    Matrix user_neigh = ws_.Take(batch * neighbors, dim);
    GatherEmbeddingRows(/*user_side=*/true, user_neighbor_ids, &user_neigh);
    Matrix item_neigh = ws_.Take(batch * neighbors, dim);
    GatherEmbeddingRows(/*user_side=*/false, item_neighbor_ids, &item_neigh);

    Matrix user_agg = user_gnn_->ForwardInference(
        user_final, user_neigh, neighbors, &ws_, trace_,
        quantized_ ? &user_gnn_quant_ : nullptr,
        quantized_ ? &qscratch_ : nullptr);
    Matrix item_agg = item_gnn_->ForwardInference(
        item_final, item_neigh, neighbors, &ws_, trace_,
        quantized_ ? &item_gnn_quant_ : nullptr,
        quantized_ ? &qscratch_ : nullptr);
    ws_.Give(std::move(user_final));
    ws_.Give(std::move(item_final));
    ws_.Give(std::move(user_neigh));
    ws_.Give(std::move(item_neigh));
    user_final = std::move(user_agg);
    item_final = std::move(item_agg);
  }

  Matrix predictions;
  {
    obs::TraceSpan span(trace_, "head", "session");
    predictions = prediction_->ForwardInference(
        user_final, item_final, user_ids, item_ids, &ws_, trace_,
        quantized_ ? &mlp_quant_ : nullptr, quantized_ ? &qscratch_ : nullptr);
  }
  for (size_t i = 0; i < batch; ++i) out[i] = predictions.At(i, 0);
  ws_.Give(std::move(user_final));
  ws_.Give(std::move(item_final));
  ws_.Give(std::move(predictions));
  // Workspace high-water mark after the request's buffers are returned.
  request_span.AddArg("workspace_bytes",
                      static_cast<double>(ws_.allocated_bytes()));

  if (metrics_ != nullptr) {
    instruments_.requests->Increment();
    instruments_.pairs->Increment(batch);
    // Every served row is a read against the embedding store (precomputed
    // matrix or LRU cache): 2 target rows per pair plus both sides'
    // gathered neighbor rows.
    const size_t neighbor_rows =
        neighbors > 0 ? user_neighbor_ids.size() + item_neighbor_ids.size()
                      : 0;
    instruments_.cache_rows->Increment(2 * batch + neighbor_rows);
    instruments_.workspace_hits->Set(static_cast<double>(ws_.hits()));
    instruments_.workspace_misses->Set(static_cast<double>(ws_.misses()));
    instruments_.workspace_allocated_bytes->Set(
        static_cast<double>(ws_.allocated_bytes()));
    if (instruments_.lazy_user_hits != nullptr) {
      instruments_.lazy_user_hits->Set(
          static_cast<double>(lazy_users_->hits()));
      instruments_.lazy_user_misses->Set(
          static_cast<double>(lazy_users_->misses()));
    }
    if (instruments_.lazy_item_hits != nullptr) {
      instruments_.lazy_item_hits->Set(
          static_cast<double>(lazy_items_->hits()));
      instruments_.lazy_item_misses->Set(
          static_cast<double>(lazy_items_->misses()));
    }
  }
}

}  // namespace agnn::core
