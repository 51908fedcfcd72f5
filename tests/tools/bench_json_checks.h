#ifndef AGNN_TESTS_TOOLS_BENCH_JSON_CHECKS_H_
#define AGNN_TESTS_TOOLS_BENCH_JSON_CHECKS_H_

#include <string>

#include "agnn/obs/json.h"

// Structural contract of a BENCH_<name>.json artifact (DESIGN.md §16).
// Shared by the validate_bench_json CLI — which ctest fixtures run on real
// bench output — and tests/tools/bench_json_checks_test.cc, which feeds it
// synthetically corrupted documents (missing SLO keys, NaN-as-null values,
// non-monotone series clocks) that a healthy bench never emits.

namespace agnn::tools {

/// Returns "" when `root` is a valid artifact, else a one-line description
/// of the first violation found.
inline std::string CheckBenchJson(const obs::JsonValue& root) {
  if (!root.is_object()) return "top level is not an object";
  const obs::JsonValue* name = root.Find("name");
  if (name == nullptr || !name->is_string() || name->string.empty()) {
    return "missing string key \"name\"";
  }
  for (const char* key : {"seed", "wall_ms", "peak_rss_kb"}) {
    const obs::JsonValue* v = root.Find(key);
    if (v == nullptr || !v->is_number()) {
      return std::string("missing numeric key \"") + key + "\"";
    }
  }
  for (const char* key : {"config", "metrics", "registry"}) {
    const obs::JsonValue* v = root.Find(key);
    if (v == nullptr || !v->is_object()) {
      return std::string("missing object key \"") + key + "\"";
    }
  }

  // Provenance block (DESIGN.md §16): every artifact must say which commit,
  // build, seed, and format versions produced it, or cross-run diffs are
  // meaningless. Numbers are checked with is_number, so a NaN (which
  // JsonWriter serializes as null) fails here too.
  const obs::JsonValue* provenance = root.Find("provenance");
  if (provenance == nullptr || !provenance->is_object()) {
    return "missing object key \"provenance\"";
  }
  for (const char* key :
       {"git_sha", "build_type", "compiler", "scale", "precision"}) {
    const obs::JsonValue* v = provenance->Find(key);
    if (v == nullptr || !v->is_string() || v->string.empty()) {
      return std::string("provenance: missing string key \"") + key + "\"";
    }
  }
  {
    const obs::JsonValue* v = provenance->Find("cxx_flags");
    if (v == nullptr || !v->is_string()) {
      return "provenance: missing string key \"cxx_flags\"";
    }
    v = provenance->Find("git_dirty");
    if (v == nullptr || v->type != obs::JsonValue::Type::kBool) {
      return "provenance: missing bool key \"git_dirty\"";
    }
  }
  for (const char* key : {"seed", "checkpoint_version", "shard_version",
                          "quantized_shard_version", "schema"}) {
    const obs::JsonValue* v = provenance->Find(key);
    if (v == nullptr || !v->is_number()) {
      return std::string("provenance: missing numeric key \"") + key + "\"";
    }
  }

  // Series sections (DESIGN.md §16): may be empty, but every sampler that
  // is present must be internally consistent — a strictly increasing clock
  // and equal-length, all-numeric tracks. A NaN sample serializes as null
  // and fails the numeric check.
  const obs::JsonValue* series = root.Find("series");
  if (series == nullptr || !series->is_object()) {
    return "missing object key \"series\"";
  }
  for (const auto& [series_name, one] : series->object) {
    const std::string where = "series \"" + series_name + "\": ";
    if (!one.is_object()) return where + "not an object";
    const obs::JsonValue* clock = one.Find("clock");
    if (clock == nullptr || !clock->is_string() || clock->string.empty()) {
      return where + "missing string key \"clock\"";
    }
    const obs::JsonValue* period = one.Find("period");
    if (period == nullptr || !period->is_number() || !(period->number > 0)) {
      return where + "missing positive \"period\"";
    }
    const obs::JsonValue* times = one.Find("times");
    if (times == nullptr || times->type != obs::JsonValue::Type::kArray) {
      return where + "missing array key \"times\"";
    }
    for (size_t i = 0; i < times->array.size(); ++i) {
      if (!times->array[i].is_number()) {
        return where + "non-numeric timestamp";
      }
      if (i > 0 && !(times->array[i].number > times->array[i - 1].number)) {
        return where + "timestamps are not strictly increasing";
      }
    }
    const obs::JsonValue* points = one.Find("points");
    if (points == nullptr || !points->is_number() ||
        points->number != static_cast<double>(times->array.size())) {
      return where + "\"points\" disagrees with the times array";
    }
    const obs::JsonValue* tracks = one.Find("tracks");
    if (tracks == nullptr || !tracks->is_object()) {
      return where + "missing object key \"tracks\"";
    }
    for (const auto& [track_name, track] : tracks->object) {
      if (track.type != obs::JsonValue::Type::kArray ||
          track.array.size() != times->array.size()) {
        return where + "track \"" + track_name +
               "\" length disagrees with times";
      }
      for (const obs::JsonValue& v : track.array) {
        if (!v.is_number()) {
          return where + "track \"" + track_name + "\" has a non-numeric " +
                 "value (NaN serializes as null)";
        }
      }
    }
  }

  // Gateway artifacts carry the SLO contract (DESIGN.md §14): throughput,
  // tail percentiles, the bitwise gate, and the adaptive batch-size
  // histogram must all be present for the perf trajectory to chart them.
  if (name->string == "serving_gateway") {
    const obs::JsonValue& metrics = *root.Find("metrics");
    for (const char* key :
         {"load/sustained_qps", "latency/p50_ms", "latency/p95_ms",
          "latency/p99_ms", "gate/bitwise_equal"}) {
      const obs::JsonValue* v = metrics.Find(key);
      if (v == nullptr || !v->is_number()) {
        return std::string("gateway artifact missing numeric metric \"") +
               key + "\"";
      }
    }
    const obs::JsonValue* histograms =
        root.Find("registry")->Find("histograms");
    const obs::JsonValue* batch_size =
        histograms == nullptr ? nullptr
                              : histograms->Find("gateway/batch_size");
    if (batch_size == nullptr || !batch_size->is_object()) {
      return "gateway artifact missing registry histogram "
             "\"gateway/batch_size\"";
    }
    const obs::JsonValue* count = batch_size->Find("count");
    if (count == nullptr || !count->is_number() || count->number < 1.0) {
      return "\"gateway/batch_size\" histogram is empty";
    }
  }

  // Ingestion artifacts carry the online cold-start contract (DESIGN.md
  // §17): per-node time-to-serve tails, the adjacency churn counter, both
  // bitwise gates with the rebuild gate's probe count, and the "ingestion"
  // series the trajectory charts time-to-serve from.
  if (name->string == "cold_ingestion") {
    const obs::JsonValue& metrics = *root.Find("metrics");
    for (const char* key :
         {"ingest/count", "ingest/p50_ms", "ingest/p95_ms",
          "ingest/edges_linked", "churn/rows_refreshed", "rebuild/probes",
          "gate/bitwise_equal", "gate/rebuild_bitwise_equal"}) {
      const obs::JsonValue* v = metrics.Find(key);
      if (v == nullptr || !v->is_number()) {
        return std::string("ingestion artifact missing numeric metric \"") +
               key + "\"";
      }
    }
    const obs::JsonValue* ingestion = series->Find("ingestion");
    if (ingestion == nullptr || !ingestion->is_object()) {
      return "ingestion artifact missing series \"ingestion\"";
    }
    const obs::JsonValue* tracks = ingestion->Find("tracks");
    for (const char* track : {"ingested", "ingest_p95_ms", "catalog_nodes"}) {
      const obs::JsonValue* v = tracks == nullptr ? nullptr
                                                  : tracks->Find(track);
      if (v == nullptr) {
        return std::string("ingestion series missing track \"") + track +
               "\"";
      }
    }
  }

  // Quantized-serving artifacts carry the accuracy gate (DESIGN.md §15):
  // the f32-vs-int8 accuracy deltas, the Table-2 ordering-preservation
  // verdict, the artifact/RSS compression ratios, and the f32 bitwise gate
  // must all be present for the precision trajectory to chart them.
  if (name->string == "quantized_serving") {
    const obs::JsonValue& metrics = *root.Find("metrics");
    for (const char* key :
         {"precision/rmse_delta", "precision/mae_delta",
          "precision/ordering_preserved", "artifact/bytes_ratio",
          "artifact/shard_bytes_ratio", "serve/rss_ratio",
          "gate/f32_bitwise_equal"}) {
      const obs::JsonValue* v = metrics.Find(key);
      if (v == nullptr || !v->is_number()) {
        return std::string("quantized artifact missing numeric metric \"") +
               key + "\"";
      }
    }
  }
  return "";
}

}  // namespace agnn::tools

#endif  // AGNN_TESTS_TOOLS_BENCH_JSON_CHECKS_H_
