// Online cold-start ingestion benchmark (DESIGN.md §17): streaming
// attribute-only node arrivals through InferenceSession::IngestNode while
// Zipf predict traffic runs through the ServingGateway on the same virtual
// clock. Each ingest is fenced (queued predicts serve against the
// pre-ingest state), inserts the node into the side's dynamic attribute
// graph (rewriting the top-k rows it enters), and computes its fused
// embedding through the eVAE cold-start module. No cached row is touched.
//
// Reports the per-node time-to-serve distribution (arrival to servable,
// p50/p95 on the virtual clock), the adjacency churn (rows the inserts
// rewrote), and two gates:
//   gate/bitwise_equal          every gateway prediction == a direct
//                               one-by-one session Predict (replay)
//   gate/rebuild_bitwise_equal  every served base-catalog request (user,
//                               item and neighbor ids all pre-existing)
//                               predicts byte-identically on a fresh
//                               session that never ingested: ingests leave
//                               pre-existing rows untouched (§17)
//
// Bench-specific knobs (on top of the common bench flags):
//   --qps=N            offered predict load (default 2000)
//   --requests=N       predict stream length (default 2048)
//   --ingest_rate=R    Poisson node-arrival rate per second (default 50)
//   --ingests=N        arrival stream length (default 96)
//   --target_fraction=F  probability a predict targets an already-ingested
//                        node on each side (default 0.25)
//   --zipf_q=Q --top_k=K --budget_us --max_batch --queue_capacity
//   --series_period_us=P  window between series points (artifact's
//                         series.ingestion section)
//   --smoke            CI mode: tiny budgets plus deterministic modeled
//                      service/ingest times, so the emitted artifact is a
//                      pure function of the seed and diffs exactly against
//                      the checked-in golden
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "agnn/common/flags.h"
#include "agnn/common/logging.h"
#include "agnn/common/table.h"
#include "agnn/core/inference_session.h"
#include "agnn/core/serving_gateway.h"
#include "agnn/core/trainer.h"
#include "bench_util.h"

namespace agnn::bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double PercentileMs(std::vector<double> us, double pct) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  const size_t idx = std::min(
      us.size() - 1, static_cast<size_t>(pct * static_cast<double>(us.size())));
  return us[idx] / 1000.0;
}

// Random sorted-unique attribute slots for one arriving node.
std::vector<size_t> ArrivalSlots(Rng* rng, size_t total_slots) {
  std::vector<bool> active(total_slots, false);
  for (int i = 0; i < 3; ++i) active[rng->UniformInt(total_slots)] = true;
  std::vector<size_t> slots;
  for (size_t s = 0; s < total_slots; ++s) {
    if (active[s]) slots.push_back(s);
  }
  return slots;
}

int Main(int argc, char** argv) {
  BenchOptions options = BenchOptions::FromFlags(argc, argv);
  FlagParser flags;
  AGNN_CHECK(flags.Parse(argc, argv).ok());
  const bool smoke = flags.GetBool("smoke", false);
  if (!options.epochs_explicit) options.epochs = smoke ? 1 : 2;
  const double qps = flags.GetDouble("qps", 2000.0);
  const size_t num_requests =
      static_cast<size_t>(flags.GetInt("requests", smoke ? 160 : 2048));
  const double ingest_rate = flags.GetDouble("ingest_rate", 50.0);
  const size_t num_ingests =
      static_cast<size_t>(flags.GetInt("ingests", smoke ? 12 : 96));
  const double target_fraction = flags.GetDouble("target_fraction", 0.25);
  const double zipf_q = flags.GetDouble("zipf_q", 1.5);
  const size_t top_k = static_cast<size_t>(flags.GetInt("top_k", 8));
  core::ServingGatewayOptions gateway_options;
  gateway_options.max_batch =
      static_cast<size_t>(flags.GetInt("max_batch", 16));
  gateway_options.budget_us = flags.GetDouble("budget_us", 2000.0);
  gateway_options.queue_capacity =
      static_cast<size_t>(flags.GetInt("queue_capacity", 1024));
  const double series_period_us =
      flags.GetDouble("series_period_us", smoke ? 5'000.0 : 10'000.0);
  AGNN_CHECK_GT(qps, 0.0);
  AGNN_CHECK_GT(ingest_rate, 0.0);
  AGNN_CHECK_GT(num_requests, 0u);
  AGNN_CHECK_GT(num_ingests, 0u);
  AGNN_CHECK(target_fraction >= 0.0 && target_fraction <= 1.0);
  if (smoke) {
    // Deterministic virtual service models: the artifact becomes a pure
    // function of the seed, so the ctest golden diff needs no tolerance
    // slack for wall-time noise in the latency keys.
    gateway_options.service_time_us = [](size_t batch) {
      return 20.0 + 2.0 * static_cast<double>(batch);
    };
    gateway_options.ingest_time_us = [](size_t edges) {
      return 120.0 + 5.0 * static_cast<double>(edges);
    };
  }

  PrintHeader("Cold-start ingestion — streaming IngestNode through the "
              "gateway",
              "systems extension; not a paper table", options);
  BenchReporter reporter("cold_ingestion", options);
  reporter.Add("load/offered_qps", qps);
  reporter.Add("load/requests", static_cast<double>(num_requests));
  reporter.Add("load/ingest_rate", ingest_rate);
  reporter.Add("load/ingests", static_cast<double>(num_ingests));
  reporter.Add("load/target_fraction", target_fraction);
  reporter.Add("load/zipf_q", zipf_q);
  reporter.Add("ingest/top_k", static_cast<double>(top_k));
  reporter.Add("gateway/max_batch",
               static_cast<double>(gateway_options.max_batch));
  reporter.Add("gateway/budget_us", gateway_options.budget_us);

  // --- Trained model → model-backed session with ingestion enabled. The
  // ingestion path needs the model in memory (arriving nodes run through
  // the eVAE cold-start module), so unlike bench/serving_gateway this
  // serves the model-backed session, not a serving checkpoint.
  const std::string dataset_name =
      options.datasets.empty() ? "ml100k" : options.datasets.front();
  const data::Dataset& dataset =
      LoadDataset(dataset_name, options.scale, options.seed);
  eval::ExperimentConfig config = options.MakeExperimentConfig();
  eval::ExperimentRunner runner(dataset, data::Scenario::kItemColdStart,
                                config);
  const auto train0 = Clock::now();
  core::AgnnTrainer trainer(dataset, runner.split(), config.agnn);
  trainer.Train();
  reporter.Add("train/ms", MsSince(train0));
  const data::Split& split = runner.split();
  const size_t base_users = dataset.num_users;
  const size_t base_items = dataset.num_items;
  reporter.Add("world/users", static_cast<double>(base_users));
  reporter.Add("world/items", static_cast<double>(base_items));

  core::InferenceSession session(trainer.model(), &split.cold_user,
                                 &split.cold_item, reporter.registry(),
                                 reporter.trace());
  core::InferenceSession::IngestOptions ingest_options;
  ingest_options.top_k = top_k;
  session.EnableIngestion(dataset, ingest_options);
  const size_t s = session.neighbors_per_node();

  // --- Two Poisson arrival streams on one virtual clock: predicts at
  // --qps, node arrivals at --ingest_rate, merged in time order below.
  Rng load_rng(options.seed ^ 0xc01dc0deULL);
  std::vector<double> predict_at(num_requests);
  double t = 0.0;
  for (double& at : predict_at) {
    t += -std::log(1.0 - load_rng.Uniform()) * 1e6 / qps;
    at = t;
  }
  struct IngestPlan {
    double at = 0.0;
    core::IngestArrival arrival;
  };
  std::vector<IngestPlan> ingest_plan(num_ingests);
  t = 0.0;
  for (IngestPlan& plan : ingest_plan) {
    t += -std::log(1.0 - load_rng.Uniform()) * 1e6 / ingest_rate;
    plan.at = t;
    plan.arrival.user_side = load_rng.Bernoulli(0.5);
    plan.arrival.attr_slots = ArrivalSlots(
        &load_rng, plan.arrival.user_side ? dataset.user_schema.total_slots()
                                          : dataset.item_schema.total_slots());
  }

  // --- Drive the merged stream. Requests are built at submit time so they
  // can target already-ingested nodes; every submitted request is recorded
  // for the one-by-one replay gate (ingests never rewrite a cached row, so
  // the post-run session must reproduce every mid-run prediction exactly).
  std::vector<core::ServingRequest> submitted;
  submitted.reserve(num_requests);
  std::vector<double> predict_latency_us;
  predict_latency_us.reserve(num_requests);
  std::vector<float> gateway_pred(num_requests, 0.0f);
  std::vector<bool> served(num_requests, false);
  auto sink = [&](const core::ServingCompletion& done) {
    predict_latency_us.push_back(done.latency_us);
    gateway_pred[done.id] = done.prediction;
    served[done.id] = true;
  };
  std::vector<double> ingest_latency_us;
  ingest_latency_us.reserve(num_ingests);

  if (reporter.trace() != nullptr) reporter.trace()->SetTrack(1);
  // Caller-side probes first, then the gateway registers its track set
  // ("qps", window latency quantiles, "ingested", "ingest_p95_ms", ...) in
  // its ctor; all sampling rides the virtual clock (DESIGN.md §16).
  obs::TimeSeries* series = reporter.AddTimeSeries(
      "ingestion", {.capacity = 512,
                    .period = series_period_us,
                    .clock = "virtual_us"});
  series->AddProbe("catalog_nodes", [&session] {
    return static_cast<double>(session.num_users() + session.num_items());
  });
  series->AddProbe("rows_refreshed", [&session] {
    return static_cast<double>(session.ingest_stats().rows_refreshed);
  });
  core::ServingGateway gateway(&session, gateway_options, sink,
                               reporter.registry(), reporter.trace(), series);
  gateway.set_ingest_sink([&](const core::IngestCompletion& done) {
    ingest_latency_us.push_back(done.latency_us);
  });

  Rng mix_rng(options.seed ^ 0x1e57ab1eULL);
  size_t targeted_requests = 0;
  const auto serve0 = Clock::now();
  size_t pi = 0;
  size_t ii = 0;
  double last_at = 0.0;
  while (pi < num_requests || ii < num_ingests) {
    const bool do_ingest =
        ii < num_ingests &&
        (pi >= num_requests || ingest_plan[ii].at <= predict_at[pi]);
    if (do_ingest) {
      gateway.SubmitIngest(ingest_plan[ii].arrival, ingest_plan[ii].at);
      last_at = ingest_plan[ii].at;
      ++ii;
      continue;
    }
    core::ServingRequest req;
    const size_t extra_users = session.num_users() - base_users;
    const size_t extra_items = session.num_items() - base_items;
    bool targeted = false;
    if (extra_users > 0 && mix_rng.Bernoulli(target_fraction)) {
      req.user = base_users + mix_rng.UniformInt(extra_users);
      targeted = true;
    } else {
      req.user = mix_rng.Zipf(base_users, zipf_q);
    }
    if (extra_items > 0 && mix_rng.Bernoulli(target_fraction)) {
      req.item = base_items + mix_rng.UniformInt(extra_items);
      targeted = true;
    } else {
      req.item = mix_rng.Zipf(base_items, zipf_q);
    }
    targeted_requests += targeted ? 1 : 0;
    session.SampleIngestNeighborsInto(/*user_side=*/true, req.user, s,
                                      &mix_rng, &req.user_neighbors);
    session.SampleIngestNeighborsInto(/*user_side=*/false, req.item, s,
                                      &mix_rng, &req.item_neighbors);
    submitted.push_back(req);
    gateway.Submit(req, predict_at[pi]);
    last_at = predict_at[pi];
    ++pi;
  }
  gateway.Drain(last_at + gateway_options.budget_us);
  const double serve_wall_ms = MsSince(serve0);
  const core::ServingGatewayStats& stats = gateway.stats();
  reporter.Add("load/targeted_requests",
               static_cast<double>(targeted_requests));

  // --- Time-to-serve and churn report.
  const core::InferenceSession::IngestStats& istats = session.ingest_stats();
  reporter.Add("ingest/count",
               static_cast<double>(istats.ingested_users +
                                   istats.ingested_items));
  reporter.Add("ingest/users", static_cast<double>(istats.ingested_users));
  reporter.Add("ingest/items", static_cast<double>(istats.ingested_items));
  reporter.Add("ingest/edges_linked",
               static_cast<double>(istats.edges_linked));
  reporter.Add("ingest/p50_ms", PercentileMs(ingest_latency_us, 0.5));
  reporter.Add("ingest/p95_ms", PercentileMs(ingest_latency_us, 0.95));
  reporter.Add("churn/rows_refreshed",
               static_cast<double>(istats.rows_refreshed));
  reporter.Add("latency/p50_ms", PercentileMs(predict_latency_us, 0.5));
  reporter.Add("latency/p95_ms", PercentileMs(predict_latency_us, 0.95));
  reporter.Add("load/served", static_cast<double>(stats.served));
  reporter.Add("load/shed", static_cast<double>(stats.shed));
  reporter.Add("batch/count", static_cast<double>(stats.batches));
  reporter.Add("batch/fence_flushes",
               static_cast<double>(stats.fence_flushes));
  reporter.Add("serve/wall_ms", serve_wall_ms);

  // --- Replay gate: every served request one-by-one against the bare
  // post-run session; mid-run gateway predictions must reproduce exactly.
  size_t mismatches = 0;
  for (size_t i = 0; i < submitted.size(); ++i) {
    if (!served[i]) continue;
    const core::ServingRequest& req = submitted[i];
    const float direct = session.Predict(req.user, req.item,
                                         req.user_neighbors,
                                         req.item_neighbors);
    if (direct != gateway_pred[i]) ++mismatches;
  }
  reporter.Add("gate/bitwise_equal", mismatches == 0 ? 1.0 : 0.0);

  // --- Rebuild gate: a fresh session over the same model that never
  // ingested is the reference for every served request that touches only
  // the base catalog (target and neighbor ids alike).
  core::InferenceSession reference(trainer.model(), &split.cold_user,
                                   &split.cold_item);
  const auto in_base = [](const std::vector<size_t>& ids, size_t base) {
    return std::all_of(ids.begin(), ids.end(),
                       [base](size_t id) { return id < base; });
  };
  size_t rebuild_probes = 0;
  size_t rebuild_mismatches = 0;
  for (size_t i = 0; i < submitted.size(); ++i) {
    const core::ServingRequest& req = submitted[i];
    if (!served[i] || req.user >= base_users || req.item >= base_items ||
        !in_base(req.user_neighbors, base_users) ||
        !in_base(req.item_neighbors, base_items)) {
      continue;
    }
    rebuild_probes += 1;
    if (reference.Predict(req.user, req.item, req.user_neighbors,
                          req.item_neighbors) != gateway_pred[i]) {
      ++rebuild_mismatches;
    }
  }
  reporter.Add("rebuild/probes", static_cast<double>(rebuild_probes));
  reporter.Add("gate/rebuild_bitwise_equal",
               rebuild_probes > 0 && rebuild_mismatches == 0 ? 1.0 : 0.0);

  Table table({"Metric", "Value"});
  table.AddRow({"ingested nodes",
                Table::Cell(static_cast<double>(istats.ingested_users +
                                                istats.ingested_items))});
  table.AddRow({"time-to-serve p50 ms",
                Table::Cell(PercentileMs(ingest_latency_us, 0.5))});
  table.AddRow({"time-to-serve p95 ms",
                Table::Cell(PercentileMs(ingest_latency_us, 0.95))});
  table.AddRow({"adjacency rows rewritten",
                Table::Cell(static_cast<double>(istats.rows_refreshed))});
  table.AddRow({"base-catalog probes",
                Table::Cell(static_cast<double>(rebuild_probes))});
  table.AddRow({"predict p95 ms",
                Table::Cell(PercentileMs(predict_latency_us, 0.95))});
  std::printf("\n%s\n", table.ToString().c_str());
  std::printf("served %llu predicts (%llu shed), ingested %llu nodes "
              "(%llu fence flushes); replay gate: %zu mismatches, rebuild "
              "gate: %zu mismatches\n",
              static_cast<unsigned long long>(stats.served),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.ingested),
              static_cast<unsigned long long>(stats.fence_flushes),
              mismatches, rebuild_mismatches);
  reporter.WriteJson();
  if (mismatches > 0 || rebuild_mismatches > 0 || rebuild_probes == 0) {
    std::fprintf(stderr, "FAIL: ingestion broke a bitwise serving contract "
                         "(replay: %zu, rebuild: %zu mismatches over %zu "
                         "probes)\n",
                 mismatches, rebuild_mismatches, rebuild_probes);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace agnn::bench

int main(int argc, char** argv) { return agnn::bench::Main(argc, argv); }
