// AGNN wall-clock benchmark: one single-threaded process that runs the
// whole strict-cold-start lifecycle on the paper-scale ml100k world and
// times it end to end and layer by layer.
//
//   world + split + AgnnTrainer (attribute-graph pools)   -> setup_s
//   Train() epochs, EvaluateTest()                         -> epoch_s, cold_rmse
//   ExportServingCheckpoint + FromServingCheckpoint (lazy) -> setup_s
//   (a) closed loop: sample neighbors -> Predict           -> direct_p50_us
//   (b) open loop at the reference rate via ServingGateway -> request_p50/p99_us
//   (c) open loop over a rate ladder                       -> max_qps
//   (d) open loop mixing predicts with SubmitIngest        -> ingest_p50_ms
//
// Every workload runs every phase, so every metric has a value on every
// workload; the workloads differ in precision and in what they weight
// (kWorkloads, README.md). The fixed parameters are the constants below;
// the seed, the run length and the trace switch are flags. The library only
// ever sees the generated inputs.
//
// With --trace=1 the same run attaches the library's MetricsRegistry and
// TraceRecorder plus the benchmark's own spans around each call into a
// layer, and prints the per-layer metrics instead of the end-to-end ones.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// and the exit code is non-zero whenever an output check failed.

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agnn/common/flags.h"
#include "agnn/common/rng.h"
#include "agnn/core/inference_session.h"
#include "agnn/core/serving_checkpoint.h"
#include "agnn/core/serving_gateway.h"
#include "agnn/core/trainer.h"
#include "agnn/data/split.h"
#include "agnn/data/synthetic.h"
#include "agnn/graph/graph.h"
#include "agnn/obs/metrics.h"
#include "agnn/obs/trace.h"
#include "stats.h"

namespace agnnbench {
namespace {

using agnn::Rng;
using agnn::core::InferenceSession;
using agnn::core::ServingGateway;
using agnn::core::ServingPrecision;
using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed parameters

// Traffic. Values follow the repository's own serving benches
// (bench/serving_gateway.cc, bench/cold_ingestion.cc) unless the comment
// gives the measured reason to depart.
//
// Zipf exponent of user and warm-item popularity: both benches' default.
constexpr double kZipfQ = 1.5;
// Share of requests whose item is strict-cold: serving_gateway's default
// --cold_fraction.
constexpr double kColdShare = 0.1;
// Predict arrival rate of the open loops (b) and (d). Departs from the
// benches' 2,000/s: there a 1,000-arrival p99 window spans 0.5 s, which
// holds about one and a half host stalls, so most windows' p99 reads a
// stall, and request_p99_us spread 0.25-0.37 of its median over 10 seeds
// (0.28 on the mixed stream of ingest). At 10,000/s a window spans 0.1 s
// and most windows miss the stalls (README.md).
constexpr double kRefQps = 10000.0;
// Attribute-only arrivals per second in (d). Departs from cold_ingestion's
// 50/s, at which the ingest workload's request_p99_us sits at the edge of
// the few predicts that queue behind an ingest, and over 5 seeds its
// spread exceeded the metric's bound (README.md).
constexpr double kIngestRate = 100.0;
// Share of (d) predicts that target an already-ingested node on each side:
// cold_ingestion's default --target_fraction.
constexpr double kTargetShare = 0.25;
// Gateway batch cap and queue: serving_gateway's defaults.
constexpr size_t kMaxBatch = 32;
constexpr size_t kQueueCapacity = 1024;
// Gateway batching budget. Departs from the benches' 2 ms, which flushes
// almost every batch on its timer below about 16,000/s, so the request
// latency measures the timer (EXPERIMENTS.md at 2,000/s: p50 1.31 ms, 828
// budget flushes, 0 full) and a 2x slower session moves request_p50_us by
// a few percent. At 200 µs the service time is a larger share of it
// (README.md).
constexpr double kBudgetUs = 200.0;
// LRU rows per side of the lazy session. Departs from serving_gateway's
// 4,096, which holds the whole 2,625-node catalog, so the LRU would stop
// missing after warm-up; 128 rows is smaller than the working set that
// the requests and their sampled neighbors touch (io.lru_hit_rate).
constexpr size_t kCacheRows = 128;

// Capacity search. The ladder starts at the reference rate, so its first
// probe re-checks that rate under the rung rules; 1e6/s is far above any
// capacity measured here; a 5% step is finer than the max_qps bound.
constexpr double kLadderLo = kRefQps;
constexpr double kLadderHi = 1e6;
constexpr double kLadderRatio = 1.05;
// p99 limit of a passing rung: one budget plus a few full-batch services
// (a batch of 32 takes about 240 µs here).
constexpr double kP99LimitUs = 1000.0;

// Run shape.
//
// Setups per run; setup_s adds the medians of the setup steps, so a slow
// setup on a contended host does not decide it.
constexpr size_t kSetupRepeats = 3;
// Train() epochs per run; epoch_s is their mean.
constexpr size_t kEpochs = 2;
// The serving phases run in this many interleaved rounds, so each metric
// samples the whole run rather than one stretch of it.
constexpr size_t kRounds = 8;
// Shares of --seconds given to the closed loop (a) and to the reference-rate
// open loop (b), summed over rounds, and to each probed ladder rung (c).
// The mixed loop's (d) share is the workload's.
constexpr double kDirectShare = 0.15;
constexpr double kRefShare = 0.2;
constexpr double kRungShare = 0.04;

// The workloads differ only in precision and in how much of the run the
// mixed predict+ingest stream gets. There is no f32 predict-only workload:
// `ingest` serves its phases (a)-(c) from the same f32 lazy session.
struct Workload {
  const char* name;
  ServingPrecision precision;
  double mixed_share;  // share of --seconds for (d), summed over rounds
};
constexpr Workload kWorkloads[] = {
    {"serve_int8", ServingPrecision::kInt8, 0.5},
    {"ingest", ServingPrecision::kF32, 0.7},
};

struct Params {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
};

bool ParseParams(int argc, char** argv, Params* p, std::string* error) {
  agnn::FlagParser flags;
  if (agnn::Status s = flags.Parse(argc, argv); !s.ok()) {
    *error = s.ToString();
    return false;
  }
  static const char* const kKnown[] = {"workload", "seed",     "seconds",
                                       "trace",    "work_dir", "git_sha"};
  for (const auto& [name, value] : flags.values()) {
    if (std::find(std::begin(kKnown), std::end(kKnown), name) ==
        std::end(kKnown)) {
      *error = "unknown flag --" + name;
      return false;
    }
  }
  const std::string name = flags.GetString("workload", "");
  for (const Workload& w : kWorkloads) {
    if (name == w.name) p->workload = &w;
  }
  p->seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  p->seconds = flags.GetDouble("seconds", p->seconds);
  p->trace = flags.GetInt("trace", 0) != 0;
  p->work_dir = flags.GetString("work_dir", p->work_dir);
  p->git_sha = flags.GetString("git_sha", p->git_sha);
  if (p->workload == nullptr) {
    *error = "unknown --workload '" + name + "'";
  } else if (!(p->seconds > 0.0)) {
    *error = "--seconds must be positive";
  }
  return error->empty();
}

// ---------------------------------------------------------------------------
// Host stamp and small helpers

double MicrosSince(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - t0)
      .count();
}

double SecondsSince(SteadyClock::time_point t0) {
  return MicrosSince(t0) / 1e6;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  in >> load;
  return load;
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Host speed. The host is shared: the same code runs 1.0-1.8x slower than
// its best from one second to the next, and whole runs shift with it
// (README.md). A fixed probe that owes nothing to the library -- a small
// float GEMM, a sigmoid pass and random 64-byte row copies, the mix a
// request does -- is timed next to the measured work, and the CPU-bound
// timings are scaled to the probe's reference time.

// Ten rounds of the probe on the reference host (4-vCPU Xeon VM) when it is
// not contended; a host factor of 1 means "as fast as the reference".
constexpr double kReferenceProbeUs = 145.0;
constexpr int kProbeRounds = 10;

// Sink for the probe's result, so the compiler cannot drop its work.
volatile float probe_sink = 0.0f;

// The probe's working set. The sampler below has one of its own, so a
// sample taken inside an explicit probe cannot disturb that probe's data.
struct ProbeData {
  std::vector<float> a = std::vector<float>(16 * 16, 0.5f);
  std::vector<float> b = std::vector<float>(16 * 72, 0.25f);
  std::vector<float> c = std::vector<float>(16 * 72);
  std::vector<float> table = std::vector<float>(4096 * 16, 1.0f);
  std::vector<float> row = std::vector<float>(16);
  uint64_t state = 88172645463325252ULL;
};

// Runs `rounds` rounds of the probe on `d`; allocates nothing, so it may
// run inside a signal handler.
double ProbeUs(ProbeData* d, int rounds) {
  const auto t0 = SteadyClock::now();
  for (int rep = 0; rep < rounds; ++rep) {
    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 72; ++j) {
        float acc = 0.0f;
        for (int k = 0; k < 16; ++k) acc += d->a[i * 16 + k] * d->b[k * 72 + j];
        d->c[i * 72 + j] = acc;
      }
    }
    for (float& x : d->c) x = 1.0f / (1.0f + std::exp(-x * 1e-3f));
    for (int r = 0; r < 18; ++r) {
      d->state ^= d->state << 13;
      d->state ^= d->state >> 7;
      d->state ^= d->state << 17;
      std::memcpy(d->row.data(), &d->table[(d->state % 4096) * 16],
                  16 * sizeof(float));
      d->c[r] += d->row[r % 16];
    }
  }
  probe_sink = d->c[5];
  return MicrosSince(t0);
}

// Every host factor the run has probed.
std::vector<double>& ProbedFactors() {
  static std::vector<double> factors;
  return factors;
}

// How fast the host runs right now, from five back-to-back probes. The
// median, not the fastest: the work next to the probe runs at the host's
// typical speed, and the fastest probe of five reads a lucky moment.
double HostFactor() {
  static ProbeData data;
  double us[5];
  for (double& u : us) u = ProbeUs(&data, kProbeRounds);
  std::nth_element(us, us + 2, us + 5);
  ProbedFactors().push_back(us[2] / kReferenceProbeUs);
  return ProbedFactors().back();
}

// Host-speed sampler for work that runs inside one library call (an epoch,
// a setup step) or that an explicit probe would delay (an open loop).
// While armed, SIGALRM every kSampleEveryUs runs one probe round on the
// benchmark's own thread -- no thread is added -- and records its time.
// The factor over an armed stretch is the median sample over the reference
// round. A round takes about 15 µs, so the sampler costs 0.3% of the time
// it is armed; in an open loop it delays about one request in 300 by at
// most one round.
constexpr long kSampleEveryUs = 5000;
constexpr size_t kSampleCap = size_t{1} << 16;  // ~5 min armed
double sample_us[kSampleCap];
volatile sig_atomic_t sample_count = 0;

void SampleHost(int) {
  static ProbeData data;  // built before the first arming
  if (sample_count < static_cast<sig_atomic_t>(kSampleCap)) {
    sample_us[sample_count] = ProbeUs(&data, 1);
    sample_count = sample_count + 1;
  }
}

// Arms the sampler and returns the index of its first sample.
size_t ArmSampler() {
  static bool installed = false;
  if (!installed) {
    SampleHost(0);  // builds the sampler's probe data outside the handler
    sample_count = 0;
    struct sigaction action {};
    action.sa_handler = SampleHost;
    action.sa_flags = SA_RESTART;  // the library's file I/O is not cut short
    sigemptyset(&action.sa_mask);
    sigaction(SIGALRM, &action, nullptr);
    installed = true;
  }
  itimerval timer{};
  timer.it_interval.tv_usec = kSampleEveryUs;
  timer.it_value.tv_usec = kSampleEveryUs;
  setitimer(ITIMER_REAL, &timer, nullptr);
  return static_cast<size_t>(sample_count);
}

// Disarms the sampler and returns the host factor over the samples taken
// since `first`. A stretch too short for three samples is probed instead.
double DisarmSampler(size_t first) {
  itimerval timer{};
  setitimer(ITIMER_REAL, &timer, nullptr);
  const size_t last = static_cast<size_t>(sample_count);
  if (last < first + 3) return HostFactor();
  const double median = Percentile(
      std::vector<double>(sample_us + first, sample_us + last), 50.0);
  return median / (kReferenceProbeUs / kProbeRounds);
}

// Runs `work` with the sampler armed; returns its wall seconds and stores
// the host factor over it in `*factor`.
template <typename Work>
double TimeSampled(Work&& work, double* factor) {
  const size_t first = ArmSampler();
  const auto t0 = SteadyClock::now();
  work();
  const double seconds = SecondsSince(t0);
  *factor = DisarmSampler(first);
  return seconds;
}

// Latency summary line: median, p99 and the highest percentile the sample
// supports, with the sample count.
void PrintLatency(const char* name, const std::vector<double>& us) {
  const double top = HighestSupportedPercentile(us.size());
  std::printf("  %-22s n=%-7zu p50=%10.2f us  p99=%10.2f us  p%g=%10.2f us\n",
              name, us.size(), Percentile(us, 50.0), Percentile(us, 99.0),
              top, Percentile(us, top));
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Error("metric " + name + " is not finite");
      value = -1.0;
    }
    metrics_.push_back({name, {value, unit}});
  }
  // A check over `attempted` answers of which `wrong` failed.
  void Check(const std::string& what, uint64_t attempted, uint64_t wrong) {
    attempted_ += attempted;
    wrong_ += wrong;
    std::printf("check %-34s %8llu checked, %llu wrong\n", what.c_str(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(wrong));
  }
  // Shed requests were attempted and count as failed.
  void Shed(uint64_t shed) { shed_ += shed; }
  // Percentile metrics need the sample count their rule asks for; a short
  // sample is a benchmark failure, not a number.
  void RequireSamples(const std::string& name, size_t n, double p) {
    if (!SupportsPercentile(n, p)) {
      std::printf("error: %s has %zu samples, too few for p%g\n",
                  name.c_str(), n, p);
      ++config_errors_;
    }
  }
  void Error(const std::string& what) {
    std::printf("error: %s\n", what.c_str());
    ++config_errors_;
  }

  uint64_t attempted() const { return attempted_ + shed_; }
  uint64_t failed() const { return shed_ + wrong_ + config_errors_; }
  double failed_frac() const {
    return FailedFrac(shed_, wrong_ + config_errors_, attempted());
  }
  bool correct() const { return wrong_ == 0 && config_errors_ == 0; }

  void PrintMetrics() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("metric %-34s %18.6f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted());
    out += ", \"failed\": " + std::to_string(failed());
    out += ", \"metrics\": {";
    bool first = true;
    char number[64];
    for (const auto& [name, m] : metrics_) {
      std::snprintf(number, sizeof(number), "%.17g", m.value);
      out += first ? "" : ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;  // print order
  uint64_t attempted_ = 0;
  uint64_t wrong_ = 0;
  uint64_t shed_ = 0;
  uint64_t config_errors_ = 0;
};

// ---------------------------------------------------------------------------
// World and request mix

// Dataset, split and trainer; the trainer borrows the other two.
struct World {
  agnn::data::Dataset dataset;
  agnn::data::Split split;
  std::unique_ptr<agnn::core::AgnnTrainer> trainer;
  std::vector<size_t> warm_items;
  std::vector<size_t> cold_items;
};

// (user, item) draws: users by Zipf rank over the whole catalog (every
// user is warm under item cold start); items strict-cold with probability
// kColdShare (uniform over the cold items), otherwise Zipf over the warm
// ones. Rank r maps to the r-th id, so the popular head is a fixed set the
// LRU can hold while the tail and the cold share keep missing.
struct RequestMix {
  const World* world;

  std::pair<size_t, size_t> Draw(Rng* rng) const {
    const size_t user = rng->Zipf(world->dataset.num_users, kZipfQ);
    size_t item;
    if (!world->cold_items.empty() && rng->Bernoulli(kColdShare)) {
      item = world->cold_items[rng->UniformInt(world->cold_items.size())];
    } else {
      item = world->warm_items[rng->Zipf(world->warm_items.size(), kZipfQ)];
    }
    return {user, item};
  }
};

// Seed of one independent stream of a run: which phase draws from it, and
// which slice (round, ladder rung or attempt) of that phase. A stream never
// depends on what ran before it.
enum Stream : uint64_t {
  kWarmup = 1,
  kDirectIds,
  kDirectNeighbors,
  kRefIds,
  kRefNeighbors,
  kMixedSchedule,
  kMixedDraws,
  kLadderIds,
  kLadderNeighbors,
};
uint64_t StreamSeed(uint64_t seed, Stream stream, uint64_t slice = 0) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^
          (static_cast<uint64_t>(stream) << 48) ^ (slice + 1));
  rng.Next();
  return rng.Next();
}

// `count` Poisson arrival times (µs) at `rate` per second after `start_us`.
std::vector<double> PoissonSchedule(Rng* rng, double rate, size_t count,
                                    double start_us) {
  std::vector<double> due(count);
  double t = start_us;
  for (double& at : due) {
    t += -std::log(1.0 - rng->Uniform()) * 1e6 / rate;
    at = t;
  }
  return due;
}

// Arrivals per window when an open-loop p99 is estimated (a p99 needs 1000).
constexpr size_t kP99Window = 1000;
// Closed-loop requests between two host-speed probes (~15 ms of them).
constexpr size_t kProbeEvery = 1024;
// Most attempts a ladder rung gets, and the trusted failures that fail it.
constexpr int kRungAttempts = 4;
constexpr int kRungFailures = 2;
// An attempt is offered the rung's rate scaled by the host factor probed
// before it. If the factor sampled during it differs by more than this
// ratio, the host sped up or slowed down during the attempt: a pass while
// it sped up, or a failure while it slowed down, is not trusted.
constexpr double kRungHostDrift = 1.25;
// The int8 accuracy gate (DESIGN.md §15): an int8 answer stays within this
// many rating points of the f32 answer.
constexpr double kInt8Tolerance = 0.25;
// Untimed ingests (and predicts) that warm the ingest session up.
constexpr size_t kIngestWarmup = 32;
// Arrivals' head start after a phase clock starts, so the first arrival
// is not late by the time it takes to build the gateway.
constexpr double kStartUs = 2000.0;

// A clock in µs since `origin`, shared by an open loop and its gateway.
struct PhaseClock {
  SteadyClock::time_point origin = SteadyClock::now();
  double operator()() const { return MicrosSince(origin); }
};

agnn::core::ServingGatewayOptions GatewayOptions() {
  agnn::core::ServingGatewayOptions options;
  options.max_batch = kMaxBatch;
  options.budget_us = kBudgetUs;
  options.queue_capacity = kQueueCapacity;
  return options;  // service time measured on the wall clock
}

// Mean inclusive time of one span kind, accumulated over several traces.
struct SpanTotal {
  double us = 0.0;
  uint64_t count = 0;
  void Add(const agnn::obs::TraceRecorder& trace, const char* category,
           const char* name) {
    for (const auto& row : trace.Summary(1000)) {
      if (std::string(row.category) == category &&
          std::string(row.name) == name) {
        us += row.inclusive_us;
        count += row.count;
      }
    }
  }
  double mean() const {
    return count == 0 ? -1.0 : us / static_cast<double>(count);
  }
};

// ---------------------------------------------------------------------------
// The benchmark's own logs. Each is allocated and touched at a fixed size
// before the timed phases and reused, so the memory they hold counts the
// same in peak_rss_mb however fast the program runs.

// Most requests one closed-loop slice records (about 4x what a slice holds
// here); a slice that fills its log ends early.
constexpr size_t kDirectCap = size_t{1} << 16;
// Most arrivals one predict-only open loop records; a ladder rung above
// kOpenLoopCap / (kRungShare * seconds) per second runs for less than its
// share of the run.
constexpr size_t kOpenLoopCap = size_t{1} << 17;

template <typename T>
void Preallocate(size_t n, std::vector<T>* v) {
  v->assign(n, T{});
  v->clear();  // keeps the touched capacity
}

// ---------------------------------------------------------------------------
// (a) Closed loop, one caller: draw (user, item), sample neighbors on the
// trainer's attribute graphs, Predict, answer.

// One slice's answers, kept until they are checked.
struct DirectRun {
  std::vector<size_t> users, items;
  std::vector<float> predictions;
  uint64_t neighbor_seed = 0;
  size_t workspace_misses = 0;  // after warm-up; a warm session adds none
};

// Runs one closed-loop slice into `run` and appends each request's latency
// to `latency_us`, and the same latency divided by the mean of the host
// factors probed just before and just after its block of kProbeEvery
// requests -- the latency at the reference host speed -- to
// `latency_ref_us`.
void RunDirect(const Params& p, const World& world, InferenceSession* session,
               double duration_s, uint64_t slice,
               agnn::obs::TraceRecorder* spans, DirectRun* run,
               std::vector<double>* latency_us,
               std::vector<double>* latency_ref_us) {
  const agnn::core::AgnnTrainer& trainer = *world.trainer;
  const RequestMix mix{&world};
  const size_t s = session->neighbors_per_node();
  std::vector<size_t> un, in;
  un.reserve(s);
  in.reserve(s);
  // Warm-up on a stream of its own: fill the workspace pool and the LRU.
  Rng warm_rng(StreamSeed(p.seed, kWarmup, slice));
  for (int i = 0; i < 200; ++i) {
    auto [user, item] = mix.Draw(&warm_rng);
    un.clear();
    in.clear();
    agnn::graph::SampleNeighborsInto(trainer.user_graph(), user, s, &warm_rng,
                                     &un);
    agnn::graph::SampleNeighborsInto(trainer.item_graph(), item, s, &warm_rng,
                                     &in);
    session->Predict(user, item, un, in);
  }
  run->users.clear();
  run->items.clear();
  run->predictions.clear();
  run->neighbor_seed = StreamSeed(p.seed, kDirectNeighbors, slice);
  Rng id_rng(StreamSeed(p.seed, kDirectIds, slice));
  Rng neighbor_rng(run->neighbor_seed);
  const size_t misses_before = session->workspace()->misses();
  const auto end = SteadyClock::now() +
                   std::chrono::duration_cast<SteadyClock::duration>(
                       std::chrono::duration<double>(duration_s));
  double factor_before = HostFactor();
  while (SteadyClock::now() < end &&
         run->users.size() + kProbeEvery <= kDirectCap) {
    const size_t block_begin = latency_us->size();
    for (size_t block = 0; block < kProbeEvery; ++block) {
      auto [user, item] = mix.Draw(&id_rng);
      un.clear();
      in.clear();
      const auto t0 = SteadyClock::now();
      {
        agnn::obs::TraceSpan sample_span(spans, "sample", "graph");
        agnn::graph::SampleNeighborsInto(trainer.user_graph(), user, s,
                                         &neighbor_rng, &un);
        agnn::graph::SampleNeighborsInto(trainer.item_graph(), item, s,
                                         &neighbor_rng, &in);
        sample_span.End();
        agnn::obs::TraceSpan predict_span(spans, "predict", "bench");
        run->predictions.push_back(session->Predict(user, item, un, in));
      }
      latency_us->push_back(MicrosSince(t0));
      run->users.push_back(user);
      run->items.push_back(item);
    }
    const double factor_after = HostFactor();
    const double factor = (factor_before + factor_after) / 2.0;
    for (size_t i = block_begin; i < latency_us->size(); ++i) {
      latency_ref_us->push_back((*latency_us)[i] / factor);
    }
    factor_before = factor_after;
  }
  run->workspace_misses = session->workspace()->misses() - misses_before;
}

bool AnswerMatches(float got, float expected, double tolerance) {
  return tolerance == 0.0 ? got == expected
                          : std::fabs(got - expected) <= tolerance;
}

// Re-samples every answered request's neighbors in the order the run drew
// them and compares each answer with the reference session: bitwise at
// f32, within `tolerance` rating points at int8.
uint64_t CheckDirect(const World& world, const DirectRun& run,
                     InferenceSession* reference, double tolerance) {
  const size_t s = reference->neighbors_per_node();
  Rng neighbor_rng(run.neighbor_seed);
  std::vector<size_t> un, in;
  uint64_t wrong = 0;
  for (size_t i = 0; i < run.users.size(); ++i) {
    un.clear();
    in.clear();
    agnn::graph::SampleNeighborsInto(world.trainer->user_graph(), run.users[i],
                                     s, &neighbor_rng, &un);
    agnn::graph::SampleNeighborsInto(world.trainer->item_graph(), run.items[i],
                                     s, &neighbor_rng, &in);
    const float expected =
        reference->Predict(run.users[i], run.items[i], un, in);
    if (!AnswerMatches(run.predictions[i], expected, tolerance)) ++wrong;
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// (b), (c) Open loop through the gateway over a predict-only stream.

struct OpenLoopRun {
  double rate = 0.0;
  std::vector<size_t> users;
  std::vector<size_t> items;
  std::vector<double> due_us;
  uint64_t neighbor_seed = 0;
  // Filled by RunPredictOpenLoop:
  std::vector<float> predictions;  // per arrival; valid where answered
  std::vector<uint8_t> answered;
  std::vector<size_t> arrival_of_id;  // gateway id -> arrival index
  size_t sent = 0;
  bool aborted = false;
  std::vector<double> latency_us;     // measured, due -> answer (inf if shed)
  std::vector<double> service_us;     // per arrival: flush -> answer
  std::vector<double> virtual_us;     // gateway virtual-clock latency
  std::vector<double> queue_wait_us;  // flush_us - arrival_us
  std::vector<double> lateness_us;
  agnn::core::ServingGatewayStats stats;
  // Batch service time by batch size (traced runs only).
  std::map<uint32_t, std::vector<double>> batch_service_us;
};

void PreallocateOpenLoop(OpenLoopRun* run) {
  Preallocate(kOpenLoopCap, &run->users);
  Preallocate(kOpenLoopCap, &run->items);
  Preallocate(kOpenLoopCap, &run->due_us);
  Preallocate(kOpenLoopCap, &run->predictions);
  Preallocate(kOpenLoopCap, &run->answered);
  Preallocate(kOpenLoopCap, &run->arrival_of_id);
  Preallocate(kOpenLoopCap, &run->latency_us);
  Preallocate(kOpenLoopCap, &run->service_us);
  Preallocate(kOpenLoopCap, &run->virtual_us);
  Preallocate(kOpenLoopCap, &run->queue_wait_us);
  Preallocate(kOpenLoopCap, &run->lateness_us);
}

// Refills `run` with a fresh stream of min(count, kOpenLoopCap) arrivals.
void MakePredictStream(const RequestMix& mix, double rate, size_t count,
                       uint64_t id_seed, uint64_t neighbor_seed,
                       OpenLoopRun* run) {
  count = std::min(count, kOpenLoopCap);
  run->rate = rate;
  Rng rng(id_seed);
  const std::vector<double> due = PoissonSchedule(&rng, rate, count, kStartUs);
  run->due_us.assign(due.begin(), due.end());
  run->users.clear();
  run->items.clear();
  for (size_t i = 0; i < count; ++i) {
    auto [user, item] = mix.Draw(&rng);
    run->users.push_back(user);
    run->items.push_back(item);
  }
  run->neighbor_seed = neighbor_seed;
}

void RunPredictOpenLoop(const World& world, InferenceSession* session,
                        OpenLoopRun* run, double max_lag_us,
                        bool record_batches,
                        agnn::obs::MetricsRegistry* metrics,
                        agnn::obs::TraceRecorder* trace) {
  const size_t n = run->due_us.size();
  const size_t s = session->neighbors_per_node();
  run->predictions.assign(n, 0.0f);
  run->answered.assign(n, 0);
  run->service_us.assign(n, 0.0);
  run->arrival_of_id.clear();
  run->virtual_us.clear();
  run->queue_wait_us.clear();
  run->batch_service_us.clear();
  Rng neighbor_rng(run->neighbor_seed);
  PhaseClock clock;
  OpenLoop loop(&run->due_us, clock);
  // Batch service time: from when the server was last handed control (the
  // gateway call, or the previous batch's last answer) to this batch's
  // first answer — the flush's own wall time, free of generator lateness.
  double mark_us = 0.0;
  uint64_t last_batch = ~0ull;
  auto sink = [&](const agnn::core::ServingCompletion& done) {
    const size_t i = run->arrival_of_id[done.id];
    const double now = loop.Complete(i);
    run->predictions[i] = done.prediction;
    run->answered[i] = 1;
    run->service_us[i] = now - done.flush_us;
    run->virtual_us.push_back(done.latency_us);
    run->queue_wait_us.push_back(done.flush_us - done.arrival_us);
    if (record_batches && done.batch != last_batch) {
      run->batch_service_us[done.batch_size].push_back(now - mark_us);
      last_batch = done.batch;
    }
    mark_us = now;
  };
  ServingGateway gateway(session, GatewayOptions(), sink, metrics, trace);
  agnn::core::ServingRequest request;
  request.user_neighbors.reserve(s);
  request.item_neighbors.reserve(s);
  loop.Run(
      [&](size_t i, double due) {
        request.user = run->users[i];
        request.item = run->items[i];
        request.user_neighbors.clear();
        request.item_neighbors.clear();
        agnn::graph::SampleNeighborsInto(world.trainer->user_graph(),
                                         request.user, s, &neighbor_rng,
                                         &request.user_neighbors);
        agnn::graph::SampleNeighborsInto(world.trainer->item_graph(),
                                         request.item, s, &neighbor_rng,
                                         &request.item_neighbors);
        if (record_batches) mark_us = clock();
        // Map the id before Submit: a full batch is served inside the call.
        run->arrival_of_id.push_back(i);
        if (!gateway.Submit(request, due)) run->arrival_of_id.pop_back();
      },
      [&](double now) {
        if (record_batches) mark_us = now;
        gateway.AdvanceTo(now);
      },
      max_lag_us);
  // Let the last budget expire on the wall clock rather than draining early.
  while (gateway.queue_depth() > 0) {
    const double now = clock();
    if (record_batches) mark_us = now;
    gateway.AdvanceTo(now);
  }
  run->sent = loop.sent();
  run->aborted = loop.aborted();
  const std::vector<double> latencies = loop.Latencies();
  run->latency_us.assign(latencies.begin(), latencies.end());
  run->lateness_us.assign(loop.lateness_us().begin(),
                          loop.lateness_us().end());
  run->stats = gateway.stats();
}

uint64_t CheckPredictStream(const World& world, const OpenLoopRun& run,
                            InferenceSession* reference, double tolerance,
                            uint64_t* checked) {
  const size_t s = reference->neighbors_per_node();
  Rng neighbor_rng(run.neighbor_seed);
  std::vector<size_t> un, in;
  uint64_t wrong = 0;
  for (size_t i = 0; i < run.sent; ++i) {
    un.clear();
    in.clear();
    agnn::graph::SampleNeighborsInto(world.trainer->user_graph(), run.users[i],
                                     s, &neighbor_rng, &un);
    agnn::graph::SampleNeighborsInto(world.trainer->item_graph(), run.items[i],
                                     s, &neighbor_rng, &in);
    if (!run.answered[i]) continue;  // shed: counted separately
    ++*checked;
    const float expected =
        reference->Predict(run.users[i], run.items[i], un, in);
    if (!AnswerMatches(run.predictions[i], expected, tolerance)) ++wrong;
  }
  return wrong;
}

// Virtual-clock calibration: the gateway's modelled latency next to the
// measured one at one offered rate.
void PrintCalibration(const char* label, double rate,
                      const std::vector<double>& measured_us,
                      const std::vector<double>& virtual_us,
                      const std::vector<double>& lateness_us, uint64_t shed,
                      const std::string& verdict) {
  const double mp50 = Percentile(measured_us, 50.0);
  const double vp50 = Percentile(virtual_us, 50.0);
  std::printf(
      "calib %-6s rate=%9.0f/s n=%-7zu measured p50=%9.1f p99=%10.1f us | "
      "virtual p50=%9.1f p99=%10.1f us | model_ratio=%.3f | lag_p99=%.1f us "
      "shed=%llu %s\n",
      label, rate, measured_us.size(), mp50, Percentile(measured_us, 99.0),
      vp50, Percentile(virtual_us, 99.0), mp50 > 0.0 ? vp50 / mp50 : 0.0,
      Percentile(lateness_us, 99.0), static_cast<unsigned long long>(shed),
      verdict.c_str());
}

// Appends `from` onto `to`.
void Append(const std::vector<double>& from, std::vector<double>* to) {
  to->insert(to->end(), from.begin(), from.end());
}

// Appends open-loop latencies at the reference host speed: the wait for a
// flush runs on the wall clock (the batching budget, mostly), and the
// flush-to-answer part is CPU work, so only that part is divided by the
// host factor. Shed arrivals stay +infinity.
void AppendAtReference(const std::vector<double>& latency_us,
                       const std::vector<double>& service_us, size_t begin,
                       double factor, std::vector<double>* to) {
  for (size_t i = begin; i < latency_us.size(); ++i) {
    to->push_back(latency_us[i] - service_us[i] * (1.0 - 1.0 / factor));
  }
}

// ---------------------------------------------------------------------------
// (d) Predicts and attribute-only arrivals on one ingest session.

// Everything the mixed slices of one run record, pooled across slices.
struct MixedLog {
  // Op stream for the replay check, in the order the session saw it.
  struct Op {
    bool ingest = false;
    bool user_side = false;
    std::vector<size_t> slots;  // ingest
    size_t node_id = 0;         // ingest: id the session assigned
    size_t predict = 0;         // predict: index into the predict arrays
  };
  std::vector<Op> ops;
  std::vector<size_t> users, items, user_neighbors, item_neighbors;
  std::vector<float> predictions;
  std::vector<uint8_t> answered;
  std::vector<double> latency_us, virtual_us, queue_wait_us, lateness_us;
  std::vector<double> service_us;         // per predict: flush -> answer
  std::vector<double> ingest_latency_us;  // due -> SubmitIngest returned
  std::vector<double> ingest_call_us;     // SubmitIngest wall time
  agnn::core::ServingGatewayStats stats;  // summed over slices
};

MixedLog::Op IngestOp(const World& world, Rng* rng) {
  // An arrival copies the attribute slots of a random catalog node of its
  // side, so it is valid under the side's schema.
  MixedLog::Op op;
  op.ingest = true;
  op.user_side = rng->Bernoulli(0.5);
  const auto& attrs =
      op.user_side ? world.dataset.user_attrs : world.dataset.item_attrs;
  op.slots = attrs[rng->UniformInt(attrs.size())];
  return op;
}

// Warm-up, untimed: the first inserts and predicts of a session pay one-off
// allocation costs that a long-running server pays once. The warm-up
// ingests join the recorded op stream, so the replay sees them too.
void WarmIngestSession(const Params& p, const World& world,
                       InferenceSession* session, MixedLog* log) {
  const RequestMix mix{&world};
  const size_t s = session->neighbors_per_node();
  Rng rng(StreamSeed(p.seed, kWarmup, ~0ull));
  std::vector<size_t> un, in;
  for (size_t w = 0; w < kIngestWarmup; ++w) {
    MixedLog::Op op = IngestOp(world, &rng);
    op.node_id = session->IngestNode(op.user_side, op.slots);
    log->ops.push_back(std::move(op));
    auto [user, item] = mix.Draw(&rng);
    un.clear();
    in.clear();
    session->SampleIngestNeighborsInto(true, user, s, &rng, &un);
    session->SampleIngestNeighborsInto(false, item, s, &rng, &in);
    session->Predict(user, item, un, in);
  }
}

void RunMixedSlice(const Params& p, const World& world,
                   InferenceSession* session, double duration_s,
                   uint64_t slice, MixedLog* log,
                   agnn::obs::MetricsRegistry* metrics,
                   agnn::obs::TraceRecorder* trace) {
  // Two Poisson streams merged in time order.
  Rng schedule_rng(StreamSeed(p.seed, kMixedSchedule, slice));
  const std::vector<double> predicts = PoissonSchedule(
      &schedule_rng, kRefQps, static_cast<size_t>(kRefQps * duration_s),
      kStartUs);
  const std::vector<double> ingests = PoissonSchedule(
      &schedule_rng, kIngestRate,
      static_cast<size_t>(kIngestRate * duration_s), kStartUs);
  std::vector<double> due_us;
  std::vector<uint8_t> is_ingest;
  for (size_t pi = 0, ii = 0; pi < predicts.size() || ii < ingests.size();) {
    const bool ingest = ii < ingests.size() &&
                        (pi >= predicts.size() || ingests[ii] < predicts[pi]);
    due_us.push_back(ingest ? ingests[ii++] : predicts[pi++]);
    is_ingest.push_back(ingest ? 1 : 0);
  }

  const size_t s = session->neighbors_per_node();
  const size_t base_users = world.dataset.num_users;
  const size_t base_items = world.dataset.num_items;
  Rng draw_rng(StreamSeed(p.seed, kMixedDraws, slice));
  const RequestMix mix{&world};
  PhaseClock clock;
  OpenLoop loop(&due_us, clock);
  std::vector<size_t> predict_arrival;  // slice predict -> arrival index
  std::vector<size_t> predict_of_id;    // gateway id -> log predict index
  const size_t first_predict = log->predictions.size();
  auto sink = [&](const agnn::core::ServingCompletion& done) {
    const size_t k = predict_of_id[done.id];
    log->service_us[k] =
        loop.Complete(predict_arrival[k - first_predict]) - done.flush_us;
    log->virtual_us.push_back(done.latency_us);
    log->queue_wait_us.push_back(done.flush_us - done.arrival_us);
    log->predictions[k] = done.prediction;
    log->answered[k] = 1;
  };
  ServingGateway gateway(session, GatewayOptions(), sink, metrics, trace);
  agnn::core::ServingRequest request;
  agnn::core::IngestArrival arrival;
  loop.Run(
      [&](size_t i, double due) {
        if (is_ingest[i]) {
          MixedLog::Op op = IngestOp(world, &draw_rng);
          arrival.user_side = op.user_side;
          arrival.attr_slots = op.slots;
          const double before = clock();
          op.node_id = gateway.SubmitIngest(arrival, due);
          const double after = clock();
          log->ingest_latency_us.push_back(after - due);
          log->ingest_call_us.push_back(after - before);
          log->ops.push_back(std::move(op));
          loop.Complete(i);
          return;
        }
        // Predicts target an already-ingested node on each side with
        // probability kTargetShare, once there is one.
        const size_t extra_users = session->num_users() - base_users;
        const size_t extra_items = session->num_items() - base_items;
        auto [user, item] = mix.Draw(&draw_rng);
        if (extra_users > 0 && draw_rng.Bernoulli(kTargetShare)) {
          user = base_users + draw_rng.UniformInt(extra_users);
        }
        if (extra_items > 0 && draw_rng.Bernoulli(kTargetShare)) {
          item = base_items + draw_rng.UniformInt(extra_items);
        }
        request.user = user;
        request.item = item;
        request.user_neighbors.clear();
        request.item_neighbors.clear();
        session->SampleIngestNeighborsInto(true, user, s, &draw_rng,
                                           &request.user_neighbors);
        session->SampleIngestNeighborsInto(false, item, s, &draw_rng,
                                           &request.item_neighbors);
        MixedLog::Op op;
        op.predict = log->users.size();
        log->users.push_back(user);
        log->items.push_back(item);
        log->user_neighbors.insert(log->user_neighbors.end(),
                                   request.user_neighbors.begin(),
                                   request.user_neighbors.end());
        log->item_neighbors.insert(log->item_neighbors.end(),
                                   request.item_neighbors.begin(),
                                   request.item_neighbors.end());
        log->predictions.push_back(0.0f);
        log->answered.push_back(0);
        log->service_us.push_back(0.0);
        predict_arrival.push_back(i);
        // Map the id before Submit, which may serve the batch.
        predict_of_id.push_back(op.predict);
        log->ops.push_back(std::move(op));
        if (!gateway.Submit(request, due)) predict_of_id.pop_back();
      },
      [&](double now) { gateway.AdvanceTo(now); });
  while (gateway.queue_depth() > 0) gateway.AdvanceTo(clock());
  for (size_t arrival_index : predict_arrival) {
    log->latency_us.push_back(loop.completed(arrival_index)
                                  ? loop.latency_us(arrival_index)
                                  : std::numeric_limits<double>::infinity());
  }
  Append(loop.lateness_us(), &log->lateness_us);
  const agnn::core::ServingGatewayStats& stats = gateway.stats();
  log->stats.submitted += stats.submitted;
  log->stats.served += stats.served;
  log->stats.shed += stats.shed;
  log->stats.batches += stats.batches;
  log->stats.full_flushes += stats.full_flushes;
  log->stats.budget_flushes += stats.budget_flushes;
  log->stats.fence_flushes += stats.fence_flushes;
  log->stats.ingested += stats.ingested;
}

// Replays the recorded op stream one by one on a fresh ingest session:
// every ingest must land on the same id and every answer must match.
uint64_t CheckMixedReplay(const World& world, const MixedLog& log,
                          uint64_t* checked) {
  const agnn::core::AgnnTrainer& trainer = *world.trainer;
  InferenceSession fresh(trainer.model(), &world.split.cold_user,
                         &world.split.cold_item);
  fresh.EnableIngestion(world.dataset, InferenceSession::IngestOptions());
  const size_t s = fresh.neighbors_per_node();
  std::vector<size_t> un(s), in(s);
  uint64_t wrong = 0;
  for (const MixedLog::Op& op : log.ops) {
    if (op.ingest) {
      ++*checked;
      if (fresh.IngestNode(op.user_side, op.slots) != op.node_id) ++wrong;
      continue;
    }
    const size_t k = op.predict;
    if (!log.answered[k]) continue;  // shed: counted separately
    ++*checked;
    std::copy_n(log.user_neighbors.begin() + k * s, s, un.begin());
    std::copy_n(log.item_neighbors.begin() + k * s, s, in.begin());
    if (fresh.Predict(log.users[k], log.items[k], un, in) !=
        log.predictions[k]) {
      ++wrong;
    }
  }
  return wrong;
}

double HistogramMean(const agnn::obs::MetricsRegistry& registry,
                     const std::string& name) {
  auto it = registry.histograms().find(name);
  return it == registry.histograms().end() ? -1.0 : it->second.mean();
}

// Median over the last `window` values (the whole vector when shorter).
double TailMedian(const std::vector<double>& values, size_t window) {
  const size_t tail = std::min(values.size(), window);
  return Percentile(std::vector<double>(values.end() - tail, values.end()),
                    50.0);
}

// ---------------------------------------------------------------------------

int Run(const Params& p) {
  const auto process_start = SteadyClock::now();
  Report report;
  const bool trace = p.trace;
  std::printf("agnnbench workload=%s seed=%llu seconds=%g trace=%d "
              "precision=%s epochs=%zu rounds=%zu\n",
              p.workload->name, static_cast<unsigned long long>(p.seed),
              p.seconds, trace ? 1 : 0,
              agnn::core::ServingPrecisionName(p.workload->precision), kEpochs,
              kRounds);
  std::printf("host nproc=%ld cpu_model=\"%s\" load1_start=%.2f git_sha=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
              LoadAverage1(), p.git_sha.c_str());

  // Registries and recorders of the traced run; all null when untraced, so
  // the library runs its uninstrumented paths.
  agnn::obs::MetricsRegistry train_registry, serve_registry, ingest_registry;
  agnn::obs::TraceRecorder train_trace, serve_trace, ingest_trace;
  auto reg = [&](agnn::obs::MetricsRegistry& r) {
    return trace ? &r : nullptr;
  };
  auto rec = [&](agnn::obs::TraceRecorder& r) { return trace ? &r : nullptr; };

  // --- Setup 1: world, split, trainer (attribute-graph pools), repeated.
  // Every setup step runs with the host sampler armed; setup_s adds the
  // medians of the steps at the reference host speed.
  agnn::core::AgnnConfig config;
  config.seed = p.seed;
  config.epochs = 1;  // Train() is called once per timed epoch
  std::unique_ptr<World> world;
  std::vector<double> generate_s, build_s, world_setup_s, world_ref_s;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    world.reset();  // free the previous world first: one world at a time
    double factor = 1.0;
    world_setup_s.push_back(TimeSampled(
        [&] {
          const auto t0 = SteadyClock::now();
          world = std::make_unique<World>();
          world->dataset = agnn::data::GenerateSynthetic(
              agnn::data::SyntheticConfig::Ml100k(agnn::data::Scale::kPaper),
              p.seed);
          generate_s.push_back(SecondsSince(t0));
          Rng split_rng(p.seed);
          world->split =
              agnn::data::MakeSplit(world->dataset,
                                    agnn::data::Scenario::kItemColdStart, 0.2,
                                    &split_rng);
          const auto t1 = SteadyClock::now();
          world->trainer = std::make_unique<agnn::core::AgnnTrainer>(
              world->dataset, world->split, config);
          build_s.push_back(SecondsSince(t1));
        },
        &factor));
    world_ref_s.push_back(world_setup_s.back() / factor);
  }
  for (size_t i = 0; i < world->dataset.num_items; ++i) {
    (world->split.cold_item[i] ? world->cold_items : world->warm_items)
        .push_back(i);
  }
  agnn::core::AgnnTrainer& trainer = *world->trainer;
  std::printf("world users=%zu items=%zu ratings=%zu cold_items=%zu; first "
              "timed operation at %.3f s\n",
              world->dataset.num_users, world->dataset.num_items,
              world->dataset.ratings.size(), world->cold_items.size(),
              SecondsSince(process_start));

  // --- Training. The traced run trains one extra, untraced epoch first so
  // it can report the tracing overhead on the epoch itself. Each epoch runs
  // with the host sampler armed and is also kept at the reference host
  // speed: probes before and after an epoch track the speed during it too
  // loosely (README.md).
  const size_t untraced_epochs = trace ? 1 : kEpochs;
  const size_t total_epochs = untraced_epochs + (trace ? kEpochs : 0);
  std::vector<double> epoch_untraced_s, epoch_untraced_ref_s,
      epoch_traced_ref_s;
  bool losses_finite = true;
  for (size_t e = 0; e < total_epochs; ++e) {
    if (trace && e == untraced_epochs) {
      trainer.SetMetrics(&train_registry);
      trainer.SetTrace(&train_trace);
    }
    const bool untraced = e < untraced_epochs;
    double factor = 1.0;
    const std::vector<agnn::core::AgnnTrainer::EpochStats>* curves = nullptr;
    const double s = TimeSampled([&] { curves = &trainer.Train(); }, &factor);
    if (untraced) epoch_untraced_s.push_back(s);
    (untraced ? epoch_untraced_ref_s : epoch_traced_ref_s)
        .push_back(s / factor);
    for (const auto& stats : *curves) {
      losses_finite = losses_finite && std::isfinite(stats.prediction_loss) &&
                      std::isfinite(stats.reconstruction_loss);
    }
    std::printf("epoch %zu %s %.3f s (%.3f s at host factor %.3f) "
                "prediction_loss=%.5f\n",
                e + 1, untraced ? "untraced" : "traced", s, s / factor, factor,
                curves->empty() ? 0.0 : curves->back().prediction_loss);
  }
  const double cold_rmse = trainer.EvaluateTest().rmse;
  report.Check("train: losses finite", 1, losses_finite ? 0 : 1);
  report.Check("train: cold_rmse finite", 1, std::isfinite(cold_rmse) ? 0 : 1);

  // --- Setup 2: serving checkpoint at the workload's precision, opened
  // lazy with an LRU smaller than the Zipf working set; repeated.
  const std::string ckpt = p.work_dir + "/agnnbench_serving.ckpt";
  agnn::core::ServingCatalog catalog;
  catalog.num_users = world->dataset.num_users;
  catalog.num_items = world->dataset.num_items;
  catalog.cold_users = &world->split.cold_user;
  catalog.cold_items = &world->split.cold_item;
  catalog.attrs = [&](bool user_side, size_t begin, size_t count) {
    const auto& attrs =
        user_side ? world->dataset.user_attrs : world->dataset.item_attrs;
    return std::vector<std::vector<size_t>>(attrs.begin() + begin,
                                            attrs.begin() + begin + count);
  };
  InferenceSession::ServingOptions serving;
  serving.lazy = true;
  serving.cache_rows = kCacheRows;
  serving.precision = p.workload->precision;
  auto open_session = [&](agnn::obs::MetricsRegistry* metrics,
                          agnn::obs::TraceRecorder* recorder)
      -> std::unique_ptr<InferenceSession> {
    auto opened = InferenceSession::FromServingCheckpoint(ckpt, serving,
                                                          metrics, recorder);
    if (!opened.ok()) {
      report.Error("open: " + opened.status().ToString());
      return nullptr;
    }
    return std::move(*opened);
  };
  std::unique_ptr<InferenceSession> session;
  std::vector<double> export_s, open_s, serving_ref_s;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    session.reset();
    double factor = 1.0;
    bool ok = false;
    const double s = TimeSampled(
        [&] {
          const auto t0 = SteadyClock::now();
          if (agnn::Status st = agnn::core::ExportServingCheckpoint(
                  trainer.model(), catalog, ckpt, p.workload->precision);
              !st.ok()) {
            report.Error("export: " + st.ToString());
            return;
          }
          export_s.push_back(SecondsSince(t0));
          const auto t1 = SteadyClock::now();
          session = open_session(reg(serve_registry), rec(serve_trace));
          open_s.push_back(SecondsSince(t1));
          ok = session != nullptr;
        },
        &factor);
    if (!ok) break;
    serving_ref_s.push_back(s / factor);
  }
  // The traced run times half the closed loop on an untraced twin.
  std::unique_ptr<InferenceSession> untraced_session =
      trace && session != nullptr ? open_session(nullptr, nullptr) : nullptr;
  if (session == nullptr || (trace && untraced_session == nullptr)) {
    std::printf("%s\n", report.Json().c_str());
    return 1;
  }

  // --- Setup 3: model-backed ingest session (dynamic kNN graphs), repeated.
  std::unique_ptr<InferenceSession> ingest_session;
  std::vector<double> ingest_setup_s, dynamic_build_s, ingest_ref_s;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    ingest_session.reset();
    double factor = 1.0;
    ingest_setup_s.push_back(TimeSampled(
        [&] {
          ingest_session = std::make_unique<InferenceSession>(
              trainer.model(), &world->split.cold_user,
              &world->split.cold_item, reg(ingest_registry),
              rec(ingest_trace));
          const auto t1 = SteadyClock::now();
          ingest_session->EnableIngestion(world->dataset,
                                           InferenceSession::IngestOptions());
          dynamic_build_s.push_back(SecondsSince(t1));
        },
        &factor));
    ingest_ref_s.push_back(ingest_setup_s.back() / factor);
  }
  const double setup_s = Median(world_setup_s) + Median(export_s) +
                         Median(open_s) + Median(ingest_setup_s);
  const double setup_ref_s =
      Median(world_ref_s) + Median(serving_ref_s) + Median(ingest_ref_s);

  // --- Serving phases, interleaved over rounds so that every metric
  // samples the whole run: (a) closed loop, (b) open loop at the reference
  // rate, (d) predicts mixed with ingests, then a share of the (c) ladder
  // search for max_qps. The answers of (a), (b) and (c) are checked against
  // a model-backed session after each slice, between timed phases, so no
  // slice's log outlives it; (d) is replayed after the rounds.
  const double tolerance =
      p.workload->precision == ServingPrecision::kInt8 ? kInt8Tolerance : 0.0;
  InferenceSession reference(trainer.model(), &world->split.cold_user,
                             &world->split.cold_item);
  const RequestMix mix{world.get()};
  const std::vector<double> ladder =
      GeometricLadder(kLadderLo, kLadderHi, kLadderRatio);
  LadderSearch search(ladder.size());
  const size_t ladder_probes =
      1 + static_cast<size_t>(std::ceil(std::log2(ladder.size())));
  const size_t probes_per_round = (ladder_probes + kRounds - 1) / kRounds;
  // A rung's arrivals last kRungShare * seconds, but never fewer than two
  // p99 windows' worth.
  const double rung_s = kRungShare * p.seconds;
  auto rung_count = [&](double rate) {
    return std::max<size_t>(2 * kP99Window,
                            static_cast<size_t>(rate * rung_s));
  };

  DirectRun direct;
  Preallocate(kDirectCap, &direct.users);
  Preallocate(kDirectCap, &direct.items);
  Preallocate(kDirectCap, &direct.predictions);
  // Closed-loop latencies pooled over rounds, as measured and at the
  // reference host speed (in the traced run, the untraced twin's apart).
  std::vector<double> direct_us, direct_ref_us, untraced_us,
      direct_untraced_ref_us;
  Preallocate(kRounds * kDirectCap, &direct_us);
  Preallocate(kRounds * kDirectCap, &direct_ref_us);
  if (trace) {
    Preallocate(kRounds * kDirectCap, &untraced_us);
    Preallocate(kRounds * kDirectCap, &direct_untraced_ref_us);
  }
  OpenLoopRun open_run;  // reused by every predict-only open loop
  PreallocateOpenLoop(&open_run);
  // Open-loop latencies as measured and at the reference host speed.
  std::vector<double> ref_latency_us, ref_latency_ref_us, ref_virtual_us,
      ref_wait_us, ref_lateness_us, mixed_latency_ref_us;
  agnn::core::ServingGatewayStats ref_stats;
  std::map<uint32_t, std::vector<double>> batch_service_us;
  MixedLog mixed;
  std::vector<double> ingest_ref_us;  // time to serve at reference speed
  SpanTotal sample_span, gather_span, gnn_span, head_span;
  size_t workspace_misses = 0;
  uint64_t ladder_attempts = 0;
  uint64_t direct_checked = 0, direct_wrong = 0;
  uint64_t ref_checked = 0, ref_wrong = 0;
  uint64_t rung_checked = 0, rung_wrong = 0;

  // One rung probe. Rungs are rates at the reference host speed: an
  // attempt offers the rung's rate divided by the host factor probed just
  // before it, so a host running 1.5x slower is offered 1.5x fewer requests
  // per second. The attempt runs with the host sampler armed and is judged
  // per window of kP99Window arrivals, so a millisecond host stall hitting
  // one window does not decide the rung, and a rung fails only on
  // kRungFailures trusted failures, each on fresh streams: a stall is
  // transient and overload is not. An attempt whose outcome the host's
  // drift makes untrusted (kRungHostDrift) is retried, up to kRungAttempts
  // in all; a rung still undecided then passes if any attempt passed.
  auto probe_rung = [&](size_t k) {
    int failures = 0;
    bool any_pass = false;
    for (int attempt = 0; attempt < kRungAttempts; ++attempt) {
      const uint64_t slice = kRungAttempts * k + attempt;
      const double factor = HostFactor();
      const double rate = ladder[k] / factor;
      MakePredictStream(mix, rate, rung_count(rate),
                        StreamSeed(p.seed, kLadderIds, slice),
                        StreamSeed(p.seed, kLadderNeighbors, slice),
                        &open_run);
      double factor_during = 1.0;
      TimeSampled(
          [&] {
            RunPredictOpenLoop(*world, session.get(), &open_run,
                               /*max_lag_us=*/20.0 * kP99LimitUs, trace,
                               nullptr, nullptr);
          },
          &factor_during);
      ++ladder_attempts;
      const RungOutcome outcome{
          WindowedPercentile(open_run.latency_us, kP99Window, 99.0),
          open_run.stats.shed, TailMedian(open_run.lateness_us, kP99Window),
          open_run.aborted};
      const bool pass = RungPasses(outcome, kP99LimitUs);
      const bool trusted = pass ? factor_during * kRungHostDrift >= factor
                                : factor_during <= factor * kRungHostDrift;
      any_pass = any_pass || pass;
      char verdict[192];
      std::snprintf(verdict, sizeof(verdict),
                    "| rung %.0f/s at host factor %.2f (during %.2f) | window "
                    "p99=%.1f us end lag=%.1f us%s -> %s",
                    ladder[k], factor, factor_during, outcome.p99_us,
                    outcome.backlog_lag_us,
                    open_run.aborted ? " aborted" : "",
                    !trusted ? "UNSURE" : (pass ? "PASS" : "FAIL"));
      PrintCalibration("ladder", open_run.rate, open_run.latency_us,
                       open_run.virtual_us, open_run.lateness_us,
                       open_run.stats.shed, verdict);
      for (const auto& [size, v] : open_run.batch_service_us) {
        Append(v, &batch_service_us[size]);
      }
      rung_wrong += CheckPredictStream(*world, open_run, &reference, tolerance,
                                       &rung_checked);
      if (trusted && pass) return true;
      if (trusted && ++failures == kRungFailures) return false;
    }
    return any_pass;
  };

  const double direct_slice_s = kDirectShare * p.seconds / kRounds;
  const double ref_slice_s = kRefShare * p.seconds / kRounds;
  const double mixed_slice_s = p.workload->mixed_share * p.seconds / kRounds;
  WarmIngestSession(p, *world, ingest_session.get(), &mixed);
  for (size_t round = 0; round < kRounds; ++round) {
    // (a) In the traced run, odd rounds use the traced session and even
    // rounds its untraced twin, so both see the same spread of the run.
    const bool traced_slice = trace && round % 2 == 1;
    const bool untraced_twin = trace && !traced_slice;
    if (traced_slice) serve_trace.Clear();
    std::vector<double>* round_us = untraced_twin ? &untraced_us : &direct_us;
    const size_t round_begin = round_us->size();
    RunDirect(p, *world,
              untraced_twin ? untraced_session.get() : session.get(),
              direct_slice_s, round, traced_slice ? &serve_trace : nullptr,
              &direct, round_us,
              untraced_twin ? &direct_untraced_ref_us : &direct_ref_us);
    const double round_direct_p50 = Percentile(
        std::vector<double>(round_us->begin() + round_begin, round_us->end()),
        50.0);
    if (traced_slice) {
      sample_span.Add(serve_trace, "graph", "sample");
      gather_span.Add(serve_trace, "session", "gather");
      gnn_span.Add(serve_trace, "session", "gnn");
      head_span.Add(serve_trace, "session", "head");
      workspace_misses += direct.workspace_misses;
    }
    direct_checked += direct.users.size();
    direct_wrong += CheckDirect(*world, direct, &reference, tolerance);

    // (b), with the host sampler armed: an explicit probe would hold up
    // the arrivals due during it.
    MakePredictStream(mix, kRefQps,
                      static_cast<size_t>(kRefQps * ref_slice_s),
                      StreamSeed(p.seed, kRefIds, round),
                      StreamSeed(p.seed, kRefNeighbors, round), &open_run);
    double ref_factor = 1.0;
    TimeSampled(
        [&] {
          RunPredictOpenLoop(*world, session.get(), &open_run,
                             /*max_lag_us=*/0.0, trace, reg(serve_registry),
                             rec(serve_trace));
        },
        &ref_factor);
    Append(open_run.latency_us, &ref_latency_us);
    AppendAtReference(open_run.latency_us, open_run.service_us, 0, ref_factor,
                      &ref_latency_ref_us);
    Append(open_run.virtual_us, &ref_virtual_us);
    Append(open_run.queue_wait_us, &ref_wait_us);
    Append(open_run.lateness_us, &ref_lateness_us);
    ref_stats.served += open_run.stats.served;
    ref_stats.shed += open_run.stats.shed;
    ref_stats.batches += open_run.stats.batches;
    ref_stats.full_flushes += open_run.stats.full_flushes;
    ref_stats.budget_flushes += open_run.stats.budget_flushes;
    for (const auto& [size, v] : open_run.batch_service_us) {
      Append(v, &batch_service_us[size]);
    }
    const double round_ref_p50 = Percentile(open_run.latency_us, 50.0);
    ref_wrong += CheckPredictStream(*world, open_run, &reference, tolerance,
                                    &ref_checked);

    // (d), likewise sampled; the time to serve is an ingest's CPU work and
    // the generator's lateness, so all of it is scaled.
    const size_t ingests_before = mixed.ingest_latency_us.size();
    const size_t predicts_before = mixed.latency_us.size();
    double mixed_factor = 1.0;
    TimeSampled(
        [&] {
          RunMixedSlice(p, *world, ingest_session.get(), mixed_slice_s, round,
                        &mixed, reg(ingest_registry), rec(ingest_trace));
        },
        &mixed_factor);
    AppendAtReference(mixed.latency_us, mixed.service_us, predicts_before,
                      mixed_factor, &mixed_latency_ref_us);
    for (size_t i = ingests_before; i < mixed.ingest_latency_us.size(); ++i) {
      ingest_ref_us.push_back(mixed.ingest_latency_us[i] / mixed_factor);
    }

    std::printf("round %zu: direct p50=%.2f us | ref p50=%.1f us | "
                "mixed p50=%.1f us | ingest p50=%.3f p95=%.3f ms n=%zu | "
                "host factor ref %.3f mixed %.3f\n",
                round, round_direct_p50, round_ref_p50,
                Percentile(mixed.latency_us, 50.0),
                Percentile(mixed.ingest_latency_us, 50.0) / 1e3,
                Percentile(mixed.ingest_latency_us, 95.0) / 1e3,
                mixed.ingest_latency_us.size(), ref_factor, mixed_factor);

    // (c)
    for (size_t i = 0; i < probes_per_round && !search.done(); ++i) {
      search.Report(probe_rung(search.next()));
    }
  }
  while (!search.done()) search.Report(probe_rung(search.next()));
  // Peak memory of the timed phases, read before the replay check below
  // builds a second ingest session.
  const double peak_rss_mb = PeakRssMiB();
  std::printf("host factor: median %.3f over %zu explicit probes, %zu "
              "sampler rounds; setup %.3f s and epochs %.3f s as measured, "
              "%.3f s and %.3f s at reference speed\n",
              Median(ProbedFactors()), ProbedFactors().size(),
              static_cast<size_t>(sample_count), setup_s,
              Mean(epoch_untraced_s), setup_ref_s,
              Mean(epoch_untraced_ref_s));
  const long best = search.best();
  const double max_qps = best < 0 ? 0.0 : ladder[static_cast<size_t>(best)];
  if (best < 0) report.Error("even the lowest ladder rate misses the limit");

  const double lru_hits =
      static_cast<double>(session->lazy_user_store()->hits() +
                          session->lazy_item_store()->hits());
  const double lru_total =
      lru_hits + static_cast<double>(session->lazy_user_store()->misses() +
                                     session->lazy_item_store()->misses());
  const double rows_recomputed = static_cast<double>(
      ingest_session->ingest_graph(true)->rows_refreshed() +
      ingest_session->ingest_graph(false)->rows_refreshed());
  ingest_session.reset();

  std::printf("phase a: closed loop over %zu rounds\n", kRounds);
  PrintLatency("direct", direct_us);
  PrintLatency("direct at ref speed", direct_ref_us);
  if (trace) PrintLatency("direct untraced, ref", direct_untraced_ref_us);
  std::printf("phase b: open loop at %.0f/s\n", kRefQps);
  PrintLatency("request", ref_latency_us);
  PrintLatency("request at ref speed", ref_latency_ref_us);
  std::printf("  %-22s window p99 (median of %zu-arrival windows) = %.2f us\n",
              "request at ref speed", kP99Window,
              WindowedPercentile(ref_latency_ref_us, kP99Window, 99.0));
  PrintCalibration("ref", kRefQps, ref_latency_us, ref_virtual_us,
                   ref_lateness_us, ref_stats.shed, "");
  std::printf("phase c: max_qps %.0f/s after %llu rung attempts\n", max_qps,
              static_cast<unsigned long long>(ladder_attempts));
  std::printf("phase d: mixed open loop, %zu predicts at %.0f/s + %zu "
              "ingests at %.0f/s (+%zu warm-up)\n",
              mixed.latency_us.size(), kRefQps,
              mixed.ingest_latency_us.size(), kIngestRate, kIngestWarmup);
  PrintLatency("mixed request", mixed.latency_us);
  PrintLatency("mixed at ref speed", mixed_latency_ref_us);
  std::printf("  %-22s window p99 (median of %zu-arrival windows) = %.2f us\n",
              "mixed at ref speed", kP99Window,
              WindowedPercentile(mixed_latency_ref_us, kP99Window, 99.0));
  PrintLatency("ingest (time to serve)", mixed.ingest_latency_us);
  PrintLatency("ingest at ref speed", ingest_ref_us);
  PrintLatency("ingest call", mixed.ingest_call_us);
  PrintCalibration("mixed", kRefQps, mixed.latency_us, mixed.virtual_us,
                   mixed.lateness_us, mixed.stats.shed, "");

  // --- Output checks.
  report.Check("a: closed loop", direct_checked, direct_wrong);
  report.Check("b: reference-rate open loop", ref_checked, ref_wrong);
  report.Check("c: ladder rungs", rung_checked, rung_wrong);
  {
    uint64_t checked = 0;
    const uint64_t wrong = CheckMixedReplay(*world, mixed, &checked);
    report.Check("d: mixed stream one-by-one replay", checked, wrong);
  }
  // request_* and the gateway.* layer metrics come from the mixed stream on
  // the ingest workload and from the predict-only stream elsewhere.
  const bool mixed_primary = std::string(p.workload->name) == "ingest";
  report.Shed(mixed_primary ? mixed.stats.shed : ref_stats.shed);
  std::remove(ckpt.c_str());
  report.RequireSamples("request", ref_latency_us.size(), 99.0);
  report.RequireSamples("mixed request", mixed.latency_us.size(), 99.0);
  report.RequireSamples("direct", direct_us.size(), 99.0);
  report.RequireSamples("ingest", mixed.ingest_latency_us.size(), 95.0);

  std::printf("host load1_end=%.2f\n", LoadAverage1());
  std::printf("failed_frac %.6f (%llu failed of %llu attempted)\n",
              report.failed_frac(),
              static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));

  // --- Metrics.
  const std::vector<double>& primary_latency =
      mixed_primary ? mixed.latency_us : ref_latency_us;
  const std::vector<double>& primary_latency_ref =
      mixed_primary ? mixed_latency_ref_us : ref_latency_ref_us;
  if (!trace) {
    // The CPU-bound timings are reported at the reference host speed. The
    // closed-loop p99 is a per-layer metric: on this host it spreads across
    // runs of the same code by more than any bound the benchmark may set
    // (README.md).
    report.Set("setup_s", setup_ref_s, "s");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
    report.Set("epoch_s", Mean(epoch_untraced_ref_s), "s");
    report.Set("cold_rmse", cold_rmse, "rating");
    report.Set("direct_p50_us", Percentile(direct_ref_us, 50.0), "us");
    report.Set("request_p50_us", Percentile(primary_latency_ref, 50.0), "us");
    report.Set("request_p99_us",
               WindowedPercentile(primary_latency_ref, kP99Window, 99.0), "us");
    report.Set("max_qps", max_qps, "1/s");
    report.Set("ingest_p50_ms", Percentile(ingest_ref_us, 50.0) / 1e3, "ms");
  } else {
    const std::vector<double>& primary_virtual =
        mixed_primary ? mixed.virtual_us : ref_virtual_us;
    const std::vector<double>& primary_wait =
        mixed_primary ? mixed.queue_wait_us : ref_wait_us;
    const std::vector<double>& primary_lateness =
        mixed_primary ? mixed.lateness_us : ref_lateness_us;
    const agnn::core::ServingGatewayStats& primary_stats =
        mixed_primary ? mixed.stats : ref_stats;
    auto batch_median = [&](uint32_t size) {
      auto it = batch_service_us.find(size);
      return it == batch_service_us.end() ? -1.0 : Median(it->second);
    };
    const double measured_p50 = Percentile(primary_latency, 50.0);
    report.Set("session.direct_p99_us", Percentile(direct_ref_us, 99.0), "us");
    report.Set("data.generate_s", Median(generate_s), "s");
    report.Set("graph.build_s", Median(build_s), "s");
    report.Set("graph.sample_us", sample_span.mean(), "us");
    report.Set("graph.dynamic_build_s", Median(dynamic_build_s), "s");
    report.Set("graph.rows_recomputed", rows_recomputed, "count");
    report.Set("trainer.sampling_ms",
               HistogramMean(train_registry, "trainer/sampling_ms"), "ms");
    report.Set("trainer.forward_ms",
               HistogramMean(train_registry, "trainer/forward_ms"), "ms");
    report.Set("trainer.backward_ms",
               HistogramMean(train_registry, "trainer/backward_ms"), "ms");
    report.Set("trainer.optimizer_ms",
               HistogramMean(train_registry, "trainer/optimizer_ms"), "ms");
    report.Set("io.export_s", Median(export_s), "s");
    report.Set("io.open_s", Median(open_s), "s");
    report.Set("io.lru_hit_rate", lru_total > 0 ? lru_hits / lru_total : -1.0,
               "ratio");
    report.Set("session.gather_us", gather_span.mean(), "us");
    report.Set("session.gnn_us", gnn_span.mean(), "us");
    report.Set("session.head_us", head_span.mean(), "us");
    report.Set("session.batch_us_b1", batch_median(1), "us");
    report.Set("session.batch_us_bmax",
               batch_median(static_cast<uint32_t>(kMaxBatch)), "us");
    report.Set("session.ingest_us", Median(mixed.ingest_call_us), "us");
    // The time-to-serve tail: too unsteady across seeds on a shared host to
    // carry a regression bound, so it is reported here rather than end to
    // end (README.md).
    report.Set("gateway.ingest_p95_ms",
               Percentile(ingest_ref_us, 95.0) / 1e3, "ms");
    // Read by registry name, so a counter that goes away shows up as a
    // missing metric rather than a build break.
    const auto& counters = ingest_registry.counters();
    const auto refreshed = counters.find("ingest/rows_refreshed");
    const double ingested = static_cast<double>(mixed.ops.size() -
                                                mixed.users.size());
    if (refreshed != counters.end() && ingested > 0.0) {
      report.Set("session.refresh_per_ingest",
                 static_cast<double>(refreshed->second.value()) / ingested,
                 "ratio");
    } else {
      std::printf("missing: registry counter ingest/rows_refreshed\n");
    }
    report.Set("tensor.workspace_misses",
               static_cast<double>(workspace_misses), "count");
    report.Set("gateway.queue_wait_p50_us", Percentile(primary_wait, 50.0),
               "us");
    report.Set("gateway.queue_wait_p99_us", Percentile(primary_wait, 99.0),
               "us");
    report.Set("gateway.batch_mean",
               primary_stats.batches == 0
                   ? 0.0
                   : static_cast<double>(primary_stats.served) /
                         static_cast<double>(primary_stats.batches),
               "pairs");
    report.Set("gateway.flush_full",
               static_cast<double>(primary_stats.full_flushes), "count");
    report.Set("gateway.flush_budget",
               static_cast<double>(primary_stats.budget_flushes), "count");
    report.Set("gateway.flush_fence",
               static_cast<double>(mixed.stats.fence_flushes), "count");
    report.Set("gateway.shed", static_cast<double>(primary_stats.shed),
               "count");
    report.Set("gateway.model_ratio",
               measured_p50 > 0.0
                   ? Percentile(primary_virtual, 50.0) / measured_p50
                   : -1.0,
               "ratio");
    report.Set("bench.lag_p99_us", Percentile(primary_lateness, 99.0), "us");
    report.Set("bench.trace_overhead_direct_us",
               Percentile(direct_ref_us, 50.0) -
                   Percentile(direct_untraced_ref_us, 50.0),
               "us");
    report.Set("bench.trace_overhead_epoch_s",
               Mean(epoch_traced_ref_s) - Mean(epoch_untraced_ref_s), "s");
  }
  report.PrintMetrics();
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace agnnbench

int main(int argc, char** argv) {
  agnnbench::Params params;
  std::string error;
  if (!agnnbench::ParseParams(argc, argv, &params, &error)) {
    std::fprintf(stderr, "agnnbench: %s\n", error.c_str());
    return 2;
  }
  return agnnbench::Run(params);
}
