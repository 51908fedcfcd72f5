#ifndef AGNNBENCH_STATS_H_
#define AGNNBENCH_STATS_H_

// Measurement arithmetic of the AGNN wall-clock benchmark, kept apart from
// main.cc so it can be tested without a model: percentiles and the
// sample-count rule, the max_qps ladder search, open-loop due-time and
// lateness accounting, and the failure fraction.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace agnnbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
/// Sorts a copy, so callers may keep their sample order.
double Percentile(std::vector<double> samples, double p);

/// Median, over consecutive windows of `window` samples taken in arrival
/// order, of each window's percentile p. A trailing partial window is
/// dropped unless it is the only one. 0 when `samples` is empty.
double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double p);

/// The highest percentile among {50, 90, 95, 99, 99.9, 99.99} that has at
/// least `min_beyond` of `n` samples above it (n * (100 - p) / 100 >=
/// min_beyond), or 0 when even the median is not supported. A p99 needs
/// 1000 samples under the default rule.
double HighestSupportedPercentile(size_t n, size_t min_beyond = 10);

/// True when `n` samples support percentile `p` under the same rule.
bool SupportsPercentile(size_t n, double p, size_t min_beyond = 10);

/// Geometric rate ladder lo, lo*ratio, ... up to and including the last
/// rung <= hi. Requires 0 < lo <= hi and ratio > 1.
std::vector<double> GeometricLadder(double lo, double hi, double ratio);

/// Binary search for the highest passing rung of an n-rung ladder, driven
/// one probe at a time so a caller can interleave probes with other work:
///   while (!search.done()) search.Report(probe(search.next()));
/// Assumes passing is monotone (true up to some rung, false beyond). The
/// lowest rung is probed first, then the search bisects, so it makes at
/// most ceil(log2(n)) + 1 probes.
class LadderSearch {
 public:
  explicit LadderSearch(size_t n) : n_(n), bad_(n) {}

  bool done() const;
  /// The rung to probe next; only valid while !done().
  size_t next() const;
  void Report(bool passed);
  /// Highest passing rung, or -1 when the lowest rung failed (or n == 0).
  long best() const { return good_; }

 private:
  size_t n_;
  long good_ = -1;  // highest rung known to pass
  size_t bad_;      // lowest rung known (or assumed, at n) to fail
  bool lowest_failed_ = false;
};

/// One ladder rung's outcome: it passes when its p99 (shed requests count
/// as missing the limit) meets the limit, nothing was shed, the run was not
/// aborted, and the generator's lateness at the end of the rung is within
/// the limit (the backlog did not grow).
struct RungOutcome {
  double p99_us = 0.0;
  uint64_t shed = 0;
  double backlog_lag_us = 0.0;
  bool aborted = false;
};
bool RungPasses(const RungOutcome& outcome, double limit_us);

/// Open-loop arrival generator. Arrival i is due at due_us[i] (non-decreasing)
/// whatever happened to earlier arrivals; Run() busy-waits on `clock` (µs)
/// and, while waiting, hands the current time to `idle` so the server can
/// flush expired batches. Each arrival is passed to `submit(i, due_us)`
/// once the clock reaches its due time; its lateness is the clock reading
/// at that moment minus the due time — how late the generator ran.
///
/// Run() stops early (aborted() is true) once lateness exceeds `max_lag_us`
/// (> 0), which bounds the time spent on an overloaded ladder rung; the
/// arrivals it never submitted are not counted in sent().
class OpenLoop {
 public:
  using Clock = std::function<double()>;

  OpenLoop(const std::vector<double>* due_us, Clock clock);

  void Run(const std::function<void(size_t, double)>& submit,
           const std::function<void(double)>& idle, double max_lag_us = 0.0);

  /// Records arrival i as answered now and returns the clock reading; its
  /// latency runs from its due time.
  double Complete(size_t i);
  /// Latency of an answered arrival, from due time to Complete().
  double latency_us(size_t i) const { return complete_us_[i] - (*due_)[i]; }
  bool completed(size_t i) const { return complete_us_[i] >= 0.0; }

  size_t sent() const { return sent_; }
  bool aborted() const { return aborted_; }
  const std::vector<double>& lateness_us() const { return lateness_us_; }
  /// Latencies of every answered arrival, in arrival order; arrivals sent
  /// but never answered are returned as +infinity so they miss any limit.
  std::vector<double> Latencies() const;

 private:
  const std::vector<double>* due_;
  Clock clock_;
  std::vector<double> complete_us_;
  std::vector<double> lateness_us_;
  size_t sent_ = 0;
  bool aborted_ = false;
};

/// (shed + wrong) / attempted. Requires attempted > 0 and shed + wrong <=
/// attempted; returns -1 otherwise so a malformed count cannot read as 0.
double FailedFrac(uint64_t shed, uint64_t wrong, uint64_t attempted);

}  // namespace agnnbench

#endif  // AGNNBENCH_STATS_H_
