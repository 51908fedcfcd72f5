#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace agnnbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * n);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

namespace {

// Each full window's percentile p (or the whole sample's, when shorter than
// one window).
std::vector<double> WindowPercentiles(const std::vector<double>& samples,
                                      size_t window, double p) {
  if (window == 0 || samples.size() < window) {
    return {Percentile(samples, p)};
  }
  std::vector<double> per_window;
  for (size_t begin = 0; begin + window <= samples.size(); begin += window) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin,
                            samples.begin() + begin + window),
        p));
  }
  return per_window;
}

}  // namespace

double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double p) {
  if (samples.empty()) return 0.0;
  return Percentile(WindowPercentiles(samples, window, p), 50.0);
}

bool SupportsPercentile(size_t n, double p, size_t min_beyond) {
  // Compare in integer hundredths of a percent so 99.9 and 99.99 are exact.
  const auto beyond_bp = static_cast<uint64_t>(std::llround((100.0 - p) * 100));
  return static_cast<uint64_t>(n) * beyond_bp >=
         static_cast<uint64_t>(min_beyond) * 10000;
}

double HighestSupportedPercentile(size_t n, size_t min_beyond) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9, 99.99}) {
    if (SupportsPercentile(n, p, min_beyond)) best = p;
  }
  return best;
}

std::vector<double> GeometricLadder(double lo, double hi, double ratio) {
  std::vector<double> rungs;
  if (!(lo > 0.0) || !(hi >= lo) || !(ratio > 1.0)) return rungs;
  // Multiply from lo rather than accumulating so rung k is lo * ratio^k
  // up to rounding, independent of how many rungs precede it.
  for (size_t k = 0;; ++k) {
    const double rate = lo * std::pow(ratio, static_cast<double>(k));
    if (rate > hi * (1.0 + 1e-12)) break;
    rungs.push_back(rate);
  }
  return rungs;
}

bool LadderSearch::done() const {
  if (n_ == 0 || lowest_failed_) return true;
  return good_ >= 0 && bad_ - static_cast<size_t>(good_) <= 1;
}

size_t LadderSearch::next() const {
  if (good_ < 0) return 0;
  const size_t good = static_cast<size_t>(good_);
  return good + (bad_ - good) / 2;
}

void LadderSearch::Report(bool passed) {
  const size_t probed = next();
  if (good_ < 0 && !passed) {
    lowest_failed_ = true;
  } else if (passed) {
    good_ = static_cast<long>(probed);
  } else {
    bad_ = probed;
  }
}

bool RungPasses(const RungOutcome& outcome, double limit_us) {
  return !outcome.aborted && outcome.shed == 0 &&
         outcome.p99_us <= limit_us && outcome.backlog_lag_us <= limit_us;
}

OpenLoop::OpenLoop(const std::vector<double>* due_us, Clock clock)
    : due_(due_us),
      clock_(std::move(clock)),
      complete_us_(due_us->size(), -1.0) {
  lateness_us_.reserve(due_us->size());
}

void OpenLoop::Run(const std::function<void(size_t, double)>& submit,
                   const std::function<void(double)>& idle,
                   double max_lag_us) {
  const std::vector<double>& due = *due_;
  for (size_t i = 0; i < due.size(); ++i) {
    double now = clock_();
    while (now < due[i]) {
      idle(now);
      now = clock_();
    }
    const double lag = now - due[i];
    if (max_lag_us > 0.0 && lag > max_lag_us) {
      aborted_ = true;
      return;
    }
    lateness_us_.push_back(lag);
    sent_ = i + 1;
    submit(i, due[i]);
  }
}

double OpenLoop::Complete(size_t i) { return complete_us_[i] = clock_(); }

std::vector<double> OpenLoop::Latencies() const {
  std::vector<double> out;
  out.reserve(sent_);
  for (size_t i = 0; i < sent_; ++i) {
    out.push_back(completed(i) ? latency_us(i)
                               : std::numeric_limits<double>::infinity());
  }
  return out;
}

double FailedFrac(uint64_t shed, uint64_t wrong, uint64_t attempted) {
  if (attempted == 0 || shed + wrong > attempted) return -1.0;
  return static_cast<double>(shed + wrong) / static_cast<double>(attempted);
}

}  // namespace agnnbench
