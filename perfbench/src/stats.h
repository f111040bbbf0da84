#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds from `a` to `b` (negative when b precedes a).
double Ms(Clock::time_point a, Clock::time_point b);

/// Median of `values` (mean of the two middle values for an even count).
/// Requires a non-empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `pct` percent
/// of the samples at or below it. Requires a non-empty input, 0 < pct <= 100.
double Percentile(std::vector<double> values, double pct);

/// Number of samples that lie strictly beyond the nearest-rank `pct`
/// percentile's rank in a sample of `n`.
size_t SamplesBeyond(size_t n, double pct);

/// The reporting rule for a tail percentile: it is reported only when at
/// least ten samples lie beyond it, otherwise it would be no tail.
bool TailSupported(size_t n, double pct);

/// Arithmetic mean; requires a non-empty input.
double Mean(const std::vector<double>& values);

/// Send offsets of `count` open-loop arrivals at mean `rate_per_s`: a Poisson
/// process (exponential gaps) drawn from `seed`. Independent users arrive so;
/// a strictly periodic schedule would also phase-lock with the server's own
/// periodic timers and make each run's latency depend on that phase.
std::vector<Clock::duration> PoissonOffsets(double rate_per_s, size_t count, uint64_t seed);

/// An open-loop send schedule: request i is due at start + offsets[i]. The
/// phases time latency from Due(i), so a stalled sender charges its stall to
/// every request it delayed; how late each send actually went out is kept as
/// the generator's own lateness.
class Pacer {
 public:
  Pacer(Clock::time_point start, std::vector<Clock::duration> offsets);

  Clock::time_point Due(size_t i) const { return start_ + offsets_[i]; }
  /// Records that request i went out at `sent`; returns its lateness in ms
  /// (0 when it went out on time or early).
  double RecordSend(size_t i, Clock::time_point sent);
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

 private:
  Clock::time_point start_;
  std::vector<Clock::duration> offsets_;
  std::vector<double> lateness_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
