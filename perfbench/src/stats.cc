#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace perfbench {

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

static size_t NearestRank(size_t n, double pct) {
  // Integer arithmetic on hundredths avoids 0.99 * 1000 = 989.999... giving a
  // rank one too high.
  long long hundredths = std::llround(pct * 100.0);
  unsigned long long numer = static_cast<unsigned long long>(hundredths) * n;
  size_t rank = static_cast<size_t>((numer + 9999) / 10000);
  return std::max<size_t>(rank, 1);
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(pct > 0.0 && pct <= 100.0)) throw std::invalid_argument("bad percentile");
  size_t index = NearestRank(values.size(), pct) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  return n - NearestRank(n, pct);
}

bool TailSupported(size_t n, double pct) { return SamplesBeyond(n, pct) >= 10; }

double Mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<Clock::duration> PoissonOffsets(double rate_per_s, size_t count, uint64_t seed) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("arrival rate must be > 0");
  std::mt19937_64 rng(seed);
  std::vector<Clock::duration> offsets;
  offsets.reserve(count);
  double t_ns = 0.0;
  for (size_t i = 0; i < count; ++i) {
    offsets.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::nanoseconds(std::llround(t_ns))));
    // Inverse-CDF exponential gap from a 53-bit uniform in (0, 1].
    double u = (static_cast<double>(rng() >> 11) + 1.0) / 9007199254740992.0;
    t_ns += -std::log(u) * 1e9 / rate_per_s;
  }
  return offsets;
}

Pacer::Pacer(Clock::time_point start, std::vector<Clock::duration> offsets)
    : start_(start), offsets_(std::move(offsets)) {
  lateness_ms_.reserve(offsets_.size());
}

double Pacer::RecordSend(size_t i, Clock::time_point sent) {
  double late = std::max(0.0, Ms(Due(i), sent));
  lateness_ms_.push_back(late);
  return late;
}

}  // namespace perfbench
