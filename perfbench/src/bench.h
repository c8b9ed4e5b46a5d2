// Shared helpers of the repository benchmark: clocks, self-checks and
// percentiles. See perfbench/README.md for what is measured and why.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A failed self-check. The benchmark prints no result after one: a phase
/// that measured nothing, or outputs that could not be checked, must never
/// be reported as a number.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void Require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`. Refuses a sample
/// too small to hold at least ten values beyond the percentile.
inline double Percentile(std::vector<int64_t> samples, double q,
                         const std::string& what) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  Require(beyond >= 10.0, what + ": " + std::to_string(samples.size()) +
                              " samples leave fewer than 10 beyond p" +
                              std::to_string(static_cast<int>(q * 100)));
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return static_cast<double>(samples[idx]);
}

inline double Median(std::vector<double> values, const std::string& what) {
  Require(!values.empty(), what + ": no samples");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// `num / den`, refusing an empty denominator (a silent zero otherwise).
inline double Ratio(double num, double den, const std::string& what) {
  Require(den > 0.0, what + ": nothing measured");
  return num / den;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
