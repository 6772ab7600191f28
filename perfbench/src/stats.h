#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it (q in [0, 1]). 0 for an empty sample. Nearest rank never
/// invents a value between two samples, so a reported p90 is a latency some
/// request actually saw.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0
                 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// FNV-1a over the raw bytes of a float sequence: equal checksums mean
/// bitwise-equal values (up to hash collisions), which is the parity notion
/// the determinism contracts use.
inline uint64_t Fnv1a(const float* data, size_t n, uint64_t hash) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, &data[i], sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      hash ^= (bits >> (8 * b)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
