#pragma once
// Shared types for the ibbench program: workload table, result records,
// output checks, and the small statistics helpers every phase uses.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace ibbench {

inline std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One workload: the training session that produces the served model, then
/// the traffic mix it is served under. Every workload reports every
/// end-to-end metric, so each one both trains and serves.
struct Workload {
  std::string name;
  std::string why;
  // PGD-AT + IB-RAR training of vgg16 on synth-cifar10.
  std::int64_t train_size = 0;
  std::int64_t epochs = 0;
  std::int64_t eval_samples = 0;  ///< clean + PGD-10 evaluation set size
  double min_clean_acc = 0.0;     ///< output check: floor on clean accuracy
  // Serving traffic through the TCP front-end.
  std::int64_t telemetry_every = 0;  ///< 0 = robustness telemetry off
  double hot_frac = 0.0;             ///< share of requests from the hot set
  bool hot_swap = false;             ///< publish a new version every 500 ms
  double light_rps = 0.0;            ///< fixed open-loop rates (req/s)
  double heavy_rps = 0.0;
};

const std::vector<Workload>& workloads();

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Output checks: every failed requirement is recorded with a message; any
/// failure makes the run incorrect and the process exit nonzero.
struct Checks {
  std::vector<std::string> failures;
  void require(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// One row of the traced per-layer table. Times are totals over the run in
/// milliseconds; `unattributed_ms` is set on rows whose children are timed.
struct LayerRow {
  std::string layer;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double wait_ms = 0.0;
  double unattributed_ms = std::numeric_limits<double>::quiet_NaN();
};

/// Nearest-rank percentile, q in [0, 1]; +inf entries (failed requests)
/// sort last, so they count as missing every latency limit.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Linearly interpolated quantile, q in [0, 1] (numpy's default).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double k = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(k);
  const std::size_t j = std::min(i + 1, v.size() - 1);
  const double f = k - static_cast<double>(i);
  if (f == 0.0 || v[j] == v[i]) return v[i];  // also keeps +inf exact
  return v[i] + (v[j] - v[i]) * f;
}

/// Host interference (CPU steal, noisy neighbours) only ever slows a window
/// or a batch down, so end-to-end figures are taken at the least-disturbed
/// tenth of them: times at this quantile, rates at 1 - this quantile.
inline constexpr double kCalmQuantile = 0.10;

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// FNV-1a over raw bytes; the training result digest.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace ibbench
