#pragma once
// Process-global metrics: string-named counters, gauges, and log-bucketed
// latency histograms.
//
// Design for a hot serving path:
//  * Every metric is sharded across kMetricShards cache-line-padded slots;
//    a thread writes the slot picked by its (stable) thread-local shard id,
//    so the fast path of Counter::inc is one relaxed fetch_add on a line no
//    other core is hammering. Shards are merged on read.
//  * Histograms bucket values (nanoseconds, scores, batch sizes — any
//    positive double) logarithmically: 8 sub-buckets per power of two over
//    [2^-32, 2^40), so a percentile read off the bucket counts is exact to
//    within one bucket (<= 12.5% relative width). percentile() returns the
//    upper bound of the rank's bucket clamped to the observed max, so the
//    estimate always brackets the true order statistic from above.
//  * Handles returned by MetricsRegistry::counter()/gauge()/histogram() are
//    stable references for the registry's lifetime — resolve once, then the
//    recording path never touches the registry lock.
//
// Reads are wait-free sums of relaxed per-shard values: each metric's total
// is exact (every increment lands in exactly one shard), and a snapshot
// taken while writers are quiescent — the state every gate and test reads —
// is exact across metrics too. During concurrent writes, distinct metrics in
// one snapshot may be skewed by in-flight requests, but each value is always
// a real count that was true at some point (monotone, never torn).
//
// The process-global instance is obs::registry(); nothing stops a test from
// owning a private MetricsRegistry.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ibrar::obs {

inline constexpr int kMetricShards = 16;

/// Histogram bucket geometry: values span [2^kHistMinExp2, 2^kHistMaxExp2)
/// with kHistSubBuckets linear sub-buckets per power of two, plus an
/// underflow bucket (index 0, catches <= 2^kHistMinExp2 and non-finite) and
/// an overflow bucket (last index).
inline constexpr int kHistSubBuckets = 8;
inline constexpr int kHistMinExp2 = -32;
inline constexpr int kHistMaxExp2 = 40;
inline constexpr int kHistBuckets =
    (kHistMaxExp2 - kHistMinExp2) * kHistSubBuckets + 2;

namespace detail {

int next_shard_slot();  // monotone thread-id counter, defined in metrics.cpp

/// Stable per-thread shard index in [0, kMetricShards).
inline int shard_slot() {
  thread_local const int slot = next_shard_slot() % kMetricShards;
  return slot;
}

/// Bucket index for a value (see geometry above).
int hist_bucket(double v);
/// Inclusive lower / exclusive upper value bound of a bucket.
double hist_bucket_lower(int bucket);
double hist_bucket_upper(int bucket);

}  // namespace detail

/// Monotone event counter. inc() is a relaxed fetch_add on a per-thread
/// shard; value() sums the shards.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    shards_[static_cast<std::size_t>(detail::shard_slot())].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Last-write-wins scalar, plus a monotone-max flavour for high-water marks.
class Gauge {
 public:
  void set(double v) {
    bits_.store(to_bits(v), std::memory_order_relaxed);
  }
  /// Add d (may be negative) to the current value (CAS loop). Used for
  /// resource gauges that track live totals, e.g. serve.snapshot_bytes.
  void add(double d) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, to_bits(from_bits(cur) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  /// Raise to v if v is larger than the current value (CAS loop).
  void set_max(double v) {
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (from_bits(cur) < v &&
           !bits_.compare_exchange_weak(cur, to_bits(v),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return from_bits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t to_bits(double v) {
    std::uint64_t b;
    static_assert(sizeof b == sizeof v);
    __builtin_memcpy(&b, &v, sizeof b);
    return b;
  }
  static double from_bits(std::uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof v);
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};  // double 0.0
};

/// Read-side view of one histogram: merged bucket counts + count/sum/max.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// q in [0, 1]: upper bound of the bucket holding the rank-ceil(q*count)
  /// observation, clamped to the observed max (0 when empty). Always >= the
  /// true order statistic and <= 1.125x it (one sub-bucket of slack).
  double percentile(double q) const;
};

/// Log-bucketed distribution of positive doubles; see the geometry note in
/// the header comment. observe() is a handful of relaxed atomic ops on the
/// caller's shard.
class Histogram {
 public:
  void observe(double v) {
    auto& s = shards_[static_cast<std::size_t>(detail::shard_slot())];
    s.buckets[static_cast<std::size_t>(detail::hist_bucket(v))].fetch_add(
        1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = s.max_bits.load(std::memory_order_relaxed);
    while (bits_to_double(cur) < v &&
           !s.max_bits.compare_exchange_weak(cur, double_to_bits(v),
                                             std::memory_order_relaxed)) {
    }
  }
  HistogramSnapshot snapshot() const;

 private:
  static std::uint64_t double_to_bits(double v) {
    std::uint64_t b;
    __builtin_memcpy(&b, &v, sizeof b);
    return b;
  }
  static double bits_to_double(std::uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof v);
    return v;
  }
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> max_bits{0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Merged read of a whole registry (see MetricsRegistry::snapshot).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// One JSON object on one line (no trailing newline): counters and gauges
  /// verbatim, histograms as {count, mean, max, p50, p90, p99, p999}. The
  /// shape ibrar_serve --stats-every emits and tools/check_serve_stats.py
  /// parses.
  std::string to_json() const;

  /// Prometheus text exposition (format version 0.0.4): counters as
  /// `# TYPE <name> counter`, gauges as gauge, histograms as the classic
  /// `_bucket{le="..."}` cumulative series plus `_sum`/`_count`. Metric names
  /// are sanitized (every character outside [a-zA-Z0-9_:] becomes '_');
  /// only non-empty buckets are emitted (sparse `le` series are valid
  /// exposition — cumulative counts at the emitted edges are still exact),
  /// always closed with the mandatory `le="+Inf"` bucket. This is what the
  /// admin endpoint's GET /metrics serves.
  std::string to_prometheus() const;

  /// This snapshot minus an earlier `base` of the same registry: counters
  /// and histogram count/sum/buckets are subtracted, with a name missing
  /// from `base` counting as 0. Gauges and histogram `max` are levels, not
  /// totals, so they keep this (later) snapshot's value. Lets one registry
  /// report per-owner deltas, e.g. Server::stats() against its
  /// construction-time snapshot.
  MetricsSnapshot since(const MetricsSnapshot& base) const;
};

/// Name -> metric map. Creation takes a mutex; returned references are
/// stable until the registry dies, so callers resolve handles once.
///
/// snapshot() holds the map mutex only long enough to copy the shared_ptr
/// table, then reads every metric's shards unlocked — a sampler scraping the
/// registry on a cadence never blocks a recording path (recording is
/// lock-free on pre-resolved handles) and stalls name resolution only for
/// the pointer copy.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Number of metrics, all kinds.
  std::size_t size() const;

  /// Drop every metric (handles become dangling — test isolation only).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Counter>> counters_;
  std::map<std::string, std::shared_ptr<Gauge>> gauges_;
  std::map<std::string, std::shared_ptr<Histogram>> histograms_;
};

/// The process-global registry every subsystem records into.
MetricsRegistry& registry();

}  // namespace ibrar::obs
