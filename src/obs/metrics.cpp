#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

namespace ibrar::obs {

namespace detail {

int next_shard_slot() {
  static std::atomic<int> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

int hist_bucket(double v) {
  // Underflow catches non-positive, NaN, and anything below the first bucket
  // edge; the comparison is written so NaN falls through to `return 0`.
  if (!(v >= std::ldexp(1.0, kHistMinExp2))) return 0;
  if (v >= std::ldexp(1.0, kHistMaxExp2)) return kHistBuckets - 1;
  int e;
  const double f = std::frexp(v, &e);  // v = f * 2^e, f in [0.5, 1)
  const int sub = static_cast<int>((f - 0.5) * 2.0 * kHistSubBuckets);
  const int idx = 1 + (e - 1 - kHistMinExp2) * kHistSubBuckets +
                  std::min(sub, kHistSubBuckets - 1);
  return std::clamp(idx, 1, kHistBuckets - 2);
}

double hist_bucket_lower(int bucket) {
  if (bucket <= 0) return 0.0;
  if (bucket >= kHistBuckets - 1) return std::ldexp(1.0, kHistMaxExp2);
  const int oct = (bucket - 1) / kHistSubBuckets;
  const int sub = (bucket - 1) % kHistSubBuckets;
  return std::ldexp(0.5 + 0.5 * sub / kHistSubBuckets,
                    kHistMinExp2 + 1 + oct);
}

double hist_bucket_upper(int bucket) {
  if (bucket <= 0) return std::ldexp(1.0, kHistMinExp2);
  if (bucket >= kHistBuckets - 1) return std::ldexp(1.0, kHistMaxExp2 + 1);
  return hist_bucket_lower(bucket + 1);
}

}  // namespace detail

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0.0;
  const double qq = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(qq * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    cum += buckets[static_cast<std::size_t>(b)];
    if (cum >= rank) {
      // Upper bucket edge clamped to the observed max: >= the true order
      // statistic, and never past the largest value actually seen.
      return std::min(detail::hist_bucket_upper(b), max);
    }
  }
  return max;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  for (const auto& s : shards_) {
    for (int b = 0; b < kHistBuckets; ++b) {
      out.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    }
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
    out.max = std::max(
        out.max, bits_to_double(s.max_bits.load(std::memory_order_relaxed)));
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_shared<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_shared<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_shared<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Copy the pointer table under the lock, read the shards outside it: the
  // lock hold is proportional to the number of names, not the merge work,
  // so a background sampler cannot stall a thread resolving a new handle
  // for long (recording on resolved handles never takes this lock at all).
  std::vector<std::pair<std::string, std::shared_ptr<Counter>>> cs;
  std::vector<std::pair<std::string, std::shared_ptr<Gauge>>> gs;
  std::vector<std::pair<std::string, std::shared_ptr<Histogram>>> hs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    cs.assign(counters_.begin(), counters_.end());
    gs.assign(gauges_.begin(), gauges_.end());
    hs.assign(histograms_.begin(), histograms_.end());
  }
  MetricsSnapshot out;
  for (const auto& [name, c] : cs) out.counters[name] = c->value();
  for (const auto& [name, g] : gs) out.gauges[name] = g->value();
  for (const auto& [name, h] : hs) out.histograms[name] = h->snapshot();
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

namespace {

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out += (first ? "\"" : ",\"") + name + "\":" + std::to_string(v);
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    out += (first ? "\"" : ",\"") + name + "\":" + json_num(v);
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += (first ? "\"" : ",\"") + name + "\":{\"count\":" +
           std::to_string(h.count) + ",\"mean\":" + json_num(h.mean()) +
           ",\"max\":" + json_num(h.max) +
           ",\"p50\":" + json_num(h.percentile(0.50)) +
           ",\"p90\":" + json_num(h.percentile(0.90)) +
           ",\"p99\":" + json_num(h.percentile(0.99)) +
           ",\"p999\":" + json_num(h.percentile(0.999)) + "}";
    first = false;
  }
  out += "}}";
  return out;
}

namespace {

/// Prometheus metric-name sanitizer: [a-zA-Z0-9_:] pass through, everything
/// else (the registry's dots, mostly) becomes '_'. A leading digit gets a
/// '_' prefix to satisfy the exposition grammar.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == ':';
    out.push_back(ok ? ch : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  return out;
}

/// Prometheus sample values: decimal doubles, +Inf/-Inf/NaN spellings.
std::string prom_num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : gauges) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + prom_num(v) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " histogram\n";
    // Sparse cumulative buckets: one le edge per non-empty bucket (upper
    // bound of our log-bucket geometry), closed with the mandatory +Inf.
    std::uint64_t cum = 0;
    for (int b = 0; b < kHistBuckets - 1; ++b) {  // overflow rides +Inf below
      const std::uint64_t c = h.buckets[static_cast<std::size_t>(b)];
      if (c == 0) continue;
      cum += c;
      out += n + "_bucket{le=\"" + prom_num(detail::hist_bucket_upper(b)) +
             "\"} " + std::to_string(cum) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += n + "_sum " + prom_num(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::since(const MetricsSnapshot& base) const {
  MetricsSnapshot out = *this;
  for (auto& [name, v] : out.counters) {
    const auto it = base.counters.find(name);
    if (it != base.counters.end()) v -= it->second;
  }
  for (auto& [name, h] : out.histograms) {
    const auto it = base.histograms.find(name);
    if (it == base.histograms.end()) continue;
    h.count -= it->second.count;
    h.sum -= it->second.sum;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      h.buckets[b] -= it->second.buckets[b];
    }
  }
  return out;
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

}  // namespace ibrar::obs
