// Duplicate-request reply cache: hit bit-identity vs recompute (telemetry
// on/off, workers 1/4), LRU eviction order under byte-budget pressure,
// hot-swap invalidation, concurrent in-flight dedup (N threads, one
// compute), the serve.cache.bytes gauge-freshness contract, and a
// fixed-seed randomized op-sequence sweep against a naive map+recompute
// reference model.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "models/registry.hpp"
#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/reply_cache.hpp"
#include "serve/server.hpp"
#include "tensor/random.hpp"
#include "util/rng.hpp"

namespace ibrar {
namespace {

using namespace std::chrono_literals;

constexpr std::int64_t kSize = 4;
constexpr std::int64_t kChannels = 3;
constexpr std::int64_t kClasses = 5;

models::TapClassifierPtr tiny_model(std::uint64_t seed) {
  models::ModelSpec spec;
  spec.name = "mlp";
  spec.num_classes = kClasses;
  spec.image_size = kSize;
  spec.in_channels = kChannels;
  Rng rng(seed);
  return models::make_model(spec, rng);
}

Shape sample_shape() { return {kChannels, kSize, kSize}; }

Tensor sample_input(std::uint64_t seed) {
  Rng rng(seed);
  return rand_uniform({kChannels, kSize, kSize}, rng, 0.0f, 1.0f);
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// Snapshot of the global cache/admission counters, for delta assertions
/// (the registry is cumulative across every server in the test binary).
struct CacheCounters {
  std::uint64_t lookups, hits, misses, joins, evictions, invalidations;

  static CacheCounters now() {
    auto& r = obs::registry();
    return {r.counter("serve.cache.lookups").value(),
            r.counter("serve.cache.hits").value(),
            r.counter("serve.cache.misses").value(),
            r.counter("serve.cache.inflight_joins").value(),
            r.counter("serve.cache.evictions").value(),
            r.counter("serve.cache.invalidations").value()};
  }
  CacheCounters delta_from(const CacheCounters& base) const {
    return {lookups - base.lookups,         hits - base.hits,
            misses - base.misses,           joins - base.joins,
            evictions - base.evictions,     invalidations - base.invalidations};
  }
};

/// Deterministic synthetic "compute" for direct-drive cache tests: a reply
/// whose logits are a fixed function of (input bytes, version), so any hit
/// can be checked against an independent recompute.
serve::Reply fake_reply(const Tensor& input, std::uint64_t version) {
  serve::Reply r;
  r.status = serve::ReplyStatus::kOk;
  r.logits = Tensor({kClasses});
  const auto in = input.data();
  for (std::int64_t j = 0; j < kClasses; ++j) {
    r.logits.data()[static_cast<std::size_t>(j)] =
        in[static_cast<std::size_t>(j) % in.size()] *
            static_cast<float>(j + 1) +
        static_cast<float>(version);
  }
  r.argmax = static_cast<std::int64_t>(version % kClasses);
  r.model_version = version;
  return r;
}

/// Run one full leader cycle against a direct-driven cache: lookup (must be
/// kLeader or kBypass) then complete with the synthetic reply.
serve::ReplyCache::Outcome drive(serve::ReplyCache& cache, const Tensor& x,
                                 std::uint64_t version,
                                 serve::Reply* hit_out = nullptr) {
  std::promise<serve::Reply> pr;
  const std::uint64_t h = serve::ReplyCache::hash_input(x);
  auto lk = cache.lookup_or_join(h, x, version, pr);
  if (lk.outcome == serve::ReplyCache::Outcome::kLeader) {
    cache.complete(h, version, fake_reply(x, version));
  }
  if (hit_out && lk.outcome == serve::ReplyCache::Outcome::kHit) {
    *hit_out = std::move(lk.reply);
  }
  return lk.outcome;
}

// ---- hit bit-identity vs recompute ------------------------------------------

TEST(ReplyCache, HitBitIdenticalToRecomputeAcrossWorkersAndTelemetry) {
  // The hard contract: a cache hit's logits are memcmp-identical to what a
  // fresh recompute (on a cache-off server over the same weights) produces —
  // at 1 and 4 workers, telemetry off and on.
  const Tensor x = sample_input(42);

  // Reference recompute: a separate cache-off server instance.
  std::vector<float> ref;
  {
    serve::ModelRegistry reg;
    reg.publish(tiny_model(1), sample_shape());
    serve::ServeConfig cfg;  // programmatic default: cache OFF
    serve::Server server(reg, cfg);
    const auto r = server.submit(x).get();
    ASSERT_TRUE(r.ok());
    ASSERT_FALSE(r.cached);
    ref.assign(r.logits.data().begin(), r.logits.data().end());
  }

  for (const std::int64_t workers : {std::int64_t{1}, std::int64_t{4}}) {
    for (const std::int64_t sample_every : {std::int64_t{0}, std::int64_t{1}}) {
      serve::ModelRegistry reg;
      reg.publish(tiny_model(1), sample_shape());
      serve::ServeConfig cfg;
      cfg.workers = workers;
      cfg.telemetry.sample_every = sample_every;
      cfg.telemetry.window = 4;
      cfg.cache_bytes = std::size_t{4} << 20;
      serve::Server server(reg, cfg);

      const auto miss = server.submit(x).get();
      ASSERT_TRUE(miss.ok());
      EXPECT_FALSE(miss.cached);
      const auto hit = server.submit(x).get();
      ASSERT_TRUE(hit.ok());
      EXPECT_TRUE(hit.cached);

      // Bit-identity vs BOTH the leader's reply and the fresh recompute.
      EXPECT_TRUE(bits_equal(hit.logits, miss.logits));
      ASSERT_EQ(hit.logits.numel(), static_cast<std::int64_t>(ref.size()));
      EXPECT_EQ(std::memcmp(hit.logits.data().data(), ref.data(),
                            sizeof(float) * ref.size()),
                0)
          << "workers=" << workers << " telemetry=" << sample_every;
      EXPECT_EQ(hit.argmax, miss.argmax);
      EXPECT_EQ(hit.model_version, miss.model_version);
      // No compute was spent on the hit, and sampled telemetry is never
      // replayed onto another request.
      EXPECT_EQ(hit.compute_ns, 0);
      EXPECT_EQ(hit.batch_size, 0);
      EXPECT_FALSE(hit.telemetry.sampled);

      const auto stats = server.stats().counters;
      EXPECT_EQ(stats.at("serve.cache.lookups"), 2u);
      EXPECT_EQ(stats.at("serve.cache.hits"), 1u);
      EXPECT_EQ(stats.at("serve.cache.misses"), 1u);
      EXPECT_EQ(stats.at("serve.cache.hits") + stats.at("serve.cache.misses"),
                stats.at("serve.cache.lookups"));
      EXPECT_EQ(stats.at("serve.served"), 1u);  // one compute covered both
    }
  }
}

// ---- LRU eviction under byte pressure ---------------------------------------

TEST(ReplyCache, LruEvictsColdEntriesFirstUnderByteBudget) {
  // One shard so the LRU order is exact and observable. Budget sized for
  // three complete entries (input 48 floats + logits 5 floats + overhead).
  const Tensor a = sample_input(1), b = sample_input(2), c = sample_input(3),
               d = sample_input(4);
  serve::ReplyCacheConfig cfg;
  cfg.shards = 1;
  {
    serve::ReplyCache probe(serve::ReplyCacheConfig{std::size_t{1} << 20, 1});
    probe.on_version(1);
    ASSERT_EQ(drive(probe, a, 1), serve::ReplyCache::Outcome::kLeader);
    cfg.capacity_bytes = probe.bytes() * 3 + probe.bytes() / 2;  // ~3.5 entries
  }
  const auto base = CacheCounters::now();
  serve::ReplyCache cache(cfg);
  cache.on_version(1);
  ASSERT_EQ(drive(cache, a, 1), serve::ReplyCache::Outcome::kLeader);
  ASSERT_EQ(drive(cache, b, 1), serve::ReplyCache::Outcome::kLeader);
  ASSERT_EQ(drive(cache, c, 1), serve::ReplyCache::Outcome::kLeader);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_LE(cache.bytes(), cfg.capacity_bytes);

  // Touch `a` so `b` is now the coldest, then overflow with `d`.
  EXPECT_EQ(drive(cache, a, 1), serve::ReplyCache::Outcome::kHit);
  ASSERT_EQ(drive(cache, d, 1), serve::ReplyCache::Outcome::kLeader);

  // The eviction took the LRU victim: b is gone; a, c, d still hit.
  EXPECT_LE(cache.bytes(), cfg.capacity_bytes);
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(drive(cache, a, 1), serve::ReplyCache::Outcome::kHit);
  EXPECT_EQ(drive(cache, c, 1), serve::ReplyCache::Outcome::kHit);
  EXPECT_EQ(drive(cache, d, 1), serve::ReplyCache::Outcome::kHit);
  EXPECT_EQ(drive(cache, b, 1), serve::ReplyCache::Outcome::kLeader);

  const auto delta = CacheCounters::now().delta_from(base);
  EXPECT_GE(delta.evictions, 1u);
  EXPECT_EQ(delta.hits + delta.misses, delta.lookups);
}

// ---- hot-swap invalidation --------------------------------------------------

TEST(ReplyCache, VersionChangeInvalidatesAcrossHotSwap) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape(), "v1");
  serve::ServeConfig cfg;
  cfg.cache_bytes = std::size_t{4} << 20;
  serve::Server server(reg, cfg);
  auto& g_bytes = obs::registry().gauge("serve.cache.bytes");

  const Tensor x = sample_input(7);
  const auto v1_miss = server.submit(x).get();
  ASSERT_TRUE(v1_miss.ok());
  EXPECT_EQ(v1_miss.model_version, 1u);
  EXPECT_TRUE(server.submit(x).get().cached);
  const double bytes_warm = g_bytes.value();
  EXPECT_GT(server.cache().bytes(), 0u);

  // Hot-swap to different weights: the v1 entry MUST not answer for v2.
  reg.publish(tiny_model(2), sample_shape(), "v2");
  const auto v2_first = server.submit(x).get();
  ASSERT_TRUE(v2_first.ok());
  EXPECT_FALSE(v2_first.cached);  // recomputed, not served from the v1 entry
  EXPECT_EQ(v2_first.model_version, 2u);
  // Different weights -> different logits; a stale hit would have matched v1.
  EXPECT_FALSE(bits_equal(v2_first.logits, v1_miss.logits));

  // And v2 now caches normally, bit-identical to its own recompute.
  const auto v2_hit = server.submit(x).get();
  ASSERT_TRUE(v2_hit.cached);
  EXPECT_TRUE(bits_equal(v2_hit.logits, v2_first.logits));
  EXPECT_EQ(v2_hit.model_version, 2u);

  const auto stats = server.stats().counters;
  EXPECT_GE(stats.at("serve.cache.invalidations"), 1u);
  EXPECT_EQ(stats.at("serve.cache.hits") + stats.at("serve.cache.misses"),
            stats.at("serve.cache.lookups"));
  // Invalidation dropped the v1 bytes before the v2 entry was stored; the
  // gauge never double-counts the dead version.
  EXPECT_LE(g_bytes.value(), bytes_warm);
}

// ---- concurrent in-flight dedup ---------------------------------------------

TEST(ReplyCache, ConcurrentIdenticalRequestsRideOneCompute) {
  // Park the leader in batch assembly (long deadline, single worker), then
  // fire N identical submissions from N threads: every one must join the
  // leader's in-flight entry — ONE compute serves all of them.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());
  serve::ServeConfig cfg;
  cfg.max_batch = 64;
  cfg.deadline_us = 200'000;  // the dedup window for this test
  cfg.workers = 1;
  cfg.cache_bytes = std::size_t{4} << 20;
  serve::Server server(reg, cfg);

  const Tensor x = sample_input(99);
  auto leader_fut = server.submit(x);  // installs the in-flight entry

  constexpr int kJoiners = 7;
  std::vector<std::future<serve::Reply>> joined(kJoiners);
  std::vector<std::thread> threads;
  threads.reserve(kJoiners);
  for (int t = 0; t < kJoiners; ++t) {
    threads.emplace_back(
        [&, t] { joined[static_cast<std::size_t>(t)] = server.submit(x); });
  }
  for (auto& t : threads) t.join();

  const auto leader = leader_fut.get();
  ASSERT_TRUE(leader.ok());
  EXPECT_FALSE(leader.cached);
  for (auto& f : joined) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.cached);
    EXPECT_TRUE(bits_equal(r.logits, leader.logits));
    EXPECT_EQ(r.argmax, leader.argmax);
    EXPECT_EQ(r.model_version, leader.model_version);
  }

  const auto stats = server.stats().counters;
  const auto joiners = static_cast<std::uint64_t>(kJoiners);
  EXPECT_EQ(stats.at("serve.cache.inflight_joins"), joiners);
  EXPECT_EQ(stats.at("serve.cache.hits"), joiners);
  EXPECT_EQ(stats.at("serve.cache.misses"), 1u);
  EXPECT_EQ(stats.at("serve.served"), 1u);    // one row computed
  EXPECT_EQ(stats.at("serve.batches"), 1u);   // in one batch
  EXPECT_EQ(stats.at("serve.accepted"), 1u);  // joiners never queued
}

// ---- gauge freshness (the PR 7 queue_depth contract, for cache bytes) -------

TEST(ReplyCache, BytesGaugeFallsOnEvictionInvalidationAndZeroAfterShutdown) {
  auto& g_bytes = obs::registry().gauge("serve.cache.bytes");
  const double before = g_bytes.value();
  {
    serve::ModelRegistry reg;
    reg.publish(tiny_model(1), sample_shape());
    serve::ServeConfig cfg;
    cfg.cache_bytes = 2048;  // a few entries at most — forces eviction
    serve::Server server(reg, cfg);

    double peak = before;
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(
          server.submit(sample_input(static_cast<std::uint64_t>(i))).get()
              .ok());
      peak = std::max(peak, g_bytes.value());
    }
    // The budget held live bytes down even though 12 entries were stored.
    EXPECT_GT(server.stats().counters.at("serve.cache.evictions"), 0u);
    EXPECT_LE(server.cache().bytes(), std::size_t{2048});
    EXPECT_LE(g_bytes.value() - before, 2048.0);

    // Invalidation drops the whole resident set's bytes.
    reg.publish(tiny_model(2), sample_shape());
    server.cache().on_version(2);
    EXPECT_EQ(server.cache().bytes(), 0u);

    server.submit(sample_input(100)).get();
    EXPECT_GT(server.cache().bytes(), 0u);
    server.shutdown();
    EXPECT_EQ(server.cache().bytes(), 0u);
    // After shutdown the gauge is back to its pre-server reading: this
    // server's contribution is exactly zero (no stale residue).
    EXPECT_DOUBLE_EQ(g_bytes.value(), before);
  }
}

// ---- randomized op sequence vs naive reference ------------------------------

TEST(ReplyCache, RandomizedOpSequenceMatchesNaiveReferenceModel) {
  // Fixed-seed sweep with a budget big enough that eviction never fires: the
  // cache's hit/miss/store behavior must then match a naive map keyed on
  // (input index, version) that recomputes on miss — exactly, op for op.
  std::mt19937_64 rng(0x5eed5eed);
  constexpr int kPool = 12;
  constexpr int kOps = 600;
  std::vector<Tensor> pool;
  for (int i = 0; i < kPool; ++i) {
    pool.push_back(sample_input(1000 + static_cast<std::uint64_t>(i)));
  }

  const auto base = CacheCounters::now();
  serve::ReplyCache cache(
      serve::ReplyCacheConfig{std::size_t{16} << 20, 4});
  std::map<std::pair<int, std::uint64_t>, std::vector<float>> naive;
  std::uint64_t version = 1;
  cache.on_version(version);

  for (int op = 0; op < kOps; ++op) {
    if (rng() % 40 == 0) {
      // Hot-swap: bump the version; the naive model forgets other versions
      // exactly like the cache invalidates them.
      ++version;
      cache.on_version(version);
      naive.clear();
    }
    const int idx = static_cast<int>(rng() % kPool);
    const Tensor& x = pool[static_cast<std::size_t>(idx)];

    serve::Reply hit;
    const auto outcome = drive(cache, x, version, &hit);
    const auto key = std::make_pair(idx, version);
    const bool naive_hit = naive.count(key) > 0;
    if (!naive_hit) {
      const auto r = fake_reply(x, version);
      naive[key].assign(r.logits.data().begin(), r.logits.data().end());
    }
    ASSERT_EQ(outcome == serve::ReplyCache::Outcome::kHit, naive_hit)
        << "op " << op << " idx " << idx << " version " << version;
    if (outcome == serve::ReplyCache::Outcome::kHit) {
      // Hit logits match the naive recompute bit for bit.
      const auto& want = naive[key];
      ASSERT_EQ(hit.logits.numel(), static_cast<std::int64_t>(want.size()));
      EXPECT_EQ(std::memcmp(hit.logits.data().data(), want.data(),
                            sizeof(float) * want.size()),
                0)
          << "op " << op;
      EXPECT_EQ(hit.model_version, version);
      EXPECT_TRUE(hit.cached);
    }
  }
  const auto delta = CacheCounters::now().delta_from(base);
  EXPECT_EQ(delta.lookups, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(delta.hits + delta.misses, delta.lookups);
  EXPECT_EQ(delta.evictions, 0u);  // the budget was never under pressure
  cache.clear();
  EXPECT_EQ(cache.bytes(), 0u);
}

// ---- admission: token bucket + in-flight cap --------------------------------

TEST(Admission, TokenBucketIsolatesTheChattyClient) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());
  serve::ServeConfig cfg;
  cfg.client_rate = 0.001;  // ~no refill within the test
  cfg.client_burst = 3.0;
  serve::Server server(reg, cfg);

  // Client 7 burns its burst; the 4th request is throttled with a hint.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        server.submit(sample_input(static_cast<std::uint64_t>(i)), 7).get()
            .ok());
  }
  const auto throttled = server.submit(sample_input(50), 7).get();
  EXPECT_EQ(throttled.status, serve::ReplyStatus::kBusyRetryAfter);
  EXPECT_GE(throttled.retry_after_ms, 1u);
  // Client 8 is untouched by 7's exhaustion — fairness by isolation.
  EXPECT_TRUE(server.submit(sample_input(60), 8).get().ok());

  const auto stats = server.stats().counters;
  EXPECT_EQ(stats.at("serve.admission.throttled"), 1u);
  EXPECT_EQ(stats.at("serve.admission.busy"), 0u);
}

TEST(Admission, ThrottledLeaderFansTheBusyStatusToJoiners) {
  // A leader denied admission must not strand requests that joined its
  // in-flight entry: they all get the same busy reply.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());
  serve::ServeConfig cfg;
  cfg.cache_bytes = std::size_t{1} << 20;
  cfg.client_rate = 0.001;
  cfg.client_burst = 1.0;
  cfg.max_batch = 64;
  cfg.deadline_us = 100'000;
  serve::Server server(reg, cfg);

  const Tensor x = sample_input(1);
  ASSERT_TRUE(server.submit(x, 7).get().ok());  // burns the only token

  // A NEW input: its leader gets throttled at the door. A concurrent twin
  // would join the in-flight entry before the abort — simulate the join by
  // submitting from another client id while the leader is being rejected.
  // (Deterministic version: the leader is rejected synchronously, so the
  // abort has already fanned out by the time submit returns. What we assert
  // is that the entry did not leak: the next lookup is a fresh leader, not
  // a join onto a dead entry.)
  const Tensor y = sample_input(2);
  const auto rejected = server.submit(y, 7).get();
  EXPECT_EQ(rejected.status, serve::ReplyStatus::kBusyRetryAfter);
  // Client 8 can now compute y from scratch — the aborted leader's entry is
  // gone (a leaked in-flight entry would make this a join that never
  // resolves).
  const auto fresh = server.submit(y, 8).get();
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.cached);
}

}  // namespace
}  // namespace ibrar
