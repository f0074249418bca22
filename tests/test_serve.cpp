// Serving runtime: queue backpressure + drain, dual batch triggers,
// batched-vs-singleton bit-identity, versioned hot-swap under live load,
// telemetry sampling cadence, and telemetry read from the batch's own forward.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "analysis/capture.hpp"
#include "models/registry.hpp"
#include "nn/module.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "tensor/conv_eval.hpp"
#include "tensor/random.hpp"
#include "util/rng.hpp"

namespace ibrar {
namespace {

using namespace std::chrono_literals;

constexpr std::int64_t kSize = 4;       // image side
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

serve::Request make_request(std::uint64_t seed = 1) {
  serve::Request r;
  r.input = sample_input(seed);
  return r;
}

// ---- request queue ----------------------------------------------------------

TEST(RequestQueue, BackpressureRejectsWithoutConsuming) {
  serve::RequestQueue q(2);
  serve::Request a = make_request(1), b = make_request(2), c = make_request(3);
  EXPECT_EQ(q.push(a), serve::PushStatus::kAccepted);
  EXPECT_EQ(q.push(b), serve::PushStatus::kAccepted);
  EXPECT_EQ(q.push(c), serve::PushStatus::kFull);
  // The rejected request was NOT moved from: its promise is still usable.
  auto fut = c.promise.get_future();
  serve::Reply reply;
  reply.status = serve::ReplyStatus::kBusyRetryAfter;
  c.promise.set_value(std::move(reply));
  EXPECT_EQ(fut.get().status, serve::ReplyStatus::kBusyRetryAfter);
  EXPECT_EQ(q.size(), 2u);
}

TEST(RequestQueue, CloseStopsAdmissionButDrainsAcceptedItems) {
  serve::RequestQueue q(8);
  serve::Request a = make_request(1), b = make_request(2);
  EXPECT_EQ(q.push(a), serve::PushStatus::kAccepted);
  EXPECT_EQ(q.push(b), serve::PushStatus::kAccepted);
  q.close();
  serve::Request late = make_request(3);
  EXPECT_EQ(q.push(late), serve::PushStatus::kClosed);
  // Both accepted items drain before kClosed is reported.
  serve::Request out;
  EXPECT_EQ(q.pop(out), serve::PopStatus::kItem);
  EXPECT_EQ(q.pop(out), serve::PopStatus::kItem);
  EXPECT_EQ(q.pop(out), serve::PopStatus::kClosed);
}

TEST(RequestQueue, AdmissionIndicesAreGapFreeAcrossRejections) {
  // The telemetry cadence is "every Kth ADMITTED request": a rejected push
  // must not consume a sequence number.
  serve::RequestQueue q(1);
  serve::Request a = make_request(1), b = make_request(2), c = make_request(3);
  ASSERT_EQ(q.push(a), serve::PushStatus::kAccepted);
  ASSERT_EQ(q.push(b), serve::PushStatus::kFull);  // no index consumed
  serve::Request out;
  ASSERT_EQ(q.pop(out), serve::PopStatus::kItem);
  EXPECT_EQ(out.index, 0u);
  ASSERT_EQ(q.push(c), serve::PushStatus::kAccepted);
  ASSERT_EQ(q.pop(out), serve::PopStatus::kItem);
  EXPECT_EQ(out.index, 1u);  // 1, not 2: the kFull push left no gap
}

TEST(RequestQueue, PopUntilTimesOutOnOpenEmptyQueue) {
  serve::RequestQueue q(4);
  serve::Request out;
  EXPECT_EQ(q.pop_until(out, std::chrono::steady_clock::now() + 5ms),
            serve::PopStatus::kTimeout);
}

// ---- batcher ----------------------------------------------------------------

TEST(Batcher, SizeTriggerReleasesFullBatchWithoutDeadlineWait) {
  serve::RequestQueue q(16);
  for (int i = 0; i < 4; ++i) {
    serve::Request r = make_request(static_cast<std::uint64_t>(i));
    ASSERT_EQ(q.push(r), serve::PushStatus::kAccepted);
  }
  // A 10-second deadline would hang the test if the size trigger waited.
  serve::Batcher batcher(q, /*max_batch=*/4, /*deadline_us=*/10'000'000);
  serve::MicroBatch mb;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(batcher.next(mb));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(mb.size(), 4);
  EXPECT_EQ(mb.trigger, serve::BatchTrigger::kSize);
  EXPECT_LT(elapsed, 2s);
}

TEST(Batcher, DeadlineTriggerFlushesPartialBatch) {
  serve::RequestQueue q(16);
  for (int i = 0; i < 2; ++i) {
    serve::Request r = make_request(static_cast<std::uint64_t>(i));
    ASSERT_EQ(q.push(r), serve::PushStatus::kAccepted);
  }
  serve::Batcher batcher(q, /*max_batch=*/8, /*deadline_us=*/20'000);
  serve::MicroBatch mb;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(batcher.next(mb));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(mb.size(), 2);
  EXPECT_EQ(mb.trigger, serve::BatchTrigger::kDeadline);
  EXPECT_GE(elapsed, 15ms);  // it really waited the deadline out
}

TEST(Batcher, DrainTriggerFlushesImmediatelyOnClose) {
  serve::RequestQueue q(16);
  for (int i = 0; i < 3; ++i) {
    serve::Request r = make_request(static_cast<std::uint64_t>(i));
    ASSERT_EQ(q.push(r), serve::PushStatus::kAccepted);
  }
  q.close();
  serve::Batcher batcher(q, /*max_batch=*/8, /*deadline_us=*/10'000'000);
  serve::MicroBatch mb;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(batcher.next(mb));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(mb.size(), 3);
  EXPECT_EQ(mb.trigger, serve::BatchTrigger::kDrain);
  EXPECT_LT(elapsed, 2s);  // no 10-second deadline wait on shutdown
  EXPECT_FALSE(batcher.next(mb));  // queue closed and drained
}

// ---- model registry ---------------------------------------------------------

TEST(ModelRegistry, PublishBumpsVersionAndSwapsSnapshot) {
  serve::ModelRegistry reg;
  EXPECT_EQ(reg.version(), 0u);
  EXPECT_EQ(reg.current(), nullptr);
  const auto v1 = reg.publish(tiny_model(1), sample_shape(), "v1");
  EXPECT_EQ(v1, 1u);
  const auto snap1 = reg.current();
  ASSERT_NE(snap1, nullptr);
  EXPECT_EQ(snap1->version, 1u);
  EXPECT_EQ(snap1->tag, "v1");
  EXPECT_FALSE(snap1->model->training());  // published in eval mode
  const auto v2 = reg.publish(tiny_model(2), sample_shape(), "v2");
  EXPECT_EQ(v2, 2u);
  // The old snapshot stays alive and unchanged for in-flight holders.
  EXPECT_EQ(snap1->version, 1u);
  EXPECT_EQ(reg.current()->version, 2u);
}

TEST(ModelRegistry, CheckpointHotSwapRoundTripsBitIdentically) {
  const std::string path = "test_serve_ckpt.bin";
  auto original = tiny_model(7);
  original->set_training(false);
  nn::save_model(*original, path);

  models::ModelSpec spec;
  spec.name = "mlp";
  spec.num_classes = kClasses;
  spec.image_size = kSize;
  spec.in_channels = kChannels;
  serve::ModelRegistry reg;
  const auto v = reg.publish_checkpoint(spec, path);
  EXPECT_EQ(v, 1u);

  ag::NoGradGuard ng;
  const Tensor x = sample_input(11).reshape({1, kChannels, kSize, kSize});
  const Tensor a = original->forward(ag::Var::constant(x)).value();
  const Tensor b = reg.current()->forward(x);
  ASSERT_TRUE(a.same_shape(b));
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0);
  std::remove(path.c_str());
}

TEST(ModelRegistry, CheckpointLoadFailureLeavesCurrentVersionServing) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape(), "v1");
  models::ModelSpec spec;
  spec.name = "mlp";
  spec.num_classes = kClasses;
  spec.image_size = kSize;
  spec.in_channels = kChannels;
  EXPECT_THROW(reg.publish_checkpoint(spec, "does_not_exist.bin"),
               std::runtime_error);
  EXPECT_EQ(reg.version(), 1u);
}

TEST(ModelRegistry, SnapshotBytesGaugeTracksPrepackAcrossHotSwap) {
  // Publishing a conv model prepacks its weights into micro-kernel panels;
  // the bytes live exactly as long as the last pinned snapshot of that
  // version. The gauge is process-global, so assert deltas, not absolutes.
  // Panel sizes are whole byte counts (integers in double), so the sums
  // compare exactly. Under IBRAR_EVAL_FUSED=0 publish builds no plan: the
  // disabled contract is that the gauge stays at `base` throughout.
  const bool fused = fused_eval_enabled();
  auto& gauge = obs::registry().gauge("serve.snapshot_bytes");
  const double base = gauge.value();
  models::ModelSpec spec;  // vgg16
  spec.image_size = 8;
  {
    serve::ModelRegistry reg;
    Rng rng1(1);
    reg.publish(models::make_model(spec, rng1), {3, 8, 8}, "v1");
    const double v1_bytes = gauge.value() - base;
    if (fused) {
      EXPECT_GT(v1_bytes, 0.0);
    } else {
      EXPECT_EQ(v1_bytes, 0.0);
    }
    EXPECT_EQ(reg.current()->model->fused_eval_ready(), fused);

    // Pin v1 like an in-flight batch would, then hot-swap to v2: both
    // versions' panels are live until the pin drops.
    auto pinned_v1 = reg.current();
    Rng rng2(2);
    reg.publish(models::make_model(spec, rng2), {3, 8, 8}, "v2");
    EXPECT_EQ(gauge.value(), base + 2 * v1_bytes);  // same architecture
    pinned_v1.reset();  // last holder of v1 -> its panels release
    EXPECT_EQ(gauge.value(), base + v1_bytes);
  }
  // Registry gone: the final version's panels release too.
  EXPECT_EQ(gauge.value(), base);
}

TEST(ModelRegistry, PublishWithoutPrepackBuildsNoPlans) {
  auto& gauge = obs::registry().gauge("serve.snapshot_bytes");
  const double base = gauge.value();
  models::ModelSpec spec;  // vgg16
  spec.image_size = 8;
  serve::ModelRegistry reg;
  Rng rng(3);
  reg.publish(models::make_model(spec, rng), {3, 8, 8}, "ref",
              /*prepack=*/false);
  EXPECT_EQ(gauge.value(), base);
  EXPECT_FALSE(reg.current()->model->fused_eval_ready());
}

// ---- server -----------------------------------------------------------------

serve::ServeConfig quick_config() {
  // Start from the environment so CI can re-run this whole suite with the
  // worker fan-out forced on (IBRAR_SERVE_WORKERS=4 under ASan/UBSan);
  // tests that need an exact worker count still set cfg.workers themselves.
  serve::ServeConfig cfg = serve::ServeConfig::from_env();
  cfg.max_batch = 4;
  cfg.deadline_us = 1000;
  cfg.queue_capacity = 64;
  return cfg;
}

TEST(Server, ServesAcceptedRequestsAndRejectsBadShapes) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());
  serve::Server server(reg, quick_config());
  auto fut = server.submit(sample_input(3));
  const auto reply = fut.get();
  EXPECT_EQ(reply.status, serve::ReplyStatus::kOk);
  EXPECT_EQ(reply.logits.numel(), kClasses);
  EXPECT_GE(reply.argmax, 0);
  EXPECT_LT(reply.argmax, kClasses);
  EXPECT_EQ(reply.model_version, 1u);
  EXPECT_GE(reply.batch_size, 1);
  EXPECT_GE(reply.compute_ns, 0);
  EXPECT_THROW(server.submit(Tensor({2, 2})), std::invalid_argument);
}

TEST(Server, ShutdownDrainsEveryAcceptedRequest) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());
  auto server = std::make_unique<serve::Server>(reg, quick_config());
  std::vector<std::future<serve::Reply>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(server->submit(sample_input(static_cast<std::uint64_t>(i))));
  }
  server->shutdown();  // close + drain + join
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.status == serve::ReplyStatus::kOk) {
      ++ok;
    } else {
      ++rejected;  // backpressure is legal; dropping accepted work is not
      EXPECT_EQ(r.status, serve::ReplyStatus::kBusyRetryAfter);
    }
  }
  const auto stats = server->stats();
  EXPECT_EQ(ok, stats.counters.at("serve.accepted"));
  EXPECT_EQ(ok, stats.counters.at("serve.served"));
  EXPECT_EQ(rejected, stats.counters.at("serve.rejected_full"));
  // Post-shutdown submissions resolve immediately with the shutdown status.
  auto late = server->submit(sample_input(99));
  EXPECT_EQ(late.get().status, serve::ReplyStatus::kRejectedShutdown);
  EXPECT_EQ(server->stats().counters.at("serve.rejected_shutdown"), 1u);
}

// A vgg16 forward is slow enough (>100us) that 64 immediate submissions
// outrun one max_batch=1 worker behind a 4-deep queue by a wide margin.
// Returns the replies and this server's stats() after the burst.
struct Flood {
  std::vector<serve::Reply> replies;
  obs::MetricsSnapshot stats;
};

Flood flood_small_queue() {
  serve::ModelRegistry reg;
  models::ModelSpec spec;
  spec.name = "vgg16";
  spec.num_classes = kClasses;
  spec.image_size = 8;
  spec.in_channels = kChannels;
  Rng rng(5);
  reg.publish(models::make_model(spec, rng), {kChannels, 8, 8});

  serve::ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.deadline_us = 0;
  cfg.queue_capacity = 4;
  serve::Server server(reg, cfg);
  Rng in_rng(17);
  const Tensor x = rand_uniform({kChannels, 8, 8}, in_rng, 0.0f, 1.0f);
  std::vector<std::future<serve::Reply>> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(server.submit(x));
  Flood f;
  for (auto& fut : futures) f.replies.push_back(fut.get());
  f.stats = server.stats();
  return f;
}

TEST(Server, BackpressureRejectsWithStatusUnderFlood) {
  const Flood flood = flood_small_queue();
  std::size_t ok = 0, rejected = 0;
  for (const auto& r : flood.replies) {
    if (r.status == serve::ReplyStatus::kOk) ++ok;
    else {
      // The overload answer is busy + retry hint, never a bare queue-full
      // (CUPS server-error-busy semantics).
      EXPECT_EQ(r.status, serve::ReplyStatus::kBusyRetryAfter);
      EXPECT_GE(r.retry_after_ms, 1u);
      EXPECT_LE(r.retry_after_ms, 5000u);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 64u);
  EXPECT_GT(rejected, 0u);  // the bounded queue really pushed back
  const auto& c = flood.stats.counters;
  EXPECT_EQ(c.at("serve.accepted"), ok);
  EXPECT_EQ(c.at("serve.rejected_full"), rejected);
  EXPECT_EQ(c.at("serve.admission.busy"), rejected);
}

TEST(Server, DefaultRejectSloCountsEachQueueFullReplyOnce) {
  // A queue-full reply bumps both serve.rejected_full and
  // serve.admission.busy; the default reject-rate SLO must burn its budget
  // once per turned-away request, not twice.
  obs::register_default_serve_slos();
  obs::SloSpec probe;
  probe.name = "serve_reject_rate";
  // add() returns the already-registered monitor for a known name.
  const obs::SloSpec spec = obs::slos().add(probe).spec();
  ASSERT_FALSE(spec.bad_series.empty());

  const Flood flood = flood_small_queue();
  std::uint64_t not_ok = 0;
  for (const auto& r : flood.replies) not_ok += r.ok() ? 0 : 1;
  ASSERT_GT(not_ok, 0u);
  std::uint64_t bad = 0;
  for (const auto& name : spec.bad_series) bad += flood.stats.counters.at(name);
  EXPECT_EQ(bad, not_ok);
}

TEST(Server, BatchedLogitsBitIdenticalToSingleton) {
  // The determinism contract: the same input produces the same logits bits
  // whether it rides a micro-batch or a batch of one.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());

  const int n = 16;
  std::vector<Tensor> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(sample_input(100 + static_cast<std::uint64_t>(i)));
  }

  std::vector<Tensor> singleton(n), batched(n);
  {
    serve::ServeConfig cfg;
    cfg.max_batch = 1;
    cfg.queue_capacity = 64;
    serve::Server server(reg, cfg);
    for (int i = 0; i < n; ++i) {
      singleton[static_cast<std::size_t>(i)] =
          server.submit(inputs[static_cast<std::size_t>(i)]).get().logits;
    }
  }
  obs::MetricsSnapshot batched_stats;
  {
    serve::ServeConfig cfg;
    cfg.max_batch = 8;
    cfg.deadline_us = 50'000;  // long enough that the burst coalesces
    cfg.queue_capacity = 64;
    serve::Server server(reg, cfg);
    std::vector<std::future<serve::Reply>> futures;
    for (int i = 0; i < n; ++i) {
      futures.push_back(server.submit(inputs[static_cast<std::size_t>(i)]));
    }
    for (int i = 0; i < n; ++i) {
      batched[static_cast<std::size_t>(i)] =
          futures[static_cast<std::size_t>(i)].get().logits;
    }
    batched_stats = server.stats();
  }
  // Batching actually happened: some batch carried more than one row.
  EXPECT_GT(batched_stats.counters.at("serve.served"),
            batched_stats.counters.at("serve.batches"));
  for (int i = 0; i < n; ++i) {
    const Tensor& a = singleton[static_cast<std::size_t>(i)];
    const Tensor& b = batched[static_cast<std::size_t>(i)];
    ASSERT_TRUE(a.same_shape(b));
    EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                          sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "logits differ for request " << i;
  }
}

TEST(Server, HotSwapUnderLoadFinishesOldVersionThenServesNew) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape(), "v1");
  serve::Server server(reg, quick_config());

  std::vector<serve::Reply> replies;
  for (int i = 0; i < 10; ++i) {
    replies.push_back(server.submit(sample_input(static_cast<std::uint64_t>(i)))
                          .get());
  }
  // Everything so far was served by v1.
  for (const auto& r : replies) {
    EXPECT_EQ(r.status, serve::ReplyStatus::kOk);
    EXPECT_EQ(r.model_version, 1u);
  }
  // Swap under live traffic: submissions race the publish from another
  // thread; whichever version a batch grabbed, it must complete OK and
  // versions may only move forward.
  std::thread swapper(
      [&reg] { reg.publish(tiny_model(2), sample_shape(), "v2"); });
  std::vector<serve::Reply> during;
  for (int i = 0; i < 20; ++i) {
    during.push_back(
        server.submit(sample_input(100 + static_cast<std::uint64_t>(i))).get());
  }
  swapper.join();
  std::uint64_t prev = 1;
  for (const auto& r : during) {
    EXPECT_EQ(r.status, serve::ReplyStatus::kOk);
    EXPECT_GE(r.model_version, prev);  // monotone with a single worker
    EXPECT_LE(r.model_version, 2u);
    prev = r.model_version;
  }
  // After the swap completed, the next request is guaranteed v2.
  const auto after = server.submit(sample_input(999)).get();
  EXPECT_EQ(after.status, serve::ReplyStatus::kOk);
  EXPECT_EQ(after.model_version, 2u);
}

TEST(Server, HotSwapToDifferentInputShapeFailsStaleRowsSafely) {
  // Requests validated against v1's (3, 4, 4) can still be queued when a
  // hot-swap publishes a model expecting a different layout. Those rows must
  // never reach the batch memcpy (heap overread); they fail with
  // kRejectedStaleShape while anything served before the swap is plain kOk.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape(), "v1");
  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.deadline_us = 1000;
  cfg.queue_capacity = 64;
  serve::Server server(reg, cfg);

  std::vector<std::future<serve::Reply>> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(server.submit(sample_input(static_cast<std::uint64_t>(i))));
  }
  // Swap to a model with twice the spatial size while the queue drains.
  models::ModelSpec wide;
  wide.name = "mlp";
  wide.num_classes = kClasses;
  wide.image_size = 2 * kSize;
  wide.in_channels = kChannels;
  Rng rng(2);
  reg.publish(models::make_model(wide, rng), {kChannels, 2 * kSize, 2 * kSize},
              "v2-wide");

  std::size_t ok = 0, stale = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.status == serve::ReplyStatus::kOk) {
      EXPECT_EQ(r.model_version, 1u);  // old shape can only be served by v1
      ++ok;
    } else {
      ASSERT_EQ(r.status, serve::ReplyStatus::kRejectedStaleShape);
      EXPECT_EQ(r.model_version, 2u);
      ++stale;
    }
  }
  EXPECT_EQ(ok + stale, 24u);  // every future resolved, whichever side of the
                               // swap its batch landed on
  EXPECT_EQ(server.stats().counters.at("serve.rejected_stale"), stale);
  // New-shape traffic is served by v2.
  Rng in_rng(77);
  const auto wide_reply =
      server.submit(rand_uniform({kChannels, 2 * kSize, 2 * kSize}, in_rng))
          .get();
  EXPECT_EQ(wide_reply.status, serve::ReplyStatus::kOk);
  EXPECT_EQ(wide_reply.model_version, 2u);
}

TEST(Server, MultiWorkerLogitsBitIdenticalToSingleWorker) {
  // The fixed race: telemetry's tap capture used to flip the shared
  // snapshot's train/eval flag, so workers > 1 with telemetry on was
  // rejected at construction. Now every forward is the strictly-const eval
  // path; any worker count must serve memcmp-identical logits whichever
  // worker or micro-batch a request lands on, telemetry on or off.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());

  const int n = 32;
  std::vector<Tensor> inputs;
  for (int i = 0; i < n; ++i) {
    inputs.push_back(sample_input(300 + static_cast<std::uint64_t>(i)));
  }

  // Reference: one worker, telemetry off, singleton batches.
  std::vector<Tensor> reference(n);
  {
    serve::ServeConfig cfg;
    cfg.max_batch = 1;
    cfg.queue_capacity = 64;
    serve::Server server(reg, cfg);
    for (int i = 0; i < n; ++i) {
      reference[static_cast<std::size_t>(i)] =
          server.submit(inputs[static_cast<std::size_t>(i)]).get().logits;
    }
  }

  for (const std::int64_t workers : {2, 4}) {
    for (const std::int64_t sample_every : {0, 3}) {
      serve::ServeConfig cfg;
      cfg.max_batch = 4;
      cfg.deadline_us = 1000;
      cfg.queue_capacity = 64;
      cfg.workers = workers;
      cfg.telemetry.sample_every = sample_every;
      cfg.telemetry.window = 4;  // small window: several re-scores mid-flight
      serve::Server server(reg, cfg);  // no longer throws
      std::vector<std::future<serve::Reply>> futures;
      for (int i = 0; i < n; ++i) {
        futures.push_back(server.submit(inputs[static_cast<std::size_t>(i)]));
      }
      for (int i = 0; i < n; ++i) {
        const auto reply = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(reply.status, serve::ReplyStatus::kOk);
        const Tensor& a = reference[static_cast<std::size_t>(i)];
        const Tensor& b = reply.logits;
        ASSERT_TRUE(a.same_shape(b));
        EXPECT_EQ(
            std::memcmp(a.data().data(), b.data().data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0)
            << "logits differ for request " << i << " (workers=" << workers
            << ", telemetry sample_every=" << sample_every << ")";
      }
    }
  }
}

TEST(Server, HotSwapUnderMultiWorkerLoadServesPublishedVersionsOnly) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape(), "v1");
  serve::ServeConfig cfg = quick_config();
  cfg.workers = 4;
  cfg.telemetry.sample_every = 2;  // exercise concurrent captures too
  cfg.telemetry.window = 4;
  serve::Server server(reg, cfg);

  // Swap races the in-flight burst: with several workers there is no global
  // reply order, so per-request the only guarantees are (a) every request is
  // served OK by a version that was published, and (b) anything submitted
  // after publish() returned is served by the new version.
  std::thread swapper(
      [&reg] { reg.publish(tiny_model(2), sample_shape(), "v2"); });
  std::vector<std::future<serve::Reply>> futures;
  for (int i = 0; i < 48; ++i) {
    futures.push_back(
        server.submit(sample_input(500 + static_cast<std::uint64_t>(i))));
  }
  swapper.join();
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_EQ(r.status, serve::ReplyStatus::kOk);
    EXPECT_GE(r.model_version, 1u);
    EXPECT_LE(r.model_version, 2u);
  }
  const auto after = server.submit(sample_input(999)).get();
  EXPECT_EQ(after.status, serve::ReplyStatus::kOk);
  EXPECT_EQ(after.model_version, 2u);
}

TEST(Server, FromEnvReadsWorkersKnob) {
  ASSERT_EQ(::setenv("IBRAR_SERVE_WORKERS", "3", 1), 0);
  EXPECT_EQ(serve::ServeConfig::from_env().workers, 3);
  ASSERT_EQ(::unsetenv("IBRAR_SERVE_WORKERS"), 0);
  EXPECT_EQ(serve::ServeConfig::from_env().workers, 1);
}

TEST(Server, FromEnvReadsCacheAndAdmissionKnobs) {
  // CI pins IBRAR_SERVE_CACHE_MB per sanitizer step, so save whatever is
  // there, clear it to observe the real defaults, and restore afterwards.
  const char* prior = ::getenv("IBRAR_SERVE_CACHE_MB");
  const std::string saved = prior != nullptr ? prior : "";
  ASSERT_EQ(::unsetenv("IBRAR_SERVE_CACHE_MB"), 0);
  // Deployment default: cache ON at 32 MiB, per-client limits off.
  EXPECT_EQ(serve::ServeConfig::from_env().cache_bytes,
            std::size_t{32} << 20);
  EXPECT_EQ(serve::ServeConfig::from_env().client_rate, 0.0);
  EXPECT_EQ(serve::ServeConfig::from_env().max_inflight_per_client, 0);
  ASSERT_EQ(::setenv("IBRAR_SERVE_CACHE_MB", "0", 1), 0);
  ASSERT_EQ(::setenv("IBRAR_SERVE_CLIENT_RATE", "2.5", 1), 0);
  ASSERT_EQ(::setenv("IBRAR_SERVE_MAX_INFLIGHT", "7", 1), 0);
  const auto cfg = serve::ServeConfig::from_env();
  EXPECT_EQ(cfg.cache_bytes, 0u);  // 0 MiB disables the cache entirely
  EXPECT_DOUBLE_EQ(cfg.client_rate, 2.5);
  EXPECT_EQ(cfg.max_inflight_per_client, 7);
  if (prior != nullptr) {
    ASSERT_EQ(::setenv("IBRAR_SERVE_CACHE_MB", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(::unsetenv("IBRAR_SERVE_CACHE_MB"), 0);
  }
  ASSERT_EQ(::unsetenv("IBRAR_SERVE_CLIENT_RATE"), 0);
  ASSERT_EQ(::unsetenv("IBRAR_SERVE_MAX_INFLIGHT"), 0);
}

TEST(Server, QueueWaitAndComputeSpansTileExactlyWithReplyFields) {
  // Regression for the accounting mismatch: reply.queue_ns used to stop at
  // the compute-start stamp while the queue_wait trace span stopped at batch
  // assembly, so span durations and reply fields disagreed and the stage
  // spans overlapped the compute span. One definition now feeds both: the
  // queue_wait stage ends exactly where compute begins (assemble_end), and
  // the reply fields are exactly the span durations.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());
  obs::clear_trace();
  obs::set_trace_sample_every(1);
  serve::Reply reply;
  {
    serve::Server server(reg, quick_config());
    reply = server.submit(sample_input(42)).get();
  }
  obs::set_trace_sample_every(0);
  ASSERT_EQ(reply.status, serve::ReplyStatus::kOk);

  const obs::SpanRecord* queue_wait = nullptr;
  const obs::SpanRecord* compute = nullptr;
  const auto records = obs::trace_records();
  for (const auto& rec : records) {
    if (std::strcmp(rec.name, "queue_wait") == 0 && rec.corr == 0) {
      queue_wait = &rec;
    }
    if (std::strcmp(rec.name, "compute") == 0 && rec.corr == 0) {
      compute = &rec;
    }
  }
  ASSERT_NE(queue_wait, nullptr);
  ASSERT_NE(compute, nullptr);
  // Stages tile: no gap, no overlap.
  EXPECT_EQ(queue_wait->end_ns, compute->begin_ns);
  // Reply fields are the span durations, same clock, same boundaries.
  EXPECT_EQ(reply.queue_ns, queue_wait->end_ns - queue_wait->begin_ns);
  EXPECT_EQ(reply.compute_ns, compute->end_ns - compute->begin_ns);
}

TEST(Server, QueueDepthGaugeFreshOnRejectionPathsAndZeroAfterShutdown) {
  auto& depth = obs::registry().gauge("serve.queue_depth");
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());
  auto server = std::make_unique<serve::Server>(reg, quick_config());
  for (int i = 0; i < 8; ++i) {
    server->submit(sample_input(static_cast<std::uint64_t>(i))).get();
  }
  server->shutdown();
  // Drained and stopped: the gauge must read the true (empty) depth, not the
  // last accepted push's snapshot.
  EXPECT_EQ(depth.value(), 0.0);
  // Rejection paths refresh the gauge too (pre-fix they left it stale).
  depth.set(42.0);
  const auto late = server->submit(sample_input(99)).get();
  EXPECT_EQ(late.status, serve::ReplyStatus::kRejectedShutdown);
  EXPECT_EQ(depth.value(), 0.0);
}

TEST(Server, TelemetrySamplesEveryKthRequestAndScoresAfterWindow) {
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), sample_shape());
  serve::ServeConfig cfg = quick_config();
  cfg.max_batch = 1;  // keep admission order == completion order
  cfg.telemetry.sample_every = 4;
  cfg.telemetry.window = 8;
  serve::Server server(reg, cfg);

  std::vector<serve::Reply> replies;
  for (int i = 0; i < 33; ++i) {
    replies.push_back(server.submit(sample_input(static_cast<std::uint64_t>(i)))
                          .get());
  }
  std::size_t sampled = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].status, serve::ReplyStatus::kOk);
    if (i % 4 == 0) {
      EXPECT_TRUE(replies[i].telemetry.sampled) << "request " << i;
      ++sampled;
    } else {
      EXPECT_FALSE(replies[i].telemetry.sampled) << "request " << i;
    }
  }
  EXPECT_EQ(sampled, 9u);  // indices 0, 4, ..., 32
  EXPECT_EQ(server.stats().counters.at("serve.telemetry.samples"), 9u);
  // The 8th sample (request 28) filled the first window: scores exist from
  // then on, and suspicion becomes a valid [0, 1] energy fraction.
  EXPECT_EQ(server.monitor().score_epoch(), 1u);
  EXPECT_EQ(server.monitor().channel_scores().size(),
            static_cast<std::size_t>(tiny_model(1)->last_conv_channels()));
  EXPECT_LT(replies[24].telemetry.suspicion, 0.0f);  // before the window
  EXPECT_GE(replies[28].telemetry.suspicion, 0.0f);  // window just completed
  EXPECT_LE(replies[28].telemetry.suspicion, 1.0f);
  EXPECT_EQ(replies[28].telemetry.score_epoch, 1u);
  EXPECT_GE(replies[32].telemetry.suspicion, 0.0f);
}

// ---- telemetry from the batch's own forward (conv model) --------------------

constexpr std::int64_t kVggConvs = 10;  // 5 blocks x 2 convs (models/vgg.hpp)

models::TapClassifierPtr conv_model() {
  models::ModelSpec spec;  // vgg16, 3 x 16 x 16
  spec.num_classes = kClasses;
  Rng rng(7);
  return models::make_model(spec, rng);
}

std::vector<Tensor> conv_inputs(int n) {
  std::vector<Tensor> inputs;
  for (int i = 0; i < n; ++i) {
    Rng rng(700 + static_cast<std::uint64_t>(i));
    inputs.push_back(rand_uniform({3, 16, 16}, rng, 0.0f, 1.0f));
  }
  return inputs;
}

serve::TelemetryConfig conv_telemetry(std::int64_t sample_every) {
  serve::TelemetryConfig t;
  t.sample_every = sample_every;
  t.window = 4;
  return t;
}

struct ConvRun {
  std::vector<serve::Reply> replies;
  std::vector<float> scores;
  obs::MetricsSnapshot stats;
};

// One worker, every request submitted up front: with max_batch > 1 the burst
// coalesces under the long deadline, and the monitor still observes sampled
// rows in admission order.
ConvRun run_conv_burst(serve::ModelRegistry& reg,
                       const std::vector<Tensor>& inputs,
                       std::int64_t max_batch, std::int64_t sample_every) {
  serve::ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.deadline_us = 50'000;
  cfg.queue_capacity = 64;
  cfg.telemetry = conv_telemetry(sample_every);
  serve::Server server(reg, cfg);
  std::vector<std::future<serve::Reply>> futures;
  for (const auto& x : inputs) futures.push_back(server.submit(x));
  ConvRun run;
  for (auto& f : futures) run.replies.push_back(f.get());
  server.shutdown();
  run.scores = server.monitor().channel_scores();
  run.stats = server.stats();
  return run;
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Server, ConvTelemetryFromBatchTapsMatchesSingletonAndCaptureOracle) {
  serve::ModelRegistry reg;
  reg.publish(conv_model(), {3, 16, 16});
  const int n = 32;
  const auto inputs = conv_inputs(n);

  const ConvRun single = run_conv_burst(reg, inputs, 1, 2);
  const ConvRun batched = run_conv_burst(reg, inputs, 8, 2);
  EXPECT_GT(batched.stats.counters.at("serve.served"),
            batched.stats.counters.at("serve.batches"));  // rows shared a batch

  // Oracle: the pre-batch-tap server path — a batch-1 capture_taps forward
  // per sampled request, fed to a monitor in admission order.
  serve::RobustnessMonitor oracle(conv_telemetry(2));
  const auto snap = reg.current();
  const std::int64_t channels = snap->model->last_conv_channels();
  for (int i = 0; i < n; ++i) {
    const auto& s = single.replies[static_cast<std::size_t>(i)];
    const auto& b = batched.replies[static_cast<std::size_t>(i)];
    ASSERT_EQ(s.status, serve::ReplyStatus::kOk);
    ASSERT_EQ(b.status, serve::ReplyStatus::kOk);
    serve::RequestTelemetry want;
    if (i % 2 == 0) {
      data::Dataset one;
      one.images = inputs[static_cast<std::size_t>(i)].reshape({1, 3, 16, 16});
      one.labels = {0};
      one.num_classes = kClasses;
      const auto dump = analysis::capture_taps(
          *snap->model, one, /*max_samples=*/-1, /*batch=*/1,
          {snap->model->last_conv_tap_index()});
      ASSERT_EQ(dump.preds[0], b.argmax);
      want = oracle.observe(dump.taps[0].data().data(), channels,
                            dump.taps[0].dim(1) / channels, dump.preds[0],
                            kClasses);
    }
    for (const auto* got : {&s, &b}) {
      EXPECT_EQ(got->telemetry.sampled, want.sampled) << "request " << i;
      EXPECT_TRUE(same_bits(got->telemetry.suspicion, want.suspicion))
          << "request " << i << ": " << got->telemetry.suspicion << " vs "
          << want.suspicion;
      EXPECT_EQ(got->telemetry.score_epoch, want.score_epoch)
          << "request " << i;
    }
    EXPECT_EQ(std::memcmp(s.logits.data().data(), b.logits.data().data(),
                          sizeof(float) * static_cast<std::size_t>(kClasses)),
              0)
        << "request " << i;
  }
  // 16 samples, window 4: four re-scores, so most suspicions were live.
  EXPECT_EQ(oracle.score_epoch(), 4u);
  const auto want_scores = oracle.channel_scores();
  ASSERT_EQ(want_scores.size(), static_cast<std::size_t>(channels));
  for (const auto* got : {&single.scores, &batched.scores}) {
    ASSERT_EQ(got->size(), want_scores.size());
    EXPECT_EQ(std::memcmp(got->data(), want_scores.data(),
                          sizeof(float) * want_scores.size()),
              0);
  }
}

TEST(Server, TelemetryRunsNoForwardOfItsOwn) {
  // Every conv call in a served batch belongs to that batch's one forward:
  // with telemetry sampling every 2nd request the count must stay exactly
  // kVggConvs per batch, as with telemetry off. The profiled site is the
  // fused plan, or the layer-by-layer conv when IBRAR_EVAL_FUSED=0.
  serve::ModelRegistry reg;
  reg.publish(conv_model(), {3, 16, 16});
  const char* site = reg.current()->model->fused_eval_ready()
                         ? "tensor/conv_eval/fused"
                         : "tensor/conv2d";
  const auto inputs = conv_inputs(32);
  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling_enabled(true);
  for (const std::int64_t sample_every : {0, 2}) {
    obs::reset_profile();
    const ConvRun run = run_conv_burst(reg, inputs, 8, sample_every);
    std::uint64_t calls = 0;
    for (const auto& e : obs::profile_table()) {
      if (e.name == site) calls = e.calls;
    }
    const std::uint64_t batches = run.stats.counters.at("serve.batches");
    EXPECT_EQ(run.stats.counters.at("serve.telemetry.samples"),
              sample_every == 0 ? 0u : 16u);
    EXPECT_GT(batches, 0u);
    EXPECT_EQ(calls, static_cast<std::uint64_t>(kVggConvs) * batches)
        << site << " with telemetry sample_every=" << sample_every;
  }
  obs::set_profiling_enabled(was_profiling);
}

}  // namespace
}  // namespace ibrar
