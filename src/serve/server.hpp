#pragma once
// The inference serving façade: queue -> batcher -> workers -> futures.
//
// Server turns the run-to-completion library into an always-on runtime:
// clients submit single samples and get std::future<Reply>; a bounded MPMC
// queue applies admission control (reject-with-status under overload);
// cfg.workers worker threads each run their own dual-trigger Batcher over the
// shared queue, so micro-batches assemble and forward concurrently (the
// nfs-ganesha dispatcher/worker split); the versioned ModelRegistry supplies
// an immutable snapshot per batch, so checkpoints hot-swap under live traffic
// while in-flight batches finish on the version they grabbed. Every Kth
// request optionally flows through the robustness telemetry
// (serve/telemetry.hpp), which reads the sampled row's last-conv tap from
// the batch's own forward — safe at any worker count because that forward
// rides the snapshot's strictly-const eval path (no mode flips, no shared
// mutable state; see serve/model_registry.hpp). Bit-identity contract: a request's logits are
// memcmp-identical whichever worker or micro-batch serves it, telemetry on or
// off — gated in tests/test_serve.cpp and bench_serve.
//
// A TCP front-end for out-of-process clients lives in serve/net/ (deep-
// backlog listener, length-prefixed framing, client helper); it feeds this
// same queue through submit().
//
// Duplicate-request reply cache (serve/reply_cache.hpp): when
// cfg.cache_bytes > 0, submit() hashes the input bytes and looks up
// (hash, snapshot version) BEFORE admission — a hit answers instantly with
// logits memcmp-identical to a recompute, concurrent identical requests join
// one in-flight compute, and a hot-swap invalidates stale versions. Cache
// hits consume no queue capacity and no admission tokens (they cost no
// compute).
//
// Admission control (serve/admission.hpp): per-client token buckets and
// in-flight caps keyed on the client id (0 for in-process callers without
// one), plus busy-instead-of-reject — a full queue answers kBusyRetryAfter
// carrying a retry-after hint computed from queue depth / measured service
// rate.
//
// Observability (src/obs): the server records into the process-global
// obs::registry() — serve.* counters for admission/trigger/telemetry events,
// serve.cache.{lookups,hits,misses,inflight_joins,evictions,invalidations}
// with the serve.cache.bytes / serve.cache.budget_bytes gauges,
// serve.admission.{busy,throttled} with the serve.admission.retry_after_ms
// histogram, serve.queue_depth / serve.batch_max gauges, and latency
// histograms serve.queue_wait_ns / serve.compute_ns / serve.batch_occupancy /
// serve.suspicion (full name table in README). Replies and trace spans
// carry the serving model version. When request tracing is on
// (IBRAR_OBS_TRACE_SAMPLE=K), every Kth admitted request emits the span chain
// admission -> queue_wait -> batch_assembly -> compute -> telemetry_rescore ->
// reply, exportable via obs::dump_trace(). Observation never changes
// computation: logits are bit-identical with every knob on or off.
//
// Environment knobs (defaults in ServeConfig::from_env):
//   IBRAR_SERVE_MAX_BATCH    micro-batch row cap            (default 8)
//   IBRAR_SERVE_DEADLINE_US  batch assembly deadline, us    (default 2000)
//   IBRAR_SERVE_QUEUE_CAP    admission queue capacity       (default 256)
//   IBRAR_SERVE_WORKERS      worker threads over the queue  (default 1)
//   IBRAR_SERVE_CACHE_MB     reply cache budget, MiB        (default 32; 0 off)
//   IBRAR_SERVE_CLIENT_RATE  per-client tokens/sec          (default 0 = off)
//   IBRAR_SERVE_CLIENT_BURST token bucket depth             (default derived)
//   IBRAR_SERVE_MAX_INFLIGHT per-client in-flight cap       (default 0 = off)
//   IBRAR_OBS_TRACE_SAMPLE   trace every Kth request        (default 0 = off)
//
// Shutdown is graceful: shutdown() (or the destructor) closes the queue, the
// workers drain every already-accepted request, then exit. Submissions after
// shutdown complete immediately with kRejectedShutdown.

#include <atomic>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/reply_cache.hpp"
#include "serve/request_queue.hpp"
#include "serve/telemetry.hpp"

namespace ibrar::serve {

struct ServeConfig {
  std::int64_t max_batch = 8;
  std::int64_t deadline_us = 2000;
  std::int64_t queue_capacity = 256;
  /// Worker threads running batch forwards over the shared queue. One worker
  /// maximizes per-batch kernel parallelism (the thread pool inside the
  /// tensor kernels); more workers overlap batch assembly with compute and
  /// lift throughput when forwards are short or the pool is under-utilized.
  /// Safe with telemetry at any count — forwards are strictly const.
  std::int64_t workers = 1;
  TelemetryConfig telemetry;  ///< telemetry.sample_every == 0 -> off
  /// Reply-cache byte budget; 0 disables caching. The programmatic default
  /// is OFF (a library user opts in); from_env() defaults it ON at 32 MiB —
  /// the deployment-facing default, overridable with IBRAR_SERVE_CACHE_MB.
  std::size_t cache_bytes = 0;
  /// Per-client token-bucket rate, requests/sec; 0 = unlimited.
  double client_rate = 0.0;
  /// Token bucket depth; <= 0 derives max(client_rate, 1).
  double client_burst = 0.0;
  /// Per-client in-flight cap; 0 = unlimited.
  std::int64_t max_inflight_per_client = 0;

  /// Defaults overridden by IBRAR_SERVE_MAX_BATCH / _DEADLINE_US /
  /// _QUEUE_CAP / _WORKERS / _CACHE_MB / _CLIENT_RATE / _CLIENT_BURST /
  /// _MAX_INFLIGHT.
  static ServeConfig from_env();
};

class Server {
 public:
  /// The registry must already have a published version; throws otherwise.
  Server(ModelRegistry& registry, ServeConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit one sample — (C, H, W) matching the current snapshot's input
  /// shape (a leading batch dim of 1 is accepted and squeezed). Returns a
  /// future that resolves to the reply; under backpressure or shutdown the
  /// future is already resolved with the rejection status. Throws
  /// std::invalid_argument for a shape the current model cannot take.
  /// `client_id` feeds per-client admission fairness (the TCP front-end
  /// passes the wire frame's id; in-process callers may share the default 0).
  std::future<Reply> submit(Tensor input, std::uint64_t client_id = 0);

  /// Stop admission, drain accepted requests, join workers. Idempotent.
  void shutdown();

  /// This server's traffic: the obs::registry() snapshot minus the one
  /// taken at construction (MetricsSnapshot::since), so counters and
  /// histograms are per-server deltas even though the registry is cumulative
  /// across instances; gauges are process-wide levels. Exact across metrics
  /// once the server is quiescent (drained or shut down).
  obs::MetricsSnapshot stats() const;
  const ServeConfig& config() const { return cfg_; }
  RobustnessMonitor& monitor() { return monitor_; }
  ReplyCache& cache() { return cache_; }
  AdmissionController& admission() { return admission_; }

 private:
  void worker_loop();
  void serve_batch(MicroBatch& batch);
  /// Resolve a request rejected before the queue: aborts its cache
  /// leadership (fanning `reply` to any joiners) and fails its promise.
  void fail_request(Request& r, Reply reply);

  ModelRegistry& registry_;
  ServeConfig cfg_;
  RequestQueue queue_;
  RobustnessMonitor monitor_;
  ReplyCache cache_;
  AdmissionController admission_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};

  // Stable handles into obs::registry(), resolved once at construction so
  // the serving hot path never takes the registry lock.
  obs::Counter& c_accepted_;
  obs::Counter& c_rejected_full_;
  obs::Counter& c_rejected_shutdown_;
  obs::Counter& c_rejected_stale_;
  obs::Counter& c_served_;
  obs::Counter& c_batches_;
  obs::Counter& c_size_triggers_;
  obs::Counter& c_deadline_triggers_;
  obs::Counter& c_drain_triggers_;
  obs::Counter& c_telemetry_samples_;
  obs::Counter& c_admission_busy_;
  obs::Counter& c_admission_throttled_;
  obs::Histogram& h_retry_after_ms_;
  obs::Gauge& g_queue_depth_;
  obs::Gauge& g_drift_state_;
  obs::Gauge& g_batch_max_;
  obs::Histogram& h_queue_wait_ns_;
  obs::Histogram& h_compute_ns_;
  obs::Histogram& h_batch_occupancy_;
  obs::Histogram& h_suspicion_;

  /// Registry values at construction — the baseline stats() subtracts.
  obs::MetricsSnapshot base_;
};

}  // namespace ibrar::serve
