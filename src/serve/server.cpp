#include "serve/server.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "autograd/var.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "tensor/reduce.hpp"
#include "util/env.hpp"

namespace ibrar::serve {

using obs::now_ns;

ServeConfig ServeConfig::from_env() {
  ServeConfig cfg;
  cfg.max_batch = env::get_int("IBRAR_SERVE_MAX_BATCH", 8);
  cfg.deadline_us = env::get_int("IBRAR_SERVE_DEADLINE_US", 2000);
  cfg.queue_capacity = env::get_int("IBRAR_SERVE_QUEUE_CAP", 256);
  cfg.workers = env::get_int("IBRAR_SERVE_WORKERS", 1);
  // Deployment-facing default: the duplicate-request cache is ON. Safe to
  // default because hits are memcmp-identical to recomputes by contract.
  const long cache_mb =
      std::max(0L, env::get_int("IBRAR_SERVE_CACHE_MB", 32));
  cfg.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  cfg.client_rate = env::get_double("IBRAR_SERVE_CLIENT_RATE", 0.0);
  cfg.client_burst = env::get_double("IBRAR_SERVE_CLIENT_BURST", 0.0);
  cfg.max_inflight_per_client = env::get_int("IBRAR_SERVE_MAX_INFLIGHT", 0);
  cfg.telemetry.ewma = env::get_int("IBRAR_SERVE_TELEMETRY_EWMA", 0) != 0;
  cfg.telemetry.ewma_decay = static_cast<float>(
      env::get_double("IBRAR_SERVE_TELEMETRY_EWMA_DECAY", 0.5));
  return cfg;
}

Server::Server(ModelRegistry& registry, ServeConfig cfg)
    : registry_(registry),
      cfg_([&] {
        cfg.max_batch = std::max<std::int64_t>(cfg.max_batch, 1);
        cfg.deadline_us = std::max<std::int64_t>(cfg.deadline_us, 0);
        cfg.queue_capacity = std::max<std::int64_t>(cfg.queue_capacity, 1);
        cfg.workers = std::max<std::int64_t>(cfg.workers, 1);
        return cfg;
      }()),
      queue_(static_cast<std::size_t>(cfg_.queue_capacity)),
      monitor_(cfg_.telemetry),
      cache_(ReplyCacheConfig{cfg_.cache_bytes, /*shards=*/8}),
      admission_(AdmissionConfig{cfg_.client_rate, cfg_.client_burst,
                                 cfg_.max_inflight_per_client}),
      c_accepted_(obs::registry().counter("serve.accepted")),
      c_rejected_full_(obs::registry().counter("serve.rejected_full")),
      c_rejected_shutdown_(obs::registry().counter("serve.rejected_shutdown")),
      c_rejected_stale_(obs::registry().counter("serve.rejected_stale")),
      c_served_(obs::registry().counter("serve.served")),
      c_batches_(obs::registry().counter("serve.batches")),
      c_size_triggers_(obs::registry().counter("serve.trigger.size")),
      c_deadline_triggers_(obs::registry().counter("serve.trigger.deadline")),
      c_drain_triggers_(obs::registry().counter("serve.trigger.drain")),
      c_telemetry_samples_(obs::registry().counter("serve.telemetry.samples")),
      c_admission_busy_(obs::registry().counter("serve.admission.busy")),
      c_admission_throttled_(
          obs::registry().counter("serve.admission.throttled")),
      h_retry_after_ms_(
          obs::registry().histogram("serve.admission.retry_after_ms")),
      g_queue_depth_(obs::registry().gauge("serve.queue_depth")),
      g_drift_state_(obs::registry().gauge("serve.telemetry.drift_state")),
      g_batch_max_(obs::registry().gauge("serve.batch_max")),
      h_queue_wait_ns_(obs::registry().histogram("serve.queue_wait_ns")),
      h_compute_ns_(obs::registry().histogram("serve.compute_ns")),
      h_batch_occupancy_(obs::registry().histogram("serve.batch_occupancy")),
      h_suspicion_(obs::registry().histogram("serve.suspicion")) {
  if (!registry_.current()) {
    throw std::invalid_argument(
        "serve::Server: registry has no published model");
  }
  // Any workers/telemetry combination is safe: snapshots are
  // shared_ptr<const TapClassifier>, so the serving forward (whose taps also
  // feed telemetry) can only take the strictly-const eval path.
  base_ = obs::registry().snapshot();
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (std::int64_t w = 0; w < cfg_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  if (stopped_.exchange(true)) {
    return;  // a second caller must not re-join the workers
  }
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // The workers have drained every accepted request; pin the gauge to the
  // true (empty) depth so dashboards never show a stale residue after stop.
  g_queue_depth_.set(0.0);
  // Same freshness contract for the cache: dropping every entry walks
  // serve.cache.bytes back down by exactly this server's contribution, so
  // the gauge reads 0 after shutdown (gated in test_reply_cache).
  cache_.clear();
}

void Server::fail_request(Request& r, Reply reply) {
  if (r.cache_leader) {
    // Joiners piled onto this request's in-flight entry get the same
    // rejection — they were dedup'd onto a compute that never happened.
    cache_.abort(r.cache_hash, r.cache_version, reply);
  }
  r.promise.set_value(std::move(reply));
}

std::future<Reply> Server::submit(Tensor input, std::uint64_t client_id) {
  const std::int64_t t_submit = now_ns();
  const auto snap = registry_.current();
  // Accept (C, H, W) or (1, C, H, W); anything else is a caller bug, not
  // load, so it throws instead of consuming queue capacity.
  Shape per_sample = input.shape();
  if (per_sample.size() == 4 && per_sample[0] == 1) {
    per_sample.erase(per_sample.begin());
    input = input.reshape(per_sample);
  }
  if (per_sample != snap->input_shape) {
    throw std::invalid_argument("serve::Server::submit: input shape " +
                                shape_str(input.shape()) +
                                " does not match the published model's " +
                                shape_str(snap->input_shape));
  }

  Request r;
  r.input = std::move(input);
  r.client_id = client_id;
  r.enqueue_ns = now_ns();
  // r.index is assigned by the queue on admission, so the telemetry and trace
  // cadences are over accepted traffic (rejections never consume a sequence
  // number).
  std::future<Reply> fut = r.promise.get_future();

  // Duplicate-request cache, BEFORE admission: hits and in-flight joins are
  // served without compute, so they consume no queue capacity and no
  // admission tokens. The nfs_dupreq flow — answer from the cache, join the
  // in-flight twin, or become the leader that computes for everyone.
  if (cache_.enabled()) {
    cache_.on_version(snap->version);
    const std::uint64_t h = ReplyCache::hash_input(r.input);
    auto lk = cache_.lookup_or_join(h, r.input, snap->version, r.promise);
    switch (lk.outcome) {
      case ReplyCache::Outcome::kHit:
        r.promise.set_value(std::move(lk.reply));
        return fut;
      case ReplyCache::Outcome::kJoined:
        return fut;  // the promise now rides the leader's compute
      case ReplyCache::Outcome::kLeader:
        r.cache_leader = true;
        r.cache_hash = h;
        r.cache_version = snap->version;
        break;
      case ReplyCache::Outcome::kBypass:
        break;
    }
  }

  // Per-client fairness: one client over its token rate or in-flight cap is
  // told when to come back; everyone else is untouched.
  if (admission_.enabled()) {
    const auto dec = admission_.try_admit(client_id, r.enqueue_ns);
    if (!dec.admit) {
      c_admission_throttled_.inc();
      h_retry_after_ms_.observe(static_cast<double>(dec.retry_after_ms));
      Reply reply;
      reply.status = ReplyStatus::kBusyRetryAfter;
      reply.retry_after_ms = dec.retry_after_ms;
      reply.model_version = snap->version;
      fail_request(r, std::move(reply));
      return fut;
    }
  }

  switch (queue_.push(r)) {
    case PushStatus::kAccepted:
      c_accepted_.inc();
      g_queue_depth_.set(static_cast<double>(queue_.size()));
      // Scalar members survive the queue's move-from, so the admitted index
      // is still readable here.
      if (obs::trace_should_sample(r.index)) {
        obs::record_span("admission", t_submit, now_ns(), r.index);
      }
      break;
    case PushStatus::kFull: {
      c_rejected_full_.inc();
      admission_.release(client_id);  // the in-flight slot was never used
      // Refresh the depth gauge on rejection too: under sustained overload
      // every push can be rejected, and the gauge would otherwise freeze at
      // whatever the last accepted push recorded.
      g_queue_depth_.set(static_cast<double>(queue_.size()));
      // CUPS-style busy: say WHEN to come back — roughly how long the
      // backlog ahead takes to drain at the measured service rate.
      Reply reply;
      reply.status = ReplyStatus::kBusyRetryAfter;
      reply.retry_after_ms = admission_.retry_after_ms(queue_.size());
      reply.model_version = snap->version;
      c_admission_busy_.inc();
      h_retry_after_ms_.observe(static_cast<double>(reply.retry_after_ms));
      fail_request(r, std::move(reply));
      break;
    }
    case PushStatus::kClosed: {
      c_rejected_shutdown_.inc();
      admission_.release(client_id);
      g_queue_depth_.set(static_cast<double>(queue_.size()));
      Reply reply;
      reply.status = ReplyStatus::kRejectedShutdown;
      reply.model_version = snap->version;
      fail_request(r, std::move(reply));
      break;
    }
  }
  return fut;
}

void Server::worker_loop() {
  // Serving never builds autograd graphs; the guard is thread_local, so each
  // worker sets its own.
  ag::NoGradGuard ng;
  Batcher batcher(queue_, cfg_.max_batch, cfg_.deadline_us);
  MicroBatch batch;
  while (batcher.next(batch)) {
    serve_batch(batch);
  }
}

void Server::serve_batch(MicroBatch& batch) {
  // The snapshot is pinned for exactly this batch: a concurrent publish swaps
  // the registry pointer but cannot unload the model under us.
  const auto snap = registry_.current();
  const auto& chw = snap->input_shape;
  g_queue_depth_.set(static_cast<double>(queue_.size()));

  // Requests were shape-validated at submit time against the snapshot live
  // THEN; a hot-swap to a different input layout can leave stale rows in the
  // queue. They must not reach the memcpy below (reading `row` floats from a
  // smaller tensor would run off its heap buffer), so they are failed here
  // with their own status and the batch proceeds with the matching rows.
  std::vector<Request> live;
  live.reserve(batch.requests.size());
  for (auto& req : batch.requests) {
    if (req.input.shape() == chw) {
      live.push_back(std::move(req));
    } else {
      Reply reply;
      reply.status = ReplyStatus::kRejectedStaleShape;
      reply.model_version = snap->version;
      c_rejected_stale_.inc();
      if (req.cache_leader) {
        cache_.abort(req.cache_hash, req.cache_version, reply);
      }
      admission_.release(req.client_id);
      req.promise.set_value(std::move(reply));
    }
  }
  if (live.empty()) return;
  const std::int64_t bsz = static_cast<std::int64_t>(live.size());
  const std::int64_t row = chw[0] * chw[1] * chw[2];

  // One trace decision per batch: batch-level spans (batch_assembly,
  // compute) are emitted when any rider is sampled, correlated to the first
  // sampled rider's admission index.
  bool traced_batch = false;
  std::uint64_t trace_corr = 0;
  for (const auto& req : live) {
    if (obs::trace_should_sample(req.index)) {
      traced_batch = true;
      trace_corr = req.index;
      break;
    }
  }
  if (traced_batch) {
    obs::record_span("batch_assembly", batch.assemble_begin_ns,
                     batch.assemble_end_ns, trace_corr);
    for (const auto& req : live) {
      if (obs::trace_should_sample(req.index)) {
        obs::record_span("queue_wait", req.enqueue_ns, batch.assemble_end_ns,
                         req.index);
      }
    }
  }

  Tensor x({bsz, chw[0], chw[1], chw[2]});
  for (std::int64_t i = 0; i < bsz; ++i) {
    std::memcpy(x.data().data() + i * row,
                live[static_cast<std::size_t>(i)].input.data().data(),
                sizeof(float) * static_cast<std::size_t>(row));
  }
  // One forward serves both the replies and telemetry: sampled rows read
  // their last-conv tap straight out of this batch's taps, which are
  // bit-identical to a batch-1 forward of the same row by contract.
  const auto out = snap->model->eval_forward_with_taps(ag::Var::constant(x));
  const Tensor& logits = out.logits.value();
  const std::int64_t t1 = now_ns();
  // Stage boundaries tile exactly: queue_wait covers enqueue ->
  // assemble_end, compute covers assemble_end -> logits-ready (row staging
  // included). The SAME boundaries feed reply.queue_ns / reply.compute_ns,
  // the latency histograms, and the trace spans, so per-request timings and
  // spans always add up with no gap and no overlap (gated by the
  // QueueWaitAndComputeTileExactly test).
  const std::int64_t compute_ns = t1 - batch.assemble_end_ns;
  if (traced_batch) {
    obs::record_span("compute", batch.assemble_end_ns, t1, trace_corr);
  }
  // Feed the service-rate EWMA the busy retry-after hints are derived from.
  admission_.note_batch(bsz, t1);
  const auto preds = argmax_rows(logits);
  const std::int64_t nc = logits.dim(1);

  c_batches_.inc();
  c_served_.inc(static_cast<std::uint64_t>(bsz));
  h_compute_ns_.observe(static_cast<double>(compute_ns));
  h_batch_occupancy_.observe(static_cast<double>(bsz));
  g_batch_max_.set_max(static_cast<double>(bsz));
  switch (batch.trigger) {
    case BatchTrigger::kSize:
      c_size_triggers_.inc();
      break;
    case BatchTrigger::kDeadline:
      c_deadline_triggers_.inc();
      break;
    case BatchTrigger::kDrain:
      c_drain_triggers_.inc();
      break;
  }

  for (std::int64_t i = 0; i < bsz; ++i) {
    Request& req = live[static_cast<std::size_t>(i)];
    const bool traced_req = traced_batch && obs::trace_should_sample(req.index);
    Reply reply;
    reply.status = ReplyStatus::kOk;
    reply.logits = Tensor({nc});
    std::memcpy(reply.logits.data().data(), logits.data().data() + i * nc,
                sizeof(float) * static_cast<std::size_t>(nc));
    reply.argmax = preds[static_cast<std::size_t>(i)];
    reply.model_version = snap->version;
    reply.queue_ns = batch.assemble_end_ns - req.enqueue_ns;
    reply.compute_ns = compute_ns;
    reply.batch_size = bsz;
    reply.trigger = batch.trigger;
    h_queue_wait_ns_.observe(static_cast<double>(reply.queue_ns));

    if (monitor_.should_sample(req.index)) {
      obs::Span rescore_span("telemetry_rescore", traced_req, req.index);
      const Tensor& tap = out.taps[snap->model->last_conv_tap_index()].value();
      const std::int64_t width = tap.numel() / bsz;
      const std::int64_t channels = snap->model->last_conv_channels();
      reply.telemetry = monitor_.observe(tap.data().data() + i * width,
                                         channels, width / channels,
                                         reply.argmax, snap->num_classes);
      c_telemetry_samples_.inc();
      if (reply.telemetry.suspicion >= 0.0f) {
        h_suspicion_.observe(static_cast<double>(reply.telemetry.suspicion));
      }
      // Mirror the control-band verdict where dashboards and SLOs can see
      // it. Sampled-path only, so the cost is one short monitor lock per
      // Kth request.
      g_drift_state_.set(static_cast<double>(monitor_.drift_state()));
    }
    // Cache completion BEFORE resolving the leader's own promise: fan the
    // reply to every in-flight joiner and store it for future hits (the
    // cache normalizes + copies; the leader keeps this Reply intact).
    if (req.cache_leader) {
      cache_.complete(req.cache_hash, req.cache_version, reply);
    }
    admission_.release(req.client_id);
    {
      obs::Span reply_span("reply", traced_req, req.index);
      req.promise.set_value(std::move(reply));
    }
  }
}

obs::MetricsSnapshot Server::stats() const {
  return obs::registry().snapshot().since(base_);
}

}  // namespace ibrar::serve
