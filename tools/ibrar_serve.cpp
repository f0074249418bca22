// ibrar_serve — always-on inference serving demo over the synthetic benchmarks.
//
// Trains one model (CE by default; IBRAR_EPOCHS scales it), publishes it into
// a versioned ModelRegistry, and drives closed-loop client threads through
// the micro-batching Server. Optionally:
//
//   * --adv F       replaces fraction F of the traffic with PGD-perturbed
//                   inputs, so the per-request robustness telemetry has
//                   something to flag — the summary splits mean suspicion by
//                   clean vs adversarial traffic (the paper's Eq. 3 channel
//                   signal, online);
//   * --swap        demonstrates hot reload: halfway through the run the
//                   current weights are checkpointed to disk and republished
//                   through publish_checkpoint (version 2) while clients keep
//                   submitting — replies report which version served them;
//   * --telemetry K sampling cadence (default 4; 0 disables);
//   * --stats-every N emits one JSON-lines metric snapshot (the full
//                   obs::registry() state: serve.* counters, gauges,
//                   histogram percentiles) every N ms to --stats-out
//                   (default serve_stats.jsonl), plus a final snapshot at
//                   shutdown — the stream tools/check_serve_stats.py
//                   validates in CI;
//   * --trace FILE  dumps the request-trace ring buffers as chrome://tracing
//                   JSON at exit (enables sampling at every 8th request if
//                   IBRAR_OBS_TRACE_SAMPLE didn't already);
//   * --listen PORT starts the TCP front-end (serve/net) on 127.0.0.1:PORT
//                   (0 picks an ephemeral port, printed at startup) and
//                   drives the demo traffic THROUGH the socket — one
//                   net::Client connection per client thread — instead of
//                   in-process futures, so the run exercises framing,
//                   pipelining, and the listener end to end;
//   * --cache-mb N  reply-cache byte budget in MiB (overrides
//                   IBRAR_SERVE_CACHE_MB; 0 disables). Each client thread
//                   submits under its own client id, and the summary reports
//                   hit/miss/join/eviction counts and the resident bytes;
//   * --client-rate R / --max-inflight-per-client N per-client admission
//                   control (overrides IBRAR_SERVE_CLIENT_RATE /
//                   IBRAR_SERVE_MAX_INFLIGHT); throttled requests come back
//                   kBusyRetryAfter with a retry hint and are counted in the
//                   summary as rejected;
//   * --admin-port P starts the read-only HTTP admin endpoint on
//                   127.0.0.1:P (0 = ephemeral): GET /metrics (Prometheus
//                   text exposition), /slo, /timeseries[?name=...],
//                   /registry, /profile — and implies the time-series
//                   sampler + default SLO monitors (250ms cadence unless
//                   IBRAR_OBS_TS_INTERVAL_MS says otherwise);
//   * --admin-linger MS holds the admin endpoint open for MS after the
//                   drain so an external scraper (CI) can read the final
//                   quiescent /metrics + /slo deterministically;
//   * --profile-out F writes obs::profile_to_json() to F at exit (implies
//                   IBRAR_OBS_PROFILE=1).
//
// Server shape comes from the standard env knobs: IBRAR_SERVE_MAX_BATCH,
// IBRAR_SERVE_DEADLINE_US, IBRAR_SERVE_QUEUE_CAP, IBRAR_SERVE_WORKERS,
// IBRAR_SERVE_CACHE_MB, IBRAR_SERVE_CLIENT_RATE, IBRAR_SERVE_CLIENT_BURST,
// IBRAR_SERVE_MAX_INFLIGHT; IBRAR_OBS_PROFILE=1 prints the per-kernel
// profile table at exit. Results are printed and recorded to an
// ibrar-bench-v1 JSON (--out, default SERVE.json).
//
//   ./ibrar_serve --model vgg16 --requests 2000 --clients 8 --adv 0.5
//                 --swap --stats-every 250 --trace serve_trace.json
//   IBRAR_SERVE_WORKERS=4 ./ibrar_serve --listen 0 --requests 2000

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attacks/pgd.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/net/admin.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/model_registry.hpp"
#include "serve/net/client.hpp"
#include "serve/net/listener.hpp"
#include "serve/server.hpp"

using namespace ibrar;
using namespace ibrar::bench;

namespace {

struct SuspicionStat {
  double sum = 0.0;
  std::int64_t n = 0;
  void add(float v) {
    sum += v;
    ++n;
  }
  double mean() const { return n > 0 ? sum / static_cast<double>(n) : -1.0; }
};

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "synth-cifar10";
  std::string model_name = "vgg16";
  std::string out_path = env::get_string("IBRAR_BENCH_OUT", "SERVE.json");
  std::int64_t requests = 1000;
  std::int64_t clients = 8;
  std::int64_t telemetry_every = 4;
  std::int64_t stats_every_ms = 0;
  std::string stats_out = "serve_stats.jsonl";
  std::string trace_path;
  double adv_fraction = 0.0;
  bool swap_mid_run = false;
  std::int64_t listen_port = -1;  // -1 = in-process futures (no socket)
  std::int64_t admin_port = -1;   // -1 = no admin endpoint
  std::int64_t admin_linger_ms = 0;  // hold admin open after drain (CI scrape)
  std::string profile_out;        // empty = no JSON profile dump
  std::int64_t cache_mb = -1;     // -1 = keep the IBRAR_SERVE_CACHE_MB default
  double client_rate = -1.0;      // -1 = keep IBRAR_SERVE_CLIENT_RATE
  std::int64_t max_inflight = -1; // -1 = keep IBRAR_SERVE_MAX_INFLIGHT
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dataset") dataset = next();
    else if (arg == "--model") model_name = next();
    else if (arg == "--requests") requests = std::stoll(next());
    else if (arg == "--clients") clients = std::stoll(next());
    else if (arg == "--telemetry") telemetry_every = std::stoll(next());
    else if (arg == "--adv") adv_fraction = std::stod(next());
    else if (arg == "--swap") swap_mid_run = true;
    else if (arg == "--out") out_path = next();
    else if (arg == "--stats-every") stats_every_ms = std::stoll(next());
    else if (arg == "--stats-out") stats_out = next();
    else if (arg == "--trace") trace_path = next();
    else if (arg == "--listen") listen_port = std::stoll(next());
    else if (arg == "--admin-port") admin_port = std::stoll(next());
    else if (arg == "--admin-linger") admin_linger_ms = std::stoll(next());
    else if (arg == "--profile-out") profile_out = next();
    else if (arg == "--cache-mb") cache_mb = std::stoll(next());
    else if (arg == "--client-rate") client_rate = std::stod(next());
    else if (arg == "--max-inflight-per-client") max_inflight = std::stoll(next());
    else {
      std::fprintf(stderr,
                   "usage: ibrar_serve [--dataset D] [--model M] [--requests N]"
                   " [--clients C] [--telemetry K] [--adv FRACTION] [--swap]"
                   " [--out FILE] [--stats-every MS] [--stats-out FILE]"
                   " [--trace FILE] [--listen PORT] [--admin-port PORT]"
                   " [--admin-linger MS] [--profile-out FILE] [--cache-mb N]"
                   " [--client-rate R] [--max-inflight-per-client N]\n");
      return arg == "--help" ? 0 : 2;
    }
  }
  if (cache_mb >= 0 && cache_mb > (std::int64_t{1} << 20)) {
    std::fprintf(stderr, "--cache-mb %lld is implausibly large\n",
                 static_cast<long long>(cache_mb));
    return 2;
  }
  if (listen_port < -1 || listen_port > 65535) {
    std::fprintf(stderr, "--listen PORT must be in [0, 65535]\n");
    return 2;
  }
  if (admin_port < -1 || admin_port > 65535) {
    std::fprintf(stderr, "--admin-port PORT must be in [0, 65535]\n");
    return 2;
  }
  if (!trace_path.empty() && !obs::trace_enabled()) {
    obs::set_trace_sample_every(8);  // --trace implies sampling
  }
  if (!profile_out.empty() && !obs::profiling_enabled()) {
    obs::set_profiling_enabled(true);  // --profile-out implies profiling
  }

  print_header("ibrar_serve: micro-batching inference server demo");
  const auto s = default_scale();
  const auto data = data::make_dataset(dataset, s.train_size, s.test_size);
  models::ModelSpec spec;
  spec.name = model_name;
  spec.num_classes = data.train.num_classes;
  spec.image_size = data.test.height();
  spec.in_channels = data.test.channels();

  // ---- train + publish v1 ---------------------------------------------------
  Stopwatch sw;
  analysis::TrainSpec tspec;
  tspec.base = "CE";
  tspec.train = train_config(s);
  auto model = analysis::train_model(spec, data, tspec, 42);
  std::fprintf(stderr, "[serve] trained %s in %.1fs\n", model_name.c_str(),
               sw.reset());
  serve::ModelRegistry registry;
  const Shape chw = {data.test.channels(), data.test.height(),
                     data.test.width()};
  registry.publish(model, chw, model_name + "-v1");

  // ---- stage traffic: clean rows, a fraction adversarially perturbed --------
  const std::int64_t n = data.test.size();
  std::vector<Tensor> rows = stage_rows(data.test);
  std::vector<bool> is_adv(static_cast<std::size_t>(n), false);
  if (adv_fraction > 0.0) {
    attacks::AttackConfig acfg;
    acfg.steps = s.attack_steps;
    attacks::PGD pgd(acfg);
    const auto n_adv = static_cast<std::int64_t>(adv_fraction *
                                                 static_cast<double>(n));
    for (std::int64_t b = 0; b < n_adv; b += s.batch) {
      const std::int64_t e = std::min(n_adv, b + s.batch);
      const auto batch = data::make_batch(data.test, b, e);
      const Tensor x_adv = pgd.perturb(*model, batch.x, batch.y);
      const std::int64_t row_elems = chw[0] * chw[1] * chw[2];
      for (std::int64_t i = b; i < e; ++i) {
        Tensor r({chw[0], chw[1], chw[2]});
        std::memcpy(r.data().data(),
                    x_adv.data().data() + (i - b) * row_elems,
                    sizeof(float) * static_cast<std::size_t>(row_elems));
        rows[static_cast<std::size_t>(i)] = std::move(r);
        is_adv[static_cast<std::size_t>(i)] = true;
      }
    }
    std::fprintf(stderr, "[serve] perturbed %lld/%lld rows with PGD-%lld "
                 "(%.1fs)\n", static_cast<long long>(n_adv),
                 static_cast<long long>(n),
                 static_cast<long long>(s.attack_steps), sw.reset());
  }

  // ---- serve ---------------------------------------------------------------
  serve::ServeConfig cfg = serve::ServeConfig::from_env();
  cfg.telemetry.sample_every = telemetry_every;
  cfg.telemetry.window = 32;
  if (cache_mb >= 0) {
    cfg.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  }
  if (client_rate >= 0.0) cfg.client_rate = client_rate;
  if (max_inflight >= 0) cfg.max_inflight_per_client = max_inflight;
  serve::Server server(registry, cfg);
  std::printf("serving %s v1: max_batch=%lld deadline=%lldus queue=%lld "
              "workers=%lld clients=%lld requests=%lld telemetry=every "
              "%lldth cache=%zuMiB rate=%.1f/s max_inflight=%lld\n",
              model_name.c_str(), static_cast<long long>(cfg.max_batch),
              static_cast<long long>(cfg.deadline_us),
              static_cast<long long>(cfg.queue_capacity),
              static_cast<long long>(cfg.workers),
              static_cast<long long>(clients),
              static_cast<long long>(requests),
              static_cast<long long>(telemetry_every),
              cfg.cache_bytes >> 20, cfg.client_rate,
              static_cast<long long>(cfg.max_inflight_per_client));
  std::unique_ptr<serve::net::TcpFrontend> frontend;
  if (listen_port >= 0) {
    serve::net::FrontendConfig fcfg;
    fcfg.port = static_cast<std::uint16_t>(listen_port);
    frontend = std::make_unique<serve::net::TcpFrontend>(server, fcfg);
    std::printf("listening on 127.0.0.1:%u — traffic goes through the socket "
                "(length-prefixed frames, serve/net/wire.hpp)\n",
                frontend->port());
  }
  std::unique_ptr<serve::net::AdminEndpoint> admin;
  if (admin_port >= 0) {
    serve::net::AdminConfig acfg;
    acfg.port = static_cast<std::uint16_t>(admin_port);
    admin = std::make_unique<serve::net::AdminEndpoint>(acfg);
    std::printf("admin endpoint on 127.0.0.1:%u — GET /metrics /slo "
                "/timeseries (read-only)\n",
                admin->port());
  }
  // Continuous telemetry: sample the registry into the time-series store and
  // evaluate the SLO monitors on a cadence. The env knob drives it; an admin
  // endpoint without one gets a 250ms default so its /timeseries and /slo
  // routes have data to show.
  std::int64_t ts_ms = obs::ts_interval_ms();
  if (ts_ms <= 0 && admin) ts_ms = 250;
  if (ts_ms > 0) {
    obs::register_default_serve_slos();
    obs::start_sampler(ts_ms);
    std::printf("time-series sampler: every %lldms into %zu-deep rings, "
                "%zu SLO monitors\n",
                static_cast<long long>(ts_ms),
                obs::timeseries().config().capacity, obs::slos().size());
  }

  // Periodic JSON-lines metric snapshots: one obs::registry() dump per line.
  // The emitter owns the file until it is joined; main appends the final
  // snapshot after shutdown so the last line always reflects the drained
  // server (>= 1 line even when the run finishes inside the first period).
  std::FILE* stats_f = nullptr;
  std::atomic<bool> stats_stop{false};
  std::thread stats_thread;
  if (stats_every_ms > 0) {
    stats_f = std::fopen(stats_out.c_str(), "w");
    if (stats_f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", stats_out.c_str());
      return 2;
    }
    stats_thread = std::thread([&] {
      while (!stats_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stats_every_ms));
        if (stats_stop.load()) break;
        const std::string line = obs::registry().snapshot().to_json();
        std::fprintf(stats_f, "%s\n", line.c_str());
        std::fflush(stats_f);
      }
    });
  }

  std::mutex agg_mu;
  SuspicionStat clean_susp, adv_susp;
  std::vector<std::uint64_t> version_counts(8, 0);
  std::atomic<std::int64_t> correct{0}, served{0}, rejected{0};
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(requests));

  std::atomic<std::int64_t> swap_at{swap_mid_run ? requests / 2 : -1};
  std::atomic<bool> swapped{false};
  const std::string ckpt_path = "ibrar_serve_hot_swap.ckpt";

  Stopwatch wall;
  std::vector<std::thread> threads;
  for (std::int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // With --listen each client thread owns one socket connection, so the
      // run exercises the real wire path per client instead of futures.
      // Client thread c is client id c+1 everywhere (admission fairness is
      // keyed on it; id 0 is the anonymous default and shares one bucket).
      const auto my_id = static_cast<std::uint64_t>(c + 1);
      std::unique_ptr<serve::net::Client> net_client;
      if (frontend) {
        net_client = std::make_unique<serve::net::Client>(
            "127.0.0.1", frontend->port(), my_id);
      }
      for (std::int64_t r = c; r < requests; r += clients) {
        // Hot swap: the first client to cross the midpoint republishes the
        // current weights from a disk checkpoint as version 2, while every
        // other client keeps submitting against whatever version is live.
        if (swap_at.load() >= 0 && r >= swap_at.load() &&
            !swapped.exchange(true)) {
          nn::save_model(*model, ckpt_path);
          registry.publish_checkpoint(spec, ckpt_path, model_name + "-v2");
          std::fprintf(stderr, "[serve] hot-swapped to v2 at request %lld\n",
                       static_cast<long long>(r));
        }
        const std::int64_t row = r % n;
        bool ok = false;
        std::int64_t argmax = -1;
        std::uint64_t version = 0;
        bool sampled = false;
        float suspicion = -1.0f;
        Stopwatch lat;
        if (net_client) {
          const auto reply =
              net_client->submit(rows[static_cast<std::size_t>(row)]);
          ok = reply.ok();
          argmax = reply.argmax;
          version = reply.model_version;
          sampled = reply.sampled;
          suspicion = reply.suspicion;
        } else {
          const auto reply =
              server.submit(rows[static_cast<std::size_t>(row)], my_id).get();
          ok = reply.ok();
          argmax = reply.argmax;
          version = reply.model_version;
          sampled = reply.telemetry.sampled;
          suspicion = reply.telemetry.suspicion;
        }
        const double ms = lat.seconds() * 1e3;
        if (!ok) {
          rejected.fetch_add(1);
          continue;
        }
        served.fetch_add(1);
        if (argmax == data.test.labels[static_cast<std::size_t>(row)]) {
          correct.fetch_add(1);
        }
        std::lock_guard<std::mutex> lk(agg_mu);
        latencies_ms.push_back(ms);
        if (version < version_counts.size()) {
          ++version_counts[static_cast<std::size_t>(version)];
        }
        if (sampled && suspicion >= 0.0f) {
          (is_adv[static_cast<std::size_t>(row)] ? adv_susp : clean_susp)
              .add(suspicion);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = wall.seconds();
  if (frontend) frontend->stop();  // front-end first, then the server
  server.shutdown();
  if (swapped.load()) std::remove(ckpt_path.c_str());
  if (stats_f != nullptr) {
    stats_stop.store(true);
    stats_thread.join();
    const std::string line = obs::registry().snapshot().to_json();
    std::fprintf(stats_f, "%s\n", line.c_str());
    std::fclose(stats_f);
    std::fprintf(stderr, "[serve] metric snapshots -> %s\n",
                 stats_out.c_str());
  }
  if (obs::sampler_running()) {
    // One final quiescent tick so the stored series include the drained
    // end-state before the sampler thread goes away.
    obs::timeseries().sample_now(obs::registry());
    obs::slos().evaluate(obs::timeseries());
    obs::stop_sampler();
    std::fprintf(stderr,
                 "[serve] time-series: %zu series, %llu ticks, %llu dropped "
                 "samples\n",
                 obs::timeseries().series_count(),
                 static_cast<unsigned long long>(obs::timeseries().ticks()),
                 static_cast<unsigned long long>(
                     obs::timeseries().dropped_samples()));
  }
  if (admin && admin_linger_ms > 0) {
    // Hold the admin endpoint open on the drained end-state so an external
    // scraper (CI) can collect /metrics, /slo, /timeseries deterministically
    // — the serving window itself may be far shorter than a scrape cadence.
    std::fprintf(stderr, "[serve] admin endpoint lingering %lld ms\n",
                 static_cast<long long>(admin_linger_ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(admin_linger_ms));
  }
  if (admin) admin->stop();
  if (!trace_path.empty()) {
    obs::dump_trace(trace_path);
    std::fprintf(stderr, "[serve] request trace (%zu spans) -> %s\n",
                 obs::trace_records().size(), trace_path.c_str());
  }
  if (obs::profiling_enabled()) obs::print_profile_table(stdout);
  if (!profile_out.empty()) {
    obs::dump_profile(profile_out);
    std::fprintf(stderr, "[serve] kernel profile JSON -> %s\n",
                 profile_out.c_str());
  }

  // ---- summary --------------------------------------------------------------
  auto pct = [&](double q) { return percentile(latencies_ms, q); };
  const obs::MetricsSnapshot stats = server.stats();
  const auto count = [&stats](const char* counter) {
    return static_cast<unsigned long long>(stats.counters.at(counter));
  };
  const double throughput = static_cast<double>(requests) / seconds;
  std::printf("\n-- served %lld requests in %.2fs: %.1f req/s  p50 %.2fms  "
              "p99 %.2fms --\n",
              static_cast<long long>(served.load()), seconds, throughput,
              pct(0.5), pct(0.99));
  std::printf("   accuracy %.3f  rejected %lld  batches %llu (size %llu / "
              "deadline %llu / drain %llu)  max batch %.0f\n",
              served.load() > 0
                  ? static_cast<double>(correct.load()) /
                        static_cast<double>(served.load())
                  : 0.0,
              static_cast<long long>(rejected.load()),
              count("serve.batches"), count("serve.trigger.size"),
              count("serve.trigger.deadline"), count("serve.trigger.drain"),
              // One server per process, so the process-wide gauge is ours.
              stats.gauges.at("serve.batch_max"));
  if (server.cache().enabled()) {
    std::printf("   cache: %llu lookups, %llu hits (%llu in-flight joins), "
                "%llu misses, %llu evictions, %llu invalidations, %zu bytes "
                "resident\n",
                count("serve.cache.lookups"), count("serve.cache.hits"),
                count("serve.cache.inflight_joins"),
                count("serve.cache.misses"), count("serve.cache.evictions"),
                count("serve.cache.invalidations"),
                server.cache().bytes());
  }
  if (count("serve.admission.busy") + count("serve.admission.throttled") > 0) {
    std::printf("   admission: %llu busy-on-full, %llu per-client throttles "
                "(all kBusyRetryAfter with hints)\n",
                count("serve.admission.busy"),
                count("serve.admission.throttled"));
  }
  for (std::size_t v = 1; v < version_counts.size(); ++v) {
    if (version_counts[v] > 0) {
      std::printf("   model v%zu served %llu requests\n", v,
                  static_cast<unsigned long long>(version_counts[v]));
    }
  }
  if (telemetry_every > 0) {
    std::printf("   telemetry: %llu sampled, %llu scoring epochs, drift %s",
                count("serve.telemetry.samples"),
                static_cast<unsigned long long>(server.monitor().score_epoch()),
                server.monitor().drift_state() ==
                        serve::DriftDetector::kDrift
                    ? "DRIFT"
                    : "stable");
    if (clean_susp.n > 0) {
      std::printf(", mean suspicion clean %.3f (n=%lld)", clean_susp.mean(),
                  static_cast<long long>(clean_susp.n));
    }
    if (adv_susp.n > 0) {
      std::printf(", adversarial %.3f (n=%lld)", adv_susp.mean(),
                  static_cast<long long>(adv_susp.n));
    }
    std::printf("\n");
  }

  JsonReporter reporter(out_path);
  auto record = [&](const std::string& kernel, const std::string& shape,
                    double metric) {
    BenchRecord rec;
    rec.kernel = kernel;
    rec.shape = shape;
    rec.checksum = metric;
    rec.threads = runtime::num_threads();
    reporter.add(rec);
  };
  record("serve_cli/throughput_rps",
         "clients=" + std::to_string(clients) + ",model=" + model_name,
         throughput);
  record("serve_cli/p99_ms", "clients=" + std::to_string(clients), pct(0.99));
  record("serve_cli/accuracy", "served=" + std::to_string(served.load()),
         served.load() > 0 ? static_cast<double>(correct.load()) /
                                 static_cast<double>(served.load())
                           : 0.0);
  if (count("serve.cache.lookups") > 0) {
    record("serve_cli/cache_hit_rate",
           "lookups=" + std::to_string(count("serve.cache.lookups")),
           static_cast<double>(count("serve.cache.hits")) /
               static_cast<double>(count("serve.cache.lookups")));
  }
  if (clean_susp.n > 0) {
    record("serve_cli/suspicion_clean", "n=" + std::to_string(clean_susp.n),
           clean_susp.mean());
  }
  if (adv_susp.n > 0) {
    record("serve_cli/suspicion_adv", "n=" + std::to_string(adv_susp.n),
           adv_susp.mean());
  }
  reporter.write();
  return 0;
}
