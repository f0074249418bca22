#include "serve_phase.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/net/client.hpp"
#include "serve/net/listener.hpp"
#include "serve/server.hpp"

namespace ibbench {

using namespace ibrar;

namespace {

constexpr std::uint32_t kHotSet = 64;            // hot inputs (hot-swap mix)
constexpr std::uint32_t kWarmupBase = 1u << 22;  // warm-up input ids
constexpr std::int64_t kBankRows = 256;
constexpr std::int64_t kWarmupRequests = 256;
constexpr std::int64_t kWindow = 64;  // closed-loop in-flight (8x max_batch)
constexpr double kClosedCapRps = 40000.0;  // closed-loop schedule length cap
constexpr std::int64_t kSwapPeriodNs = 500'000'000;
constexpr std::int64_t kWindowSamples = 1000;  // requests per latency window
constexpr std::int64_t kRateWindows = 2;       // capacity windows per slice
constexpr int kRounds = 4;                     // interleaved phase rounds

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Inputs are named by a 32-bit id: ids below kHotSet are the hot set, all
/// others are unique. An input is a test image from the bank with pixel 0
/// replaced by 0.5 + id * 2^-24, which is exact for id < 2^23, so distinct ids
/// are distinct inputs by construction.
class InputBank {
 public:
  InputBank(const data::Dataset& ds, std::uint64_t seed)
      : seed_(seed),
        rows_(std::min<std::int64_t>(kBankRows, ds.size())),
        row_(ds.channels() * ds.height() * ds.width()),
        shape_{ds.channels(), ds.height(), ds.width()},
        pixels_(ds.images.data().begin(),
                ds.images.data().begin() + rows_ * row_) {}

  Tensor make(std::uint32_t id) const {
    Tensor t(shape_);
    const std::int64_t r =
        id < kHotSet ? id % rows_
                     : static_cast<std::int64_t>(splitmix64(seed_ ^ id) %
                                                 static_cast<std::uint64_t>(rows_));
    std::memcpy(t.data().data(), pixels_.data() + r * row_,
                sizeof(float) * static_cast<std::size_t>(row_));
    t.data()[0] = 0.5f + static_cast<float>(id) * 0x1p-24f;
    return t;
  }
  const Shape& shape() const { return shape_; }

 private:
  std::uint64_t seed_;
  std::int64_t rows_, row_;
  Shape shape_;
  std::vector<float> pixels_;
};

struct Req {
  std::int64_t due_ns = 0;  ///< offset from phase start (open loop)
  std::uint32_t id = 0;
};

/// One request as the client saw it.
struct Rec {
  std::int64_t due = 0, send_begin = 0, send_ns = 0, recv = 0;
  std::uint32_t id = 0;
  serve::net::WireStatus status = serve::net::WireStatus::kOk;
  bool cached = false;
  std::uint64_t version = 0;
  std::int64_t queue_ns = 0, compute_ns = 0;
};

struct Conn {
  std::unique_ptr<serve::net::Client> client;
  std::uint64_t next_reply_id = 0;  ///< correlation ids are sequential
};

struct ConnLog {
  std::vector<Rec> recs;
  std::vector<float> logits;  ///< recs.size() x num_classes
  std::int64_t n = 0;         ///< requests actually sent
  std::string error;
};

/// Pre-generates every phase's arrivals and inputs from the seed.
class Generator {
 public:
  Generator(const Workload& w, std::uint64_t seed) : w_(w), rng_(seed) {}

  std::vector<std::vector<Req>> open_loop(double rps, double dur_s, int conns) {
    std::vector<std::vector<Req>> out(static_cast<std::size_t>(conns));
    std::exponential_distribution<double> gap(rps / conns);
    for (auto& reqs : out) {
      double t = 0.0;
      while ((t += gap(rng_)) < dur_s) {
        reqs.push_back({static_cast<std::int64_t>(t * 1e9), next_id()});
      }
    }
    return out;
  }

  std::vector<std::vector<Req>> closed_loop(double dur_s, int conns) {
    const auto n = static_cast<std::size_t>(kClosedCapRps * dur_s / conns);
    std::vector<std::vector<Req>> out(static_cast<std::size_t>(conns));
    for (auto& reqs : out) {
      reqs.resize(n);
      for (auto& r : reqs) r.id = next_id();
    }
    return out;
  }

 private:
  std::uint32_t next_id() {
    if (w_.hot_frac > 0.0 && coin_(rng_) < w_.hot_frac) {
      return static_cast<std::uint32_t>(rng_() % kHotSet);
    }
    if (next_unique_ >= kWarmupBase) throw std::runtime_error("id space");
    return next_unique_++;
  }

  const Workload& w_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> coin_{0.0, 1.0};
  std::uint32_t next_unique_ = kHotSet;
};

void store_reply(Conn& c, ConnLog& log, std::int64_t i, std::int64_t nc) {
  const auto f = c.client->recv();
  Rec& r = log.recs[static_cast<std::size_t>(i)];
  r.recv = clock_ns();
  if (f.id != c.next_reply_id++) throw std::runtime_error("reply out of order");
  r.status = f.status;
  r.cached = f.cached;
  r.version = f.model_version;
  r.queue_ns = f.queue_ns;
  r.compute_ns = f.compute_ns;
  if (f.ok()) {
    if (static_cast<std::int64_t>(f.logits.size()) != nc) {
      throw std::runtime_error("reply logits have the wrong width");
    }
    std::memcpy(log.logits.data() + i * nc, f.logits.data(),
                sizeof(float) * static_cast<std::size_t>(nc));
  }
}

/// Open loop: the sender sleeps until each request's due time, whatever the
/// replies are doing; the receiver drains replies in order.
void open_conn(Conn& c, const std::vector<Req>& reqs, const InputBank& bank,
               std::int64_t t0, std::int64_t nc, ConnLog& log) {
  const auto n = static_cast<std::int64_t>(reqs.size());
  log.recs.assign(reqs.size(), Rec{});
  log.logits.assign(reqs.size() * static_cast<std::size_t>(nc), 0.0f);
  log.n = n;
  std::string recv_error;
  std::thread receiver([&] {
    try {
      for (std::int64_t i = 0; i < n; ++i) store_reply(c, log, i, nc);
    } catch (const std::exception& e) {
      recv_error = e.what();
    }
  });
  try {
    for (std::int64_t i = 0; i < n; ++i) {
      const Req& q = reqs[static_cast<std::size_t>(i)];
      const Tensor x = bank.make(q.id);
      const std::int64_t due = t0 + q.due_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      Rec& r = log.recs[static_cast<std::size_t>(i)];
      r.id = q.id;
      r.due = due;
      r.send_begin = clock_ns();
      c.client->send(x);
      r.send_ns = clock_ns() - r.send_begin;
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
  receiver.join();
  if (log.error.empty()) log.error = recv_error;
}

/// Closed loop, pipelined: at most `window` requests in flight on this
/// connection; sending stops at t0 + dur_ns and the receiver drains the rest.
void closed_conn(Conn& c, const std::vector<Req>& reqs, const InputBank& bank,
                 std::int64_t t0, std::int64_t dur_ns, std::int64_t window,
                 std::int64_t nc, ConnLog& log) {
  log.recs.assign(reqs.size(), Rec{});
  log.logits.assign(reqs.size() * static_cast<std::size_t>(nc), 0.0f);
  std::counting_semaphore<1024> slots(window);
  std::atomic<std::int64_t> sent{0};
  std::atomic<bool> done{false};
  std::atomic<bool> recv_failed{false};
  std::string recv_error;
  std::thread receiver([&] {
    try {
      for (std::int64_t i = 0;;) {
        const bool finished = done.load(std::memory_order_acquire);
        if (i < sent.load(std::memory_order_acquire)) {
          store_reply(c, log, i++, nc);
          slots.release();
        } else if (finished) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
    } catch (const std::exception& e) {
      recv_error = e.what();
      recv_failed.store(true, std::memory_order_release);
      slots.release(window);
    }
  });
  try {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const Tensor x = bank.make(reqs[i].id);
      slots.acquire();
      const std::int64_t now = clock_ns();
      if (now >= t0 + dur_ns || recv_failed.load(std::memory_order_acquire)) break;
      Rec& r = log.recs[i];
      r.id = reqs[i].id;
      r.due = now;
      r.send_begin = now;
      c.client->send(x);
      r.send_ns = clock_ns() - now;
      sent.store(static_cast<std::int64_t>(i) + 1, std::memory_order_release);
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
  done.store(true, std::memory_order_release);
  receiver.join();
  if (log.error.empty()) log.error = recv_error;
  log.n = sent.load();
  log.recs.resize(static_cast<std::size_t>(log.n));
  log.logits.resize(static_cast<std::size_t>(log.n * nc));
}

/// One phase, accumulated over its interleaved slices.
struct PhaseRun {
  PhaseReport report;
  std::vector<ConnLog> logs;  ///< every slice's connection logs
  std::vector<double> late_ms;
  std::vector<std::pair<std::int64_t, double>> lat;  ///< (due, latency ms)
  std::int64_t closed_cap = 0;  ///< requests the closed-loop schedules held
};

void run_slice(PhaseRun& pr, std::vector<Conn>& conns,
               const std::vector<std::vector<Req>>& sched, bool open,
               double dur_s, const InputBank& bank, std::int64_t nc) {
  std::vector<ConnLog> logs(conns.size());
  const std::int64_t t0 = clock_ns() + 2'000'000;
  const auto dur_ns = static_cast<std::int64_t>(dur_s * 1e9);
  const auto per_conn_window =
      std::max<std::int64_t>(1, kWindow / static_cast<std::int64_t>(conns.size()));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      if (open) {
        open_conn(conns[c], sched[c], bank, t0, nc, logs[c]);
      } else {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(t0)));
        closed_conn(conns[c], sched[c], bank, t0, dur_ns, per_conn_window, nc,
                    logs[c]);
      }
    });
  }
  for (auto& t : threads) t.join();

  PhaseReport& rep = pr.report;
  std::vector<double> win_ok(kRateWindows, 0.0);
  for (const auto& log : logs) {
    for (const Rec& r : log.recs) {
      ++rep.sent;
      pr.late_ms.push_back(static_cast<double>(r.send_begin - r.due) * 1e-6);
      double ms = std::numeric_limits<double>::infinity();
      if (r.status == serve::net::WireStatus::kOk) {
        ++rep.ok;
        ms = static_cast<double>(r.recv - r.due) * 1e-6;
        // Closed loop: ok replies per equal slice of the sending interval.
        const std::int64_t k = (r.recv - t0) * kRateWindows / std::max<std::int64_t>(dur_ns, 1);
        if (k >= 0 && k < kRateWindows) win_ok[static_cast<std::size_t>(k)] += 1.0;
      } else if (r.status == serve::net::WireStatus::kBusyRetryAfter) {
        ++rep.busy;
      } else {
        ++rep.failed;
      }
      pr.lat.emplace_back(r.due, ms);
    }
  }
  rep.seconds += dur_s;
  if (!open) {
    for (double ok : win_ok) rep.win_rate.push_back(ok * kRateWindows / dur_s);
    for (const auto& s : sched) pr.closed_cap += static_cast<std::int64_t>(s.size());
  }
  for (auto& log : logs) pr.logs.push_back(std::move(log));
}

/// Open-loop latency windows slide over the phase's requests in due order:
/// kWindowSamples consecutive requests (so each p99 has >= 10 samples beyond
/// it), advancing by a quarter window. The reported p50/p99 are the
/// kCalmQuantile order statistic over the windows, so host stalls move the
/// windows they fall in rather than the reported figure.
void finalize(PhaseRun& pr, bool open) {
  PhaseReport& rep = pr.report;
  rep.late_p99_ms = percentile(pr.late_ms, 0.99);
  rep.late_max_ms = percentile(pr.late_ms, 1.0);
  if (!open) {
    rep.windows = static_cast<std::int64_t>(rep.win_rate.size());
    rep.ok_per_s = quantile(rep.win_rate, 1.0 - kCalmQuantile);
    return;
  }
  std::sort(pr.lat.begin(), pr.lat.end());
  std::vector<double> all;
  for (const auto& [due, ms] : pr.lat) all.push_back(ms);
  const auto n = static_cast<std::int64_t>(all.size());
  const std::int64_t w = std::min(kWindowSamples, n);
  for (std::int64_t b = 0; b + w <= n; b += std::max<std::int64_t>(1, w / 4)) {
    const std::vector<double> win(all.begin() + b, all.begin() + b + w);
    rep.win_p50_ms.push_back(percentile(win, 0.50));
    rep.win_p99_ms.push_back(percentile(win, 0.99));
  }
  rep.windows = static_cast<std::int64_t>(rep.win_p99_ms.size());
  rep.p50_ms = quantile(rep.win_p50_ms, kCalmQuantile);
  rep.p99_ms = quantile(rep.win_p99_ms, kCalmQuantile);
  rep.p99_all_ms = percentile(all, 0.99);
  rep.ok_per_s = static_cast<double>(rep.ok) / rep.seconds;
}

/// Delta of one registry histogram between two snapshots.
obs::HistogramSnapshot hist_delta(const obs::MetricsSnapshot& a,
                                  const obs::MetricsSnapshot& b,
                                  const std::string& name) {
  obs::HistogramSnapshot d;
  const auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return d;
  d = ib->second;
  const auto ia = a.histograms.find(name);
  if (ia == a.histograms.end()) return d;
  d.count -= ia->second.count;
  d.sum -= ia->second.sum;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] -= ia->second.buckets[i];
  }
  return d;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& a,
                            const obs::MetricsSnapshot& b,
                            const std::string& name) {
  const auto ib = b.counters.find(name);
  const auto ia = a.counters.find(name);
  const std::uint64_t vb = ib == b.counters.end() ? 0 : ib->second;
  const std::uint64_t va = ia == a.counters.end() ? 0 : ia->second;
  return vb - va;
}

double frac(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// The model versions one registry has served, with the model each one
/// carries (0 = trained model, 1 = previous-epoch model).
struct VersionLog {
  std::mutex mu;
  std::map<std::uint64_t, int> model_of;
  std::vector<double> publish_ns;
};

std::uint64_t timed_publish(serve::ModelRegistry& reg,
                            models::TapClassifierPtr m, const Shape& chw,
                            int which, VersionLog& vlog) {
  const std::int64_t t0 = clock_ns();
  const std::uint64_t v = reg.publish(std::move(m), chw, which ? "prev" : "final");
  const std::int64_t t1 = clock_ns();
  std::lock_guard<std::mutex> lk(vlog.mu);
  vlog.model_of[v] = which;
  vlog.publish_ns.push_back(static_cast<double>(t1 - t0));
  return v;
}

/// Everything one set-up builds; torn down in reverse member order.
struct Stack {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<models::TapClassifierPtr> swap_pool;  ///< prebuilt, unpacked
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::net::TcpFrontend> frontend;
  std::vector<Conn> conns;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    conns.clear();
    if (frontend) frontend->stop();
    if (server) server->shutdown();
  }
};

void add_span_metric(Metrics& m, const std::string& name,
                     const std::vector<double>& v) {
  m[name] = {v.empty() ? 0.0 : median(v), "ns"};
}

}  // namespace

ServeResult run_serving(const Workload& w, const TrainResult& trained,
                        const data::Dataset& bank_set, std::uint64_t seed,
                        double seconds, bool traced, int setup_reps,
                        Checks& checks) {
  ServeResult res;
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  const int nconns = std::max(1, nproc / 2);  // sender + receiver per conn
  const std::int64_t nc = trained.model->num_classes();
  serve::ServeConfig cfg = serve::ServeConfig::from_env();
  cfg.telemetry.sample_every = w.telemetry_every;
  cfg.telemetry.window = 32;
  const std::size_t pool_size =
      w.hot_swap ? static_cast<std::size_t>(seconds * 1e9 / kSwapPeriodNs) + 4
                 : 0;

  // ---- set-up, repeated; the last stack is kept --------------------------
  std::unique_ptr<Stack> stack;
  std::unique_ptr<InputBank> bank;
  VersionLog vlog;
  for (int rep = 0; rep < setup_reps; ++rep) {
    stack.reset();
    vlog.model_of.clear();
    const std::int64_t t0 = clock_ns();
    bank = std::make_unique<InputBank>(bank_set, seed);
    auto s = std::make_unique<Stack>();
    s->registry = std::make_unique<serve::ModelRegistry>();
    timed_publish(*s->registry, clone_model(*trained.model), bank->shape(), 0,
                  vlog);
    for (std::size_t k = 0; k < pool_size; ++k) {
      s->swap_pool.push_back(
          clone_model(k % 2 == 0 ? *trained.prev_epoch : *trained.model));
    }
    s->server = std::make_unique<serve::Server>(*s->registry, cfg);
    s->frontend = std::make_unique<serve::net::TcpFrontend>(*s->server);
    for (int c = 0; c < nconns; ++c) {
      Conn conn;
      conn.client = std::make_unique<serve::net::Client>(
          "127.0.0.1", s->frontend->port(), static_cast<std::uint64_t>(c + 1));
      s->conns.push_back(std::move(conn));
    }
    // Warm-up: closed loop over ids no timed request uses.
    std::vector<std::vector<Req>> warm(static_cast<std::size_t>(nconns));
    for (std::int64_t k = 0; k < kWarmupRequests; ++k) {
      warm[static_cast<std::size_t>(k % nconns)].push_back(
          {0, kWarmupBase + static_cast<std::uint32_t>(k)});
    }
    PhaseRun wp;
    run_slice(wp, s->conns, warm, false, 60.0, *bank, nc);
    checks.require(wp.report.ok == kWarmupRequests, "serve: warm-up all ok");
    res.setup_s.push_back(static_cast<double>(clock_ns() - t0) * 1e-9);
    stack = std::move(s);
  }
  Stack& st = *stack;

  // ---- pre-generate every timed phase ------------------------------------
  // The three phases run interleaved in kRounds rounds of (capacity, light,
  // heavy) slices, so a host disturbance lasting a few seconds lands in one
  // slice of each phase instead of swallowing one whole phase.
  Generator gen(w, seed);
  const double cap_s = 0.2 * seconds / kRounds, light_s = 0.4 * seconds / kRounds,
               heavy_s = 0.4 * seconds / kRounds;
  std::vector<std::array<std::vector<std::vector<Req>>, 3>> sched(kRounds);
  for (auto& round : sched) {
    round[0] = gen.closed_loop(cap_s, nconns);
    round[1] = gen.open_loop(w.light_rps, light_s, nconns);
    round[2] = gen.open_loop(w.heavy_rps, heavy_s, nconns);
  }

  if (traced) {
    obs::clear_trace();
    obs::reset_profile();
  }
  const auto snap0 = obs::registry().snapshot();

  // Hot swap: publish the next prebuilt copy every 500 ms, alternating the
  // previous-epoch and final models, while all three phases run.
  std::mutex swap_mu;
  std::condition_variable swap_cv;
  bool swap_stop = false;
  std::thread swapper;
  if (w.hot_swap) {
    swapper = std::thread([&] {
      std::size_t k = 0;
      auto next = std::chrono::steady_clock::now();
      std::unique_lock<std::mutex> lk(swap_mu);
      while (k < st.swap_pool.size()) {
        next += std::chrono::nanoseconds(kSwapPeriodNs);
        if (swap_cv.wait_until(lk, next, [&] { return swap_stop; })) break;
        timed_publish(*st.registry, st.swap_pool[k], bank->shape(),
                      k % 2 == 0 ? 1 : 0, vlog);
        ++k;
      }
    });
  }

  std::vector<PhaseRun> runs(3);
  runs[0].report.name = "capacity";
  runs[1].report.name = "light";
  runs[2].report.name = "heavy";
  for (const auto& round : sched) {
    run_slice(runs[0], st.conns, round[0], false, cap_s, *bank, nc);
    run_slice(runs[1], st.conns, round[1], true, light_s, *bank, nc);
    run_slice(runs[2], st.conns, round[2], true, heavy_s, *bank, nc);
  }
  for (std::size_t p = 0; p < runs.size(); ++p) finalize(runs[p], p > 0);

  if (swapper.joinable()) {
    {
      std::lock_guard<std::mutex> lk(swap_mu);
      swap_stop = true;
    }
    swap_cv.notify_all();
    swapper.join();
  }
  const auto snap1 = obs::registry().snapshot();
  std::vector<obs::SpanRecord> spans;
  std::vector<obs::ProfileEntry> prof;
  if (traced) {
    spans = obs::trace_records();
    prof = obs::profile_table();
    checks.require(obs::trace_dropped() == 0, "trace: no dropped spans");
  }

  for (const auto& pr : runs) {
    res.phases.push_back(pr.report);
    res.attempted += pr.report.sent;
    res.failed += pr.report.busy + pr.report.failed;
    for (const auto& log : pr.logs) {
      checks.require(log.error.empty(),
                     "serve: " + pr.report.name + " connection error: " + log.error);
    }
  }
  res.capacity_rps = res.phases[0].ok_per_s;
  checks.require(res.phases[0].sent > 0 && res.phases[1].sent > 0 &&
                     res.phases[2].sent > 0,
                 "serve: every phase sent requests");
  checks.require(res.phases[0].sent < runs[0].closed_cap,
                 "serve: capacity phase ran for its full duration");

  const std::uint64_t lookups = counter_delta(snap0, snap1, "serve.cache.lookups");
  const std::uint64_t hits = counter_delta(snap0, snap1, "serve.cache.hits");
  if (w.hot_frac == 0.0) {
    checks.require(lookups > 0 && hits == 0,
                   "serve: cache hit_frac == 0 on unique traffic (hits " +
                       std::to_string(hits) + ")");
  }

  // ---- per-layer metrics -------------------------------------------------
  Metrics& L = res.layers;
  std::vector<double> send_ns, unattr_ns;
  // [0] computed requests, [1] cache hits and joins.
  double rtt_total[2] = {0, 0}, send_total[2] = {0, 0};
  double queue_total = 0, compute_total = 0;
  std::uint64_t ok_total = 0, computed = 0;
  for (const auto& pr : runs) {
    for (const auto& log : pr.logs) {
      for (const Rec& r : log.recs) {
        send_ns.push_back(static_cast<double>(r.send_ns));
        if (r.status != serve::net::WireStatus::kOk) continue;
        ++ok_total;
        const double rtt = static_cast<double>(r.recv - r.send_begin);
        rtt_total[r.cached] += rtt;
        send_total[r.cached] += static_cast<double>(r.send_ns);
        if (r.cached) continue;
        ++computed;
        queue_total += static_cast<double>(r.queue_ns);
        compute_total += static_cast<double>(r.compute_ns);
        unattr_ns.push_back(rtt - static_cast<double>(r.send_ns + r.queue_ns +
                                                      r.compute_ns));
      }
    }
  }
  L["net.client.send_ns.p50"] = {median(send_ns), "ns"};
  L["net.rtt_unattributed_ns.p50"] = {unattr_ns.empty() ? 0.0 : median(unattr_ns), "ns"};
  L["serve.cache.hit_frac"] = {frac(hits, lookups), "fraction"};
  L["serve.cache.join_frac"] = {
      frac(counter_delta(snap0, snap1, "serve.cache.inflight_joins"), lookups),
      "fraction"};
  L["serve.cache.invalidations"] = {
      static_cast<double>(counter_delta(snap0, snap1, "serve.cache.invalidations")),
      "count"};
  L["serve.admission.busy_frac"] = {
      frac(counter_delta(snap0, snap1, "serve.admission.busy"),
           static_cast<std::uint64_t>(res.attempted)),
      "fraction"};
  const auto qh = hist_delta(snap0, snap1, "serve.queue_wait_ns");
  L["serve.queue_wait_ns.p50"] = {qh.percentile(0.50), "ns"};
  L["serve.queue_wait_ns.p99"] = {qh.percentile(0.99), "ns"};
  const auto ch = hist_delta(snap0, snap1, "serve.compute_ns");
  L["serve.compute_ns.p50"] = {ch.percentile(0.50), "ns"};
  const std::uint64_t served = counter_delta(snap0, snap1, "serve.served");
  const std::uint64_t batches = counter_delta(snap0, snap1, "serve.batches");
  L["serve.compute_ns_per_row"] = {served ? ch.sum / static_cast<double>(served) : 0.0,
                                   "ns"};
  L["serve.batch_occupancy.mean"] = {
      hist_delta(snap0, snap1, "serve.batch_occupancy").mean(), "rows"};
  L["serve.trigger.deadline_frac"] = {
      frac(counter_delta(snap0, snap1, "serve.trigger.deadline"), batches),
      "fraction"};
  const std::uint64_t tele = counter_delta(snap0, snap1, "serve.telemetry.samples");
  L["serve.telemetry.samples"] = {static_cast<double>(tele), "count"};
  L["serve.registry.publish_ns"] = {median(vlog.publish_ns), "ns"};

  std::map<std::string, std::vector<double>> span_ns;
  for (const auto& s : spans) {
    span_ns[s.name].push_back(static_cast<double>(s.end_ns - s.begin_ns));
  }
  add_span_metric(L, "serve.admission_ns.p50", span_ns["admission"]);
  add_span_metric(L, "serve.batch_assembly_ns.p50", span_ns["batch_assembly"]);
  add_span_metric(L, "serve.telemetry_rescore_ns.p50", span_ns["telemetry_rescore"]);
  add_span_metric(L, "serve.reply_ns.p50", span_ns["reply"]);
  L["obs.trace.spans"] = {static_cast<double>(spans.size()), "count"};

  std::map<std::string, obs::ProfileEntry> prow;
  for (const auto& e : prof) prow[e.name] = e;
  const std::vector<std::pair<std::string, std::string>> serve_sites = {
      {"tensor/conv_eval/fused", "tensor.conv_eval.fused"},
      {"tensor/conv_eval/kernel", "tensor.conv_eval.kernel"},
      {"runtime/parallel_for.dispatch", "runtime.parallel_for.dispatch"}};
  for (const auto& [site, name] : serve_sites) {
    const auto& e = prow[site];
    L[name + "_ns"] = {e.mean_ns(), "ns"};
    L[name + ".calls"] = {static_cast<double>(e.calls), "count"};
  }

  // ---- per-layer table -----------------------------------------------------
  // Request view: the client round trip of every ok request split into the
  // layers it crossed. Exact per-request figures come from the client clock
  // and the reply's queue_ns/compute_ns; sampled spans are scaled to every
  // request they stand for (admission and reply to computed requests,
  // telemetry to sampled ones). A cache hit has no server span; its
  // unattributed time is the hit path plus head-of-line waiting behind
  // earlier requests on its in-order connection. Worker view: the serving
  // worker's batch assembly (waiting for co-riders) and its compute plus
  // telemetry re-forwards against the kernel profile rows they ran.
  auto scaled = [&](const std::string& s, std::uint64_t n) {
    const auto& v = span_ns[s];
    return v.empty() ? 0.0 : mean(v) * static_cast<double>(n);
  };
  const double ms = 1e-6;
  const double adm = scaled("admission", computed);
  const double rescore = scaled("telemetry_rescore", tele);
  const double reply = scaled("reply", computed);
  auto& T = res.table;
  T.push_back({"request, computed (client rtt)", computed, rtt_total[0] * ms, 0.0, 0.0,
               (rtt_total[0] - send_total[0] - adm - queue_total - compute_total -
                rescore - reply) * ms});
  T.push_back({"  net.client.send", computed, send_total[0] * ms, send_total[0] * ms, 0.0});
  T.push_back({"  serve.admission", span_ns["admission"].size(), adm * ms, adm * ms, 0.0});
  T.push_back({"  serve.queue_wait", computed, queue_total * ms, 0.0, queue_total * ms});
  T.push_back({"  serve.compute", computed, compute_total * ms, compute_total * ms, 0.0});
  T.push_back({"  serve.telemetry_rescore", span_ns["telemetry_rescore"].size(),
               rescore * ms, rescore * ms, 0.0});
  T.push_back({"  serve.reply", span_ns["reply"].size(), reply * ms, reply * ms, 0.0});
  T.push_back({"request, cache hit (client rtt)", ok_total - computed, rtt_total[1] * ms,
               0.0, 0.0, (rtt_total[1] - send_total[1]) * ms});
  T.push_back({"  net.client.send", ok_total - computed, send_total[1] * ms,
               send_total[1] * ms, 0.0});
  const double assembly = scaled("batch_assembly", batches);
  T.push_back({"worker: batch assembly", batches, assembly * ms, 0.0, assembly * ms});
  const double worker = ch.sum + rescore;
  double kernels = 0.0;
  std::vector<LayerRow> kernel_rows;
  for (const auto& site : {"tensor/conv_eval/fused", "tensor/maxpool2d_eval",
                           "tensor/bn_relu_eval", "tensor/gemm_packed"}) {
    const auto& e = prow[site];
    const auto t = static_cast<double>(e.total_ns);
    kernels += t;
    kernel_rows.push_back({std::string("  ") + site, e.calls, t * ms, t * ms, 0.0});
  }
  T.push_back({"worker: compute + telemetry", batches, worker * ms, 0.0, 0.0,
               (worker - kernels) * ms});
  for (auto& r : kernel_rows) T.push_back(r);
  for (const auto& site : {"tensor/conv_eval/kernel", "runtime/parallel_for.dispatch"}) {
    const auto& e = prow[site];
    const auto t = static_cast<double>(e.total_ns);
    T.push_back({std::string("    (inside) ") + site, e.calls, t * ms, t * ms, 0.0});
  }

  // ---- models.forward alone on the served snapshot, server idle -----------
  const auto snap = st.registry->current();
  st.conns.clear();
  st.frontend->stop();
  st.server->shutdown();
  {
    ag::NoGradGuard ng;
    for (const std::int64_t b : {1, 8}) {
      const auto& chw = bank->shape();
      Tensor x({b, chw[0], chw[1], chw[2]});
      for (std::int64_t i = 0; i < b; ++i) {
        const Tensor row = bank->make(kWarmupBase + static_cast<std::uint32_t>(i));
        std::memcpy(x.data().data() + i * row.numel(), row.data().data(),
                    sizeof(float) * static_cast<std::size_t>(row.numel()));
      }
      std::vector<double> t;
      for (int k = 0; k < 60; ++k) {
        const std::int64_t a = clock_ns();
        const Tensor y = snap->forward(x);
        t.push_back(static_cast<double>(clock_ns() - a));
      }
      L["models.forward_ns.b" + std::to_string(b)] = {median(t), "ns"};
    }
  }

  // ---- output check: every ok reply vs the layer-by-layer reference -------
  // The reference snapshots are the same weights published with
  // prepack=false; a reply is checked against the model its version carries.
  std::vector<std::unique_ptr<serve::ModelRegistry>> refs;
  for (int which = 0; which < 2; ++which) {
    refs.push_back(std::make_unique<serve::ModelRegistry>());
    refs.back()->publish(
        clone_model(which ? *trained.prev_epoch : *trained.model),
        bank->shape(), "reference", /*prepack=*/false);
  }
  // (model, id) -> every reply slot that must match it.
  std::map<std::pair<int, std::uint32_t>, std::vector<const float*>> want;
  std::int64_t unknown_version = 0;
  for (const auto& pr : runs) {
    for (const auto& log : pr.logs) {
      for (std::size_t i = 0; i < log.recs.size(); ++i) {
        const Rec& r = log.recs[i];
        if (r.status != serve::net::WireStatus::kOk) continue;
        const auto it = vlog.model_of.find(r.version);
        if (it == vlog.model_of.end()) {
          ++unknown_version;
          continue;
        }
        want[{it->second, r.id}].push_back(log.logits.data() +
                                           static_cast<std::ptrdiff_t>(i) * nc);
      }
    }
  }
  checks.require(unknown_version == 0, "serve: every reply names a published version");
  // Reference rows are independent, so they are computed on nproc threads
  // with one pool lane each; logits are lane-count invariant by contract.
  std::vector<std::pair<std::pair<int, std::uint32_t>, const std::vector<const float*>*>>
      keys;
  for (const auto& [k, v] : want) keys.push_back({k, &v});
  constexpr std::size_t kRefBatch = 64;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  for (std::size_t b = 0; b < keys.size();) {
    std::size_t e = b;
    while (e < keys.size() && keys[e].first.first == keys[b].first.first &&
           e - b < kRefBatch) {
      ++e;
    }
    chunks.push_back({b, e});
    b = e;
  }
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::int64_t> mismatches{0}, checked{0};
  const std::int64_t check_t0 = clock_ns();
  const std::int64_t lanes = runtime::num_threads();
  runtime::set_num_threads(1);
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < nproc; ++t) {
      pool.emplace_back([&] {
        ag::NoGradGuard ng;
        const auto& chw = bank->shape();
        const std::int64_t row = chw[0] * chw[1] * chw[2];
        for (std::size_t c; (c = next_chunk++) < chunks.size();) {
          const auto [b, e] = chunks[c];
          Tensor x({static_cast<std::int64_t>(e - b), chw[0], chw[1], chw[2]});
          for (std::size_t i = b; i < e; ++i) {
            const Tensor in = bank->make(keys[i].first.second);
            std::memcpy(x.data().data() + static_cast<std::int64_t>(i - b) * row,
                        in.data().data(), sizeof(float) * static_cast<std::size_t>(row));
          }
          const int which = keys[b].first.first;
          const Tensor y = refs[static_cast<std::size_t>(which)]->current()->forward(x);
          for (std::size_t i = b; i < e; ++i) {
            const float* ref = y.data().data() + static_cast<std::int64_t>(i - b) * nc;
            for (const float* got : *keys[i].second) {
              ++checked;
              if (std::memcmp(ref, got, sizeof(float) * static_cast<std::size_t>(nc)) != 0) {
                ++mismatches;
              }
            }
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  runtime::set_num_threads(lanes);
  std::printf("output check: %lld ok replies against %zu reference rows in %.2f s\n",
              static_cast<long long>(checked.load()), want.size(),
              static_cast<double>(clock_ns() - check_t0) * 1e-9);
  checks.require(checked.load() == static_cast<std::int64_t>(ok_total),
                 "serve: every ok reply was checked");
  checks.require(mismatches.load() == 0, "serve: " + std::to_string(mismatches.load()) +
                                      " ok replies differ from the reference forward");
  return res;
}

}  // namespace ibbench
