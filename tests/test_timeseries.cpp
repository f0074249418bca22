// Continuous-telemetry tier: time-series ring exactness (including rate
// across the overwrite boundary), SLO burn-rate state transitions + episode
// monotonicity, flat registry cardinality across hot-swaps, drift-detector
// control bands, the EWMA-vs-tumbling telemetry A/B (scripted clean -> PGD
// shift must flip drift within <= 3 windows; all-clean never does), and the
// read-only HTTP admin endpoint.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "models/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "serve/model_registry.hpp"
#include "serve/net/admin.hpp"
#include "serve/server.hpp"
#include "serve/telemetry.hpp"
#include "tensor/random.hpp"
#include "util/rng.hpp"

namespace ibrar {
namespace {

constexpr std::int64_t kSec = 1'000'000'000;

// ---- time-series store ------------------------------------------------------

TEST(TimeSeries, RingKeepsNewestAndCountsDrops) {
  obs::TimeSeriesConfig cfg;
  cfg.capacity = 4;
  obs::TimeSeriesStore store(cfg);
  for (int i = 0; i < 10; ++i) {
    store.append("r", i * kSec, static_cast<double>(i * 10));
  }
  // 10 appended into a 4-deep ring: the 6 oldest were overwritten, counted.
  EXPECT_EQ(store.dropped_samples(), 6u);
  const auto s = store.series("r");
  ASSERT_EQ(s.size(), 4u);
  // Oldest-first and exactly the newest four.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s[static_cast<std::size_t>(i)].t_ns, (6 + i) * kSec);
    EXPECT_DOUBLE_EQ(s[static_cast<std::size_t>(i)].value, (6 + i) * 10.0);
  }
  EXPECT_DOUBLE_EQ(store.last("r"), 90.0);
  EXPECT_TRUE(store.series("unknown").empty());
}

TEST(TimeSeries, RateIsExactAcrossOverwriteBoundary) {
  obs::TimeSeriesConfig cfg;
  cfg.capacity = 4;
  obs::TimeSeriesStore store(cfg);
  // A counter climbing 10/s; the ring wraps (only t=6..9 survive).
  for (int i = 0; i < 10; ++i) {
    store.append("c", i * kSec, static_cast<double>(i * 10));
  }
  // A window wider than retained history: the base falls back to the oldest
  // SURVIVING sample, so the delta stays exact over the span actually used.
  EXPECT_DOUBLE_EQ(store.rate("c", 100 * kSec), 10.0);
  // A window inside the ring picks the right base sample (t=7).
  EXPECT_DOUBLE_EQ(store.rate("c", 2 * kSec), 10.0);
  // Fewer than two samples in any window -> 0.
  obs::TimeSeriesStore fresh(cfg);
  fresh.append("c", 0, 5.0);
  EXPECT_DOUBLE_EQ(fresh.rate("c", 100 * kSec), 0.0);
  EXPECT_DOUBLE_EQ(fresh.rate("unknown", kSec), 0.0);
}

TEST(TimeSeries, SampleNowDerivesSeriesFromEveryMetricKind) {
  obs::MetricsRegistry reg;
  reg.counter("t.c").inc(5);
  reg.gauge("t.g").set(2.5);
  for (int i = 1; i <= 100; ++i) {
    reg.histogram("t.h").observe(static_cast<double>(i));
  }
  obs::TimeSeriesStore store;
  store.sample_now(reg, 1 * kSec);
  reg.counter("t.c").inc(3);
  store.sample_now(reg, 2 * kSec);

  const auto c = store.series("t.c");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0].value, 5.0);
  EXPECT_DOUBLE_EQ(c[1].value, 8.0);
  EXPECT_DOUBLE_EQ(store.rate("t.c", 10 * kSec), 3.0);  // +3 over 1s
  EXPECT_DOUBLE_EQ(store.last("t.g"), 2.5);
  EXPECT_DOUBLE_EQ(store.last("t.h.count"), 100.0);
  EXPECT_DOUBLE_EQ(store.last("t.h.mean"), 50.5);
  // Percentile track brackets the true order statistic from above.
  const auto p99 = store.percentile_series("t.h", 0.99);
  ASSERT_EQ(p99.size(), 2u);
  EXPECT_GE(p99.back().value, 99.0);
  EXPECT_LE(p99.back().value, 99.0 * 1.1251);
  EXPECT_EQ(store.ticks(), 2u);
  const auto names = store.series_names();
  EXPECT_EQ(names.size(), store.series_count());
}

// ---- SLO state machine ------------------------------------------------------

TEST(Slo, BurnRateStatesEscalateMonotonicallyThenRecover) {
  obs::TimeSeriesConfig cfg;
  cfg.capacity = 128;
  obs::TimeSeriesStore store(cfg);

  obs::SloSpec spec;
  spec.name = "test_reject";
  spec.kind = obs::SloSpec::Kind::kRatio;
  spec.bad_series = {"bad"};
  spec.good_series = "good";
  spec.objective = 0.1;  // 10% bad-event budget
  spec.fast_window_ns = 5 * kSec;
  spec.slow_window_ns = 15 * kSec;
  spec.fast_burn = 2.0;
  spec.slow_burn = 1.0;
  obs::SloMonitor mon(spec);

  double bad = 0.0, good = 0.0;
  std::vector<obs::SloState> states;
  int tick = 0;
  auto run = [&](int n, double bad_per_s, double good_per_s) {
    for (int i = 0; i < n; ++i, ++tick) {
      bad += bad_per_s;
      good += good_per_s;
      store.append("bad", tick * kSec, bad);
      store.append("good", tick * kSec, good);
      states.push_back(mon.evaluate(store, tick * kSec));
    }
  };
  run(10, 0.0, 100.0);   // clean: ratio 0
  run(12, 15.0, 85.0);   // 15% sustained: slow burn 1.5 -> warning
  run(8, 50.0, 50.0);    // 50%: fast burn 5 >= 2, slow >= 1 -> breach
  run(30, 0.0, 100.0);   // recovery: windows drain back to ok

  // All three states were visited, in escalation order.
  auto first = [&](obs::SloState s) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i] == s) return static_cast<int>(i);
    }
    return -1;
  };
  const int w = first(obs::SloState::kWarning);
  const int b = first(obs::SloState::kBreach);
  ASSERT_GE(w, 10);
  ASSERT_GT(b, w);
  EXPECT_EQ(states.front(), obs::SloState::kOk);
  EXPECT_EQ(states.back(), obs::SloState::kOk);
  // Episode monotonicity: the state never de-escalates breach -> warning;
  // the only way down is a clean evaluation straight to ok.
  for (std::size_t i = 1; i < states.size(); ++i) {
    if (static_cast<int>(states[i]) < static_cast<int>(states[i - 1])) {
      EXPECT_EQ(states[i], obs::SloState::kOk)
          << "de-escalated to non-ok at tick " << i;
    }
  }
  const auto st = mon.status();
  EXPECT_EQ(st.name, "test_reject");
  EXPECT_GE(st.transitions, 3u);  // ok->warning->breach->ok at minimum
}

TEST(Slo, ValueBelowUsesWindowedMeanOfSeries) {
  obs::TimeSeriesStore store;
  obs::SloSpec spec;
  spec.name = "test_latency";
  spec.kind = obs::SloSpec::Kind::kValueBelow;
  spec.bad_series = {"lat.p99"};
  spec.objective = 100.0;
  spec.fast_window_ns = 5 * kSec;
  spec.slow_window_ns = 10 * kSec;
  spec.fast_burn = 2.0;
  spec.slow_burn = 1.0;
  obs::SloMonitor mon(spec);

  for (int i = 0; i < 12; ++i) store.append("lat.p99", i * kSec, 50.0);
  EXPECT_EQ(mon.evaluate(store, 11 * kSec), obs::SloState::kOk);
  for (int i = 12; i < 30; ++i) store.append("lat.p99", i * kSec, 400.0);
  EXPECT_EQ(mon.evaluate(store, 29 * kSec), obs::SloState::kBreach);
  const auto st = mon.status();
  EXPECT_GE(st.fast_burn_rate, 2.0);
  // The state gauge mirrors the machine.
  const auto snap = obs::registry().snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("obs.slo.test_latency.state"), 2.0);
}

TEST(Slo, RegistryIsIdempotentAndRendersJson) {
  obs::register_default_serve_slos();
  const std::size_t n = obs::slos().size();
  obs::register_default_serve_slos();  // second call adds nothing
  EXPECT_EQ(obs::slos().size(), n);
  EXPECT_GE(n, 3u);
  const std::string json = obs::slos().to_json();
  EXPECT_NE(json.find("\"slos\":["), std::string::npos);
  EXPECT_NE(json.find("serve_compute_p99"), std::string::npos);
  EXPECT_NE(json.find("\"state\":"), std::string::npos);
}

// ---- drift detector ---------------------------------------------------------

TEST(Drift, ControlBandsFlipOnShiftAndClearOnReturn) {
  serve::DriftDetector d;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.observe(0.10 + 0.001 * (i % 3)), serve::DriftDetector::kStable);
  }
  EXPECT_NEAR(d.mean(), 0.10, 0.01);
  EXPECT_EQ(d.observe(0.90), serve::DriftDetector::kDrift);
  EXPECT_EQ(d.state(), serve::DriftDetector::kDrift);
  // A persistent shift stays flagged: the baseline does not learn it.
  EXPECT_EQ(d.observe(0.90), serve::DriftDetector::kDrift);
  EXPECT_NEAR(d.mean(), 0.10, 0.01);
  // Traffic returns in-band -> state clears.
  EXPECT_EQ(d.observe(0.10), serve::DriftDetector::kStable);
}

// ---- EWMA vs tumbling telemetry A/B -----------------------------------------

// Synthetic last-conv tap rows with a known channel structure:
//  * channels 0..7 carry the label (high HSIC -> robust set),
//  * channels 8..15 are near-silent noise (low HSIC -> suspicious set).
// Clean rows put their energy in the label-carrying channels; "PGD-shifted"
// rows dump it into the suspicious ones — exactly the signature the paper's
// Eq. (3) monitor is built to notice.
constexpr std::int64_t kChans = 16;
constexpr std::int64_t kSpatial = 4;

std::vector<float> clean_row(int i) {
  std::vector<float> row(static_cast<std::size_t>(kChans * kSpatial));
  const int y = i % 2;
  for (std::int64_t c = 0; c < kChans; ++c) {
    float v;
    if (c < 8) {
      v = (c % 2 == y) ? 1.0f : 0.1f;
    } else {
      v = 0.05f + 0.001f * static_cast<float>((i + c) % 3);
    }
    for (std::int64_t s = 0; s < kSpatial; ++s) {
      row[static_cast<std::size_t>(c * kSpatial + s)] = v;
    }
  }
  return row;
}

std::vector<float> adv_row(int i) {
  std::vector<float> row(static_cast<std::size_t>(kChans * kSpatial));
  for (std::int64_t c = 0; c < kChans; ++c) {
    const float v = c < 8 ? 0.1f : 1.0f + 0.001f * static_cast<float>(i % 3);
    for (std::int64_t s = 0; s < kSpatial; ++s) {
      row[static_cast<std::size_t>(c * kSpatial + s)] = v;
    }
  }
  return row;
}

/// Feed `windows` scoring windows of clean or adversarial rows; returns the
/// number of windows fed before drift flipped (or -1 if it never did).
int feed_windows(serve::RobustnessMonitor& mon, int windows, bool adv,
                 int* counter) {
  const std::int64_t w = mon.config().window;
  int flipped_at = -1;
  for (int win = 0; win < windows; ++win) {
    for (std::int64_t s = 0; s < w; ++s) {
      const int i = (*counter)++;
      const auto row = adv ? adv_row(i) : clean_row(i);
      mon.observe(row.data(), kChans, kSpatial, i % 2, 2);
    }
    if (flipped_at < 0 &&
        mon.drift_state() == serve::DriftDetector::kDrift) {
      flipped_at = win + 1;
    }
  }
  return flipped_at;
}

TEST(TelemetryDrift, CleanToPgdShiftFlipsWithinThreeWindowsCleanNever) {
  serve::TelemetryConfig base;
  base.sample_every = 1;
  base.window = 8;
  base.suspicious_fraction = 0.25f;

  for (const bool ewma : {true, false}) {
    serve::TelemetryConfig cfg = base;
    cfg.ewma = ewma;
    // A/B arm 1: scripted clean -> PGD-like shift.
    serve::RobustnessMonitor shifted(cfg);
    int idx = 0;
    ASSERT_EQ(feed_windows(shifted, 8, /*adv=*/false, &idx), -1)
        << "clean warmup must not trip drift (ewma=" << ewma << ")";
    const int flipped = feed_windows(shifted, 3, /*adv=*/true, &idx);
    EXPECT_GE(flipped, 1) << "shift never flipped drift (ewma=" << ewma << ")";
    EXPECT_LE(flipped, 3) << "drift too slow (ewma=" << ewma << ")";
    // (No assertion on the FINAL state: once the monitor re-scores on the
    // shifted traffic its suspicion normalizes against the new mask, and the
    // detector may legitimately clear — the alert is the transition.)

    // A/B arm 2: all-clean control traffic never flips.
    serve::RobustnessMonitor control(cfg);
    int cidx = 0;
    EXPECT_EQ(feed_windows(control, 16, /*adv=*/false, &cidx), -1)
        << "all-clean traffic flipped drift (ewma=" << ewma << ")";
    EXPECT_EQ(control.drift_state(), serve::DriftDetector::kStable);
  }
}

TEST(TelemetryDrift, EwmaBlendsScoresTumblingReplacesThem) {
  serve::TelemetryConfig cfg;
  cfg.sample_every = 1;
  cfg.window = 8;
  cfg.ewma = true;
  cfg.ewma_decay = 0.5f;
  serve::RobustnessMonitor ewma(cfg);
  cfg.ewma = false;
  serve::RobustnessMonitor tumbling(cfg);

  // Identical script through both monitors: clean epochs, then a shift.
  int ia = 0, ib = 0;
  feed_windows(ewma, 4, false, &ia);
  feed_windows(tumbling, 4, false, &ib);
  feed_windows(ewma, 2, true, &ia);
  feed_windows(tumbling, 2, true, &ib);

  const auto sa = ewma.channel_scores();
  const auto sb = tumbling.channel_scores();
  ASSERT_EQ(sa.size(), static_cast<std::size_t>(kChans));
  ASSERT_EQ(sb.size(), sa.size());
  // Tumbling forgot the clean epochs entirely; EWMA carries half of each
  // previous epoch, so the score vectors must have diverged.
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(sa[i] - sb[i]));
  }
  EXPECT_GT(max_diff, 1e-6f);
  EXPECT_EQ(ewma.score_epoch(), tumbling.score_epoch());
}

// ---- server integration: hot-swaps keep the registry flat -----------------

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

Tensor sample_input(std::uint64_t seed) {
  Rng rng(seed);
  return rand_uniform({kChannels, kSize, kSize}, rng, 0.0f, 1.0f);
}

TEST(Server, HotSwapsAddNoMetricNames) {
  // Replies and trace spans carry the model version; the registry keeps no
  // per-version family, so its cardinality stays flat however many versions
  // are published and served.
  serve::ModelRegistry reg;
  reg.publish(tiny_model(1), {kChannels, kSize, kSize});
  serve::ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.deadline_us = 0;
  cfg.queue_capacity = 16;
  serve::Server server(reg, cfg);
  ASSERT_TRUE(server.submit(sample_input(0)).get().ok());
  const std::size_t names = obs::registry().size();
  for (std::uint64_t s = 2; s <= 51; ++s) {
    const std::uint64_t v =
        reg.publish(tiny_model(s), {kChannels, kSize, kSize});
    for (std::uint64_t i = 0; i < 2; ++i) {
      const auto r = server.submit(sample_input(10 * s + i)).get();
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.model_version, v);
    }
    EXPECT_EQ(obs::registry().size(), names) << "after publish " << s;
  }
}

// ---- admin endpoint ---------------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(Admin, ServesMetricsSloAndTimeseriesReadOnly) {
  obs::registry().counter("admin.test.counter").inc(3);
  obs::timeseries().sample_now(obs::registry());
  obs::register_default_serve_slos();
  obs::slos().evaluate(obs::timeseries());

  serve::net::AdminEndpoint admin;  // port 0 -> kernel-assigned
  ASSERT_GT(admin.port(), 0);

  const std::string metrics = http_get(admin.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  // Names are sanitized into the Prometheus charset.
  EXPECT_NE(metrics.find("\nadmin_test_counter 3"), std::string::npos)
      << metrics.substr(0, 400);
  EXPECT_NE(metrics.find("# TYPE admin_test_counter counter"),
            std::string::npos);

  const std::string slo = http_get(admin.port(), "/slo");
  EXPECT_NE(slo.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(slo.find("\"slos\":["), std::string::npos);
  EXPECT_NE(slo.find("serve_reject_rate"), std::string::npos);

  const std::string listing = http_get(admin.port(), "/timeseries");
  EXPECT_NE(listing.find("\"series\":["), std::string::npos);
  const std::string ts =
      http_get(admin.port(), "/timeseries?name=admin.test.counter");
  EXPECT_NE(ts.find("\"name\":\"admin.test.counter\""), std::string::npos);
  EXPECT_NE(ts.find("\"samples\":[{"), std::string::npos);

  EXPECT_NE(http_get(admin.port(), "/bogus").find("HTTP/1.0 404"),
            std::string::npos);
  // Read-only contract: non-GET methods are refused at the door.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(admin.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const std::string req = "POST /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    std::string out;
    char buf[512];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_NE(out.find("HTTP/1.0 405"), std::string::npos);
  }
  admin.stop();
  admin.stop();  // idempotent
}

TEST(Admin, RenderHandlesUnknownSeriesGracefully) {
  const std::string resp =
      serve::net::render_admin_response("/timeseries?name=no.such.series");
  EXPECT_NE(resp.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(resp.find("\"samples\":[]"), std::string::npos);
}

}  // namespace
}  // namespace ibrar
