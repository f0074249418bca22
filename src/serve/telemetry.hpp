#pragma once
// Per-request robustness telemetry: the paper's Eq. (3) channel signal, live.
//
// IB-RAR scores each last-conv channel by HSIC(f_c, Y) and treats the
// low-scoring ones as non-robust — the channels adversarial perturbations
// exploit. The serving runtime streams that same signal over live traffic:
// every Kth admitted request is sampled (the server hands over its row of the
// last-conv tap the batch's own serving forward already computed — taps are
// batch-size-independent, so this equals a batch-1 capture bit for bit), the
// sampled taps accumulate into a tumbling scoring window, and each time the
// window fills the per-channel scores are recomputed with
// mi::channel_label_scores (against the model's own predictions — no ground
// truth exists at serving time; the parallel per-channel loop keeps this
// affordable on a live worker, and the re-score runs on a double-buffered
// copy of the window OUTSIDE the monitor mutex so concurrent workers keep
// observing while one recomputes). A sampled request's reply then carries a
// `suspicion` reading: the fraction of its activation energy living in the
// currently low-scoring channels. Clean traffic concentrates energy in robust
// channels; inputs pushed toward the non-robust ones read high.
//
// Telemetry runs no forward of its own. Each sampled request costs an
// O(C * spatial) energy sweep plus a copy of its tap into the window; one
// windowed HSIC re-score runs per window * K requests.

#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/reply.hpp"
#include "tensor/tensor.hpp"

namespace ibrar::serve {

struct TelemetryConfig {
  /// Sample every Kth admitted request; 0 disables telemetry entirely.
  std::int64_t sample_every = 0;
  /// Sampled taps per scoring window (window full -> channel scores refresh).
  std::int64_t window = 64;
  /// Bottom fraction of channels (by current score) counted as suspicious —
  /// mirrors the paper's Eq. (3) drop fraction.
  float suspicious_fraction = 0.25f;
  /// Sliding re-score (IBRAR_SERVE_TELEMETRY_EWMA): instead of REPLACING the
  /// channel scores each tumbling window, blend
  ///   scores = ewma_decay * previous + (1 - ewma_decay) * window
  /// so suspicion tracks drifting traffic without forgetting the clean
  /// baseline at every epoch boundary (ROADMAP item 4, PR-5 follow-up).
  bool ewma = false;
  /// Weight kept on the previous epoch's scores per completed window.
  float ewma_decay = 0.5f;
};

/// EWMA control-band change detector over a scalar series (here: the
/// per-window mean suspicion). Maintains exponentially-weighted mean and
/// variance of the in-band baseline; an observation farther than
/// band_sigma * stddev (floored at min_band) from the mean is out-of-band,
/// and `trip` consecutive out-of-band observations raise the drift state.
/// Out-of-band points are NOT absorbed into the baseline — a genuine
/// distribution shift keeps the detector latched instead of teaching it the
/// new normal. An in-band observation clears the state.
class DriftDetector {
 public:
  struct Config {
    double decay = 0.8;       ///< weight kept on the old mean/var per update
    double band_sigma = 4.0;  ///< band half-width in baseline stddevs
    double min_band = 0.05;   ///< absolute floor on the band half-width
    std::int64_t warmup = 4;  ///< observations absorbed before bands arm
    std::int64_t trip = 1;    ///< consecutive out-of-band points to flip
  };
  /// States for the serve.telemetry.drift_state gauge.
  static constexpr int kStable = 0;
  static constexpr int kDrift = 1;

  // Two constructors instead of one defaulted argument: `Config cfg =
  // Config()` would need the nested type complete inside its own enclosing
  // class, which the language disallows.
  DriftDetector();
  explicit DriftDetector(Config cfg);

  /// Feed one observation; returns the state after it.
  int observe(double v);

  int state() const { return state_; }
  double mean() const { return mean_; }
  double stddev() const;
  std::int64_t observations() const { return n_; }
  void reset();

 private:
  Config cfg_;
  double mean_ = 0.0;
  double var_ = 0.0;
  std::int64_t n_ = 0;
  std::int64_t out_run_ = 0;
  int state_ = kStable;
};

/// Thread-safe accumulator behind the server's telemetry path.
class RobustnessMonitor {
 public:
  explicit RobustnessMonitor(TelemetryConfig cfg);

  bool enabled() const { return cfg_.sample_every > 0; }

  /// Cadence gate: true for admission indices 0, K, 2K, ...
  bool should_sample(std::uint64_t request_index) const {
    return enabled() &&
           request_index % static_cast<std::uint64_t>(cfg_.sample_every) == 0;
  }

  /// Record one sampled request's last-conv tap — `tap_row` is the flattened
  /// (channels * spatial) activation — plus the model's predicted label.
  /// Returns the telemetry to attach to the reply: suspicion against the
  /// most recent score vector (negative before the first window completes)
  /// and the score epoch it was computed under. Refreshes the channel scores
  /// when this sample fills the window; the refresh itself runs outside the
  /// monitor lock (other threads' observe() calls proceed against the
  /// previous scores meanwhile), and the caller that filled the window
  /// returns telemetry stamped with the new epoch.
  RequestTelemetry observe(const float* tap_row, std::int64_t channels,
                           std::int64_t spatial, std::int64_t pred,
                           std::int64_t num_classes);

  /// Completed scoring windows so far (the `score_epoch` generation).
  std::uint64_t score_epoch() const;

  /// Copy of the current per-channel scores (empty before the first epoch).
  std::vector<float> channel_scores() const;

  /// Samples accumulated toward the next scoring window.
  std::int64_t window_fill() const;

  /// Total samples observed.
  std::uint64_t samples() const;

  /// Drift over the per-window mean suspicion series: each completed window
  /// feeds one observation to an EWMA control-band DriftDetector, so a
  /// clean -> adversarial traffic shift that inflates suspicion flips the
  /// state (mirrored into the serve.telemetry.drift_state gauge by the
  /// server). DriftDetector::kStable / kDrift.
  int drift_state() const;

  /// Copy of the detector (baseline mean/stddev, observation count) for
  /// tests and the admin endpoint.
  DriftDetector drift_snapshot() const;

  const TelemetryConfig& config() const { return cfg_; }

 private:
  TelemetryConfig cfg_;
  mutable std::mutex mu_;
  // Tumbling window of sampled taps, stored flat (window, channels * spatial)
  // with the predicted labels alongside; re-scored when fill_ wraps.
  std::vector<float> window_taps_;
  std::vector<std::int64_t> window_preds_;
  std::int64_t fill_ = 0;
  std::int64_t channels_ = 0;
  std::int64_t spatial_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t epoch_ = 0;
  std::vector<float> scores_;          // last completed window's scores
  Tensor suspicious_mask_{Shape{0}};   // 0 = suspicious channel, 1 = robust
  // Suspicion accumulated over the current window, fed to drift_ as one
  // mean observation when the window completes.
  double win_susp_sum_ = 0.0;
  std::int64_t win_susp_n_ = 0;
  DriftDetector drift_;
};

}  // namespace ibrar::serve
