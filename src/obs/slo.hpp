#pragma once
// Continuous telemetry tier 2: declarative SLO monitors with multi-window
// burn-rate evaluation (the Google SRE alerting recipe).
//
// An SloSpec states an objective ("at most 5% of requests rejected", "p99
// compute under 500ms") plus two evaluation windows. Each evaluation
// computes the *burn rate* — how fast the error budget is being consumed,
// where 1.0 means "exactly on budget" — over both windows from the
// time-series store:
//
//   kRatio      burn(w) = (bad_rate(w) / (bad_rate(w) + good_rate(w)))
//                         / objective
//   kValueBelow burn(w) = windowed_mean(series, w) / objective
//
// and drives a three-state machine:
//
//   breach  : fast burn >= fast_burn AND slow burn >= 1.0
//             (the page condition — burning hot now, and the long window
//             confirms it is not a blip)
//   warning : slow burn >= slow_burn (sustained slow burn — ticket, not page)
//   ok      : otherwise
//
// Within an episode the state is monotone: it can escalate warning -> breach
// but never de-escalates to warning — it holds until the monitor evaluates
// clean, then drops to ok (tools/check_serve_stats.py gates this on CI
// scrapes). Every monitor mirrors its state into the obs.slo.<name>.state
// gauge (0/1/2) and records a zero-duration structured event in the trace on
// each escalation ("slo.breach.<name>" / "slo.warning.<name>", correlation
// id = transition count), so breaches land in the same timeline as request
// spans.
//
// Evaluation is driven by the time-series sampler (obs::start_sampler) after
// each tick, or explicitly via slos().evaluate(...) — it reads only the
// store and touches no serving lock.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace ibrar::obs {

enum class SloState { kOk = 0, kWarning = 1, kBreach = 2 };

const char* slo_state_name(SloState s);

struct SloSpec {
  enum class Kind {
    kRatio,       ///< bad-event fraction of traffic vs an objective ratio
    kValueBelow,  ///< a value series must stay below the objective
  };
  std::string name;  ///< gauge suffix: obs.slo.<name>.state
  Kind kind = Kind::kRatio;
  /// kRatio: counter series summed as the bad-event rate.
  /// kValueBelow: exactly one value series (e.g. "serve.compute_ns.p99").
  std::vector<std::string> bad_series;
  /// kRatio only: counter series for the GOOD events (bad fraction is
  /// bad / (bad + good), so e.g. serve.accepted works as the good side of a
  /// reject-rate SLO without a total counter existing anywhere).
  std::string good_series;
  /// Max bad fraction (kRatio) or value ceiling (kValueBelow).
  double objective = 0.01;
  std::int64_t fast_window_ns = 60LL * 1000 * 1000 * 1000;        ///< 1 min
  std::int64_t slow_window_ns = 10LL * 60 * 1000 * 1000 * 1000;   ///< 10 min
  double fast_burn = 4.0;  ///< fast-window threshold for the breach state
  double slow_burn = 1.0;  ///< slow-window threshold for the warning state
};

struct SloStatus {
  std::string name;
  SloState state = SloState::kOk;
  double fast_burn_rate = 0.0;
  double slow_burn_rate = 0.0;
  double objective = 0.0;
  std::uint64_t transitions = 0;   ///< state changes since construction
  std::int64_t last_eval_ns = 0;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloSpec spec);

  /// Evaluate against the store at time t_ns (defaults to now); updates the
  /// state gauge, records an escalation event in the trace if the state
  /// rose, and returns the new state.
  SloState evaluate(const TimeSeriesStore& ts, std::int64_t t_ns = -1);

  SloStatus status() const;
  const SloSpec& spec() const { return spec_; }

 private:
  double burn(const TimeSeriesStore& ts, std::int64_t window_ns) const;

  SloSpec spec_;
  SloState state_ = SloState::kOk;
  double fast_rate_ = 0.0;
  double slow_rate_ = 0.0;
  std::uint64_t transitions_ = 0;
  std::int64_t last_eval_ns_ = 0;
  Gauge& g_state_;
  // Trace span names must outlive any dump; monitors live in the leaked SLO
  // registry, so member strings do.
  const std::string breach_event_;
  const std::string warning_event_;
};

/// Process-global monitor set, evaluated by the sampler thread.
class SloRegistry {
 public:
  /// Register a monitor; a spec whose name is already registered is ignored
  /// (idempotent defaults). The reference is stable for the process.
  SloMonitor& add(SloSpec spec);

  /// Evaluate every monitor (sampler tick / tests).
  void evaluate(const TimeSeriesStore& ts, std::int64_t t_ns = -1);

  std::vector<SloStatus> statuses() const;

  /// {"slos":[{name, state, state_value, fast_burn_rate, ...}]} — what the
  /// admin endpoint's GET /slo serves.
  std::string to_json() const;

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::deque<SloMonitor> monitors_;  // deque: references stable on growth
};

SloRegistry& slos();

/// Install the default serving SLOs (idempotent):
///   serve_compute_p99 — p99 of serve.compute_ns under 500ms
///   serve_reject_rate — queue-full rejects + throttles under 5% of traffic
///   serve_cache_miss_rate — cache misses under 99% of lookups
void register_default_serve_slos();

}  // namespace ibrar::obs
