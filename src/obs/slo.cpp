#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace ibrar::obs {

const char* slo_state_name(SloState s) {
  switch (s) {
    case SloState::kOk:
      return "ok";
    case SloState::kWarning:
      return "warning";
    case SloState::kBreach:
      return "breach";
  }
  return "?";
}

SloMonitor::SloMonitor(SloSpec spec)
    : spec_(std::move(spec)),
      g_state_(registry().gauge("obs.slo." + spec_.name + ".state")),
      breach_event_("slo.breach." + spec_.name),
      warning_event_("slo.warning." + spec_.name) {
  spec_.objective = std::max(spec_.objective, 1e-12);
  spec_.fast_window_ns = std::max<std::int64_t>(spec_.fast_window_ns, 1);
  spec_.slow_window_ns =
      std::max(spec_.slow_window_ns, spec_.fast_window_ns);
  g_state_.set(0.0);
}

double SloMonitor::burn(const TimeSeriesStore& ts,
                        std::int64_t window_ns) const {
  if (spec_.kind == SloSpec::Kind::kValueBelow) {
    // Mean of the value series over the trailing window: smoother than the
    // last sample alone, and a series that has gone quiet keeps its last
    // known level instead of reading zero.
    if (spec_.bad_series.empty()) return 0.0;
    const auto samples = ts.series(spec_.bad_series[0]);
    if (samples.empty()) return 0.0;
    const std::int64_t horizon = samples.back().t_ns - window_ns;
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& s : samples) {
      if (s.t_ns < horizon) continue;
      sum += s.value;
      ++n;
    }
    return n == 0 ? 0.0 : (sum / static_cast<double>(n)) / spec_.objective;
  }
  double bad = 0.0;
  for (const auto& name : spec_.bad_series) bad += ts.rate(name, window_ns);
  const double good = ts.rate(spec_.good_series, window_ns);
  const double total = bad + good;
  if (total <= 0.0) return 0.0;  // no traffic burns no budget
  return (bad / total) / spec_.objective;
}

SloState SloMonitor::evaluate(const TimeSeriesStore& ts, std::int64_t t_ns) {
  if (t_ns < 0) t_ns = now_ns();
  fast_rate_ = burn(ts, spec_.fast_window_ns);
  slow_rate_ = burn(ts, spec_.slow_window_ns);
  SloState computed = SloState::kOk;
  if (fast_rate_ >= spec_.fast_burn && slow_rate_ >= 1.0) {
    computed = SloState::kBreach;
  } else if (slow_rate_ >= spec_.slow_burn) {
    computed = SloState::kWarning;
  }
  // Episode monotonicity: escalate freely, de-escalate only to ok.
  SloState next = state_;
  if (computed == SloState::kOk) {
    next = SloState::kOk;
  } else if (static_cast<int>(computed) > static_cast<int>(state_)) {
    next = computed;
  }
  if (next != state_) {
    ++transitions_;
    if (static_cast<int>(next) > static_cast<int>(state_)) {
      // Structured escalation event: zero-duration span on the same time
      // axis as request spans, correlated by transition ordinal.
      record_span(next == SloState::kBreach ? breach_event_.c_str()
                                            : warning_event_.c_str(),
                  t_ns, t_ns, transitions_);
    }
    state_ = next;
  }
  last_eval_ns_ = t_ns;
  g_state_.set(static_cast<double>(static_cast<int>(state_)));
  return state_;
}

SloStatus SloMonitor::status() const {
  SloStatus st;
  st.name = spec_.name;
  st.state = state_;
  st.fast_burn_rate = fast_rate_;
  st.slow_burn_rate = slow_rate_;
  st.objective = spec_.objective;
  st.transitions = transitions_;
  st.last_eval_ns = last_eval_ns_;
  return st;
}

SloMonitor& SloRegistry::add(SloSpec spec) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& m : monitors_) {
    if (m.spec().name == spec.name) return m;
  }
  monitors_.emplace_back(std::move(spec));
  return monitors_.back();
}

void SloRegistry::evaluate(const TimeSeriesStore& ts, std::int64_t t_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& m : monitors_) m.evaluate(ts, t_ns);
}

std::vector<SloStatus> SloRegistry::statuses() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SloStatus> out;
  out.reserve(monitors_.size());
  for (const auto& m : monitors_) out.push_back(m.status());
  return out;
}

std::string SloRegistry::to_json() const {
  const auto sts = statuses();
  std::string out = "{\"slos\":[";
  char buf[160];
  for (std::size_t i = 0; i < sts.size(); ++i) {
    const SloStatus& s = sts[i];
    out += i == 0 ? "\n{\"name\":\"" : ",\n{\"name\":\"";
    out += s.name;
    std::snprintf(buf, sizeof buf,
                  "\",\"state\":\"%s\",\"state_value\":%d,"
                  "\"fast_burn_rate\":%.6g,\"slow_burn_rate\":%.6g,"
                  "\"objective\":%.6g,\"transitions\":%llu}",
                  slo_state_name(s.state), static_cast<int>(s.state),
                  s.fast_burn_rate, s.slow_burn_rate, s.objective,
                  static_cast<unsigned long long>(s.transitions));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::size_t SloRegistry::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return monitors_.size();
}

SloRegistry& slos() {
  static SloRegistry* reg = new SloRegistry();  // leaked: see trace.cpp
  return *reg;
}

void register_default_serve_slos() {
  {
    SloSpec s;
    s.name = "serve_compute_p99";
    s.kind = SloSpec::Kind::kValueBelow;
    s.bad_series = {"serve.compute_ns.p99"};
    s.objective = 5e8;  // p99 batch compute under 500ms
    slos().add(std::move(s));
  }
  {
    SloSpec s;
    s.name = "serve_reject_rate";
    s.kind = SloSpec::Kind::kRatio;
    // Every queue-full reply bumps both serve.rejected_full and
    // serve.admission.busy; count it once.
    s.bad_series = {"serve.rejected_full", "serve.admission.throttled"};
    s.good_series = "serve.accepted";
    s.objective = 0.05;  // at most 5% of traffic turned away
    slos().add(std::move(s));
  }
  {
    SloSpec s;
    s.name = "serve_cache_miss_rate";
    s.kind = SloSpec::Kind::kRatio;
    s.bad_series = {"serve.cache.misses"};
    s.good_series = "serve.cache.hits";
    // Deliberately loose: random CI traffic is nearly all misses; this SLO
    // exists to flag a cache that stopped hitting entirely in a deployment
    // that expects duplicates.
    s.objective = 0.99;
    slos().add(std::move(s));
  }
}

}  // namespace ibrar::obs
