#pragma once
// Serving session: publish the trained model, start Server + TcpFrontend,
// then drive three timed phases through the socket from one process, in
// interleaved rounds of one slice each:
//   capacity  closed loop, pipelined, fixed in-flight window
//   light     open-loop Poisson at the workload's fixed light rate
//   heavy     open-loop Poisson at the workload's fixed heavy rate
// Latency is timed from each request's due time; a non-ok reply counts as
// +inf. Every ok reply's logits are checked afterwards against the
// layer-by-layer reference forward (prepack=false) of the version that
// served it.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"
#include "train_phase.hpp"

namespace ibbench {

struct PhaseReport {
  std::string name;
  std::int64_t sent = 0, ok = 0, busy = 0, failed = 0;
  double seconds = 0.0;  ///< scheduled length, summed over slices
  double late_p99_ms = 0.0, late_max_ms = 0.0;  ///< send - due
  double p50_ms = 0.0;       ///< open loop: calm quantile of window p50s
  double p99_ms = 0.0;       ///< open loop: calm quantile of window p99s
  double p99_all_ms = 0.0;   ///< p99 over the whole phase (printed only)
  std::int64_t windows = 0;  ///< windows the figures are taken over
                             ///< (open loop: sliding, overlapping)
  double ok_per_s = 0.0;     ///< closed loop: calm quantile of window rates;
                             ///< open loop: achieved rate (printed only)
  /// The per-window figures, in slice order.
  std::vector<double> win_p50_ms, win_p99_ms, win_rate;
};

struct ServeResult {
  std::vector<double> setup_s;  ///< one per set-up repetition
  std::vector<PhaseReport> phases;
  double capacity_rps = 0.0;
  Metrics layers;               ///< per-layer metrics (traced runs)
  std::vector<LayerRow> table;  ///< per-layer table (traced runs)
  std::int64_t attempted = 0, failed = 0;
};

/// `bank` supplies the base images (test split); `seconds` is split across
/// the three timed phases.
ServeResult run_serving(const Workload& w, const TrainResult& trained,
                        const ibrar::data::Dataset& bank, std::uint64_t seed,
                        double seconds, bool traced, int setup_reps,
                        Checks& checks);

}  // namespace ibbench
