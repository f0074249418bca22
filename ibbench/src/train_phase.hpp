#pragma once
// Training session: PGD-AT + IB-RAR on vgg16 / synth-cifar10, then clean and
// PGD-10 evaluation. Layers are timed from outside through a benchmark-owned
// Objective decorator and the Trainer's batch/epoch hooks.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "data/synthetic.hpp"
#include "models/classifier.hpp"
#include "obs/profile.hpp"

namespace ibbench {

struct TrainResult {
  ibrar::models::TapClassifierPtr model;       ///< trained (final epoch)
  ibrar::models::TapClassifierPtr prev_epoch;  ///< state after the epoch before
  double train_s = 0.0;
  double samples_per_s = 0.0;
  double attack_samples_per_s = 0.0;
  double clean_acc = 0.0;
  double pgd_acc = 0.0;
  std::uint64_t digest = 0;  ///< weights, mask, losses and accuracies
  std::int64_t batches = 0;
  std::int64_t bad_losses = 0;  ///< non-finite batch losses
  // Per-layer timings (ns), filled on every run.
  std::vector<double> objective_ns;  ///< per batch: IB-RAR objective
  std::vector<double> inner_ns;      ///< per batch: base PGD-AT objective
  std::vector<double> backward_ns;   ///< per batch: backward + optimizer step
  std::vector<double> mask_refresh_ns;
  std::vector<double> step_ns;        ///< per batch: objective + backward
  std::vector<double> eval_batch_ns;  ///< per PGD-10 evaluation batch
  double eval_pgd_ns = 0.0;
  /// Kernel profile rows of fit() and of the PGD evaluation, when profiling
  /// is on (traced runs).
  std::vector<ibrar::obs::ProfileEntry> fit_profile, eval_profile;
};

/// Deep copy of a trained model: parameters, buffers and the Eq. (3) mask.
ibrar::models::TapClassifierPtr clone_model(ibrar::models::TapClassifier& src);

/// Train `model` in place on `data.train`, evaluate on the first
/// `w.eval_samples` test examples.
TrainResult run_training(const Workload& w, const ibrar::data::SyntheticData& data,
                         ibrar::models::TapClassifierPtr model,
                         std::uint64_t seed, Checks& checks);

}  // namespace ibbench
