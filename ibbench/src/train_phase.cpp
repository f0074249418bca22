#include "train_phase.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "attacks/pgd.hpp"
#include "core/ibrar.hpp"
#include "models/registry.hpp"
#include "nn/module.hpp"
#include "train/evaluate.hpp"
#include "train/trainer.hpp"

namespace ibbench {

using namespace ibrar;

namespace {

/// Objective decorator: times each compute() call of the wrapped objective
/// and keeps the returned loss value. It adds no work of its own.
class TimedObjective : public train::Objective {
 public:
  TimedObjective(train::ObjectivePtr inner, std::vector<double>& ns)
      : inner_(std::move(inner)), ns_(ns) {}
  std::string name() const override { return inner_->name(); }
  ag::Var compute(models::TapClassifier& model,
                  const data::Batch& batch) override {
    const std::int64_t t0 = clock_ns();
    ag::Var loss = inner_->compute(model, batch);
    last_end_ns = clock_ns();
    ns_.push_back(static_cast<double>(last_end_ns - t0));
    losses.push_back(loss.value().item());
    return loss;
  }
  std::int64_t last_end_ns = 0;
  std::vector<float> losses;

 private:
  train::ObjectivePtr inner_;
  std::vector<double>& ns_;
};

std::uint64_t digest_model(models::TapClassifier& m, std::uint64_t h) {
  for (auto& [name, p] : m.named_parameters()) {
    const auto d = p.value().data();
    h = fnv1a(d.data(), d.size() * sizeof(float), h);
  }
  for (auto& [name, b] : m.named_buffers()) {
    const auto d = b->data();
    h = fnv1a(d.data(), d.size() * sizeof(float), h);
  }
  if (m.has_channel_mask()) {
    const auto d = m.channel_mask().data();
    h = fnv1a(d.data(), d.size() * sizeof(float), h);
  }
  return h;
}

}  // namespace

models::TapClassifierPtr clone_model(models::TapClassifier& src) {
  Rng rng(0);  // every weight is overwritten by copy_state
  auto dst = models::make_model(models::ModelSpec{}, rng);
  nn::copy_state(src, *dst);
  if (src.has_channel_mask()) dst->set_channel_mask(src.channel_mask());
  return dst;
}

TrainResult run_training(const Workload& w, const data::SyntheticData& data,
                         models::TapClassifierPtr model, std::uint64_t seed,
                         Checks& checks) {
  TrainResult r;
  attacks::AttackConfig inner_cfg;
  inner_cfg.steps = 4;
  inner_cfg.seed = seed ^ 0xa77ac4u;
  auto inner = std::make_shared<TimedObjective>(
      std::make_shared<train::PGDATObjective>(inner_cfg), r.inner_ns);
  auto outer = std::make_shared<TimedObjective>(
      std::make_shared<core::IBRARObjective>(inner, core::MILossConfig{}),
      r.objective_ns);

  train::TrainConfig tc;
  tc.epochs = w.epochs;
  tc.batch_size = 100;
  tc.seed = seed;
  tc.track_train_acc = false;
  train::Trainer trainer(model, outer, tc);
  auto refresh = core::make_mask_hook(core::FeatureMaskConfig{}, data.train);
  trainer.epoch_hook = [&](std::int64_t epoch, models::TapClassifier& m) {
    const std::int64_t t0 = clock_ns();
    refresh(epoch, m);
    r.mask_refresh_ns.push_back(static_cast<double>(clock_ns() - t0));
    if (epoch == w.epochs - 2) r.prev_epoch = clone_model(m);
  };
  trainer.batch_hook = [&](std::int64_t, std::int64_t, models::TapClassifier&,
                           const data::Batch&) {
    r.backward_ns.push_back(
        static_cast<double>(clock_ns() - outer->last_end_ns));
  };

  const std::int64_t t0 = clock_ns();
  trainer.fit(data.train);
  r.train_s = static_cast<double>(clock_ns() - t0) * 1e-9;
  r.batches = static_cast<std::int64_t>(outer->losses.size());
  // Step throughput: batch size over the calm-quantile batch time (objective
  // + backward + optimizer step). Epoch-level work (mask refresh) is reported
  // per layer, not folded in here.
  for (std::size_t i = 0; i < r.objective_ns.size(); ++i) {
    r.step_ns.push_back(r.objective_ns[i] + r.backward_ns[i]);
  }
  r.samples_per_s = static_cast<double>(tc.batch_size) / (quantile(r.step_ns, kCalmQuantile) * 1e-9);
  r.model = model;
  if (obs::profiling_enabled()) {
    r.fit_profile = obs::profile_table();
    obs::reset_profile();
  }
  if (!r.prev_epoch) r.prev_epoch = clone_model(*model);

  const data::Dataset eval_set = data.test.head(w.eval_samples);
  r.clean_acc = train::evaluate_clean(*model, eval_set, 100);
  attacks::AttackConfig pgd_cfg;
  pgd_cfg.steps = 10;
  pgd_cfg.seed = seed ^ 0x9d10u;
  attacks::PGD pgd(pgd_cfg);
  // One evaluate_adversarial call per batch so the rate is taken per batch;
  // the attack's RNG stream runs on across calls in batch order.
    std::int64_t robust = 0;
  for (std::int64_t b = 0; b < eval_set.size(); b += tc.batch_size) {
    const std::int64_t e = std::min(eval_set.size(), b + tc.batch_size);
    std::vector<std::int64_t> idx;
    for (std::int64_t i = b; i < e; ++i) idx.push_back(i);
    const data::Dataset part = eval_set.subset(idx);
    const std::int64_t te = clock_ns();
    const double acc = train::evaluate_adversarial(*model, part, pgd, tc.batch_size);
    r.eval_batch_ns.push_back(static_cast<double>(clock_ns() - te));
    robust += std::llround(acc * static_cast<double>(e - b));
  }
  r.pgd_acc = static_cast<double>(robust) / static_cast<double>(eval_set.size());
  for (double v : r.eval_batch_ns) r.eval_pgd_ns += v;
  if (obs::profiling_enabled()) {
    r.eval_profile = obs::profile_table();
    obs::reset_profile();
  }
  r.attack_samples_per_s =
      static_cast<double>(tc.batch_size) / (quantile(r.eval_batch_ns, kCalmQuantile) * 1e-9);

  for (float l : outer->losses) r.bad_losses += std::isfinite(l) ? 0 : 1;
  checks.require(r.batches == w.epochs * (data.train.size() / 100),
                 "train: objective ran once per batch");
  checks.require(r.bad_losses == 0, "train: every batch loss is finite");
  checks.require(r.clean_acc >= w.min_clean_acc,
                 "train: clean_acc " + std::to_string(r.clean_acc) +
                     " below the floor " + std::to_string(w.min_clean_acc) +
                     " (chance is 0.1)");
  checks.require(r.pgd_acc <= r.clean_acc, "train: pgd_acc <= clean_acc");

  std::uint64_t h = digest_model(*model, 1469598103934665603ull);
  h = fnv1a(outer->losses.data(), outer->losses.size() * sizeof(float), h);
  h = fnv1a(&r.clean_acc, sizeof r.clean_acc, h);
  h = fnv1a(&r.pgd_acc, sizeof r.pgd_acc, h);
  r.digest = h;
  return r;
}

}  // namespace ibbench
