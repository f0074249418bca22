#pragma once
// Versioned model registry: immutable snapshots behind an atomic swap.
//
// Serving must never lock the forward path against checkpoint reloads. The
// registry therefore holds the live model inside an immutable ModelSnapshot
// published through std::atomic<std::shared_ptr<...>>: workers load the
// pointer once per micro-batch (an atomic ref-count bump, no mutex held
// across the forward) and keep the snapshot alive for exactly as long as
// their in-flight batch needs it. publish() swaps in a new version while old
// versions finish serving the batches that already grabbed them — the
// classic read-copy-update shape of hot-swappable servers.
//
// Snapshots are immutable BY TYPE: publish() puts the model into eval mode
// once and then hands it over as shared_ptr<const TapClassifier>, so the only
// forward available to holders is the strictly-const eval path
// (eval_forward / eval_forward_with_taps — no mode flips, no RNG draws, no
// buffer writes). That is what makes one snapshot safe to share across any
// number of serving workers. Hot reload from disk goes through
// publish_checkpoint, which rebuilds the architecture from a ModelSpec and
// loads util/serialize checkpoint bytes into it before the swap.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "models/registry.hpp"

namespace ibrar::serve {

/// One immutable published model version. The const element type means every
/// forward through a snapshot is the strictly-const eval path — enforced at
/// compile time, not by convention.
struct ModelSnapshot {
  std::shared_ptr<const models::TapClassifier> model;  ///< eval mode, immutable
  std::uint64_t version = 0;       ///< monotonically increasing from 1
  std::string tag;                 ///< human label ("v2-finetuned", path, ...)
  Shape input_shape;               ///< per-sample (C, H, W) the model expects
  std::int64_t num_classes = 0;

  /// Batched eval forward: (N, C, H, W) -> (N, num_classes) logits. Const
  /// through and through; safe to call from any number of threads at once.
  Tensor forward(const Tensor& x) const {
    return model->eval_forward(ag::Var::constant(x)).value();
  }
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Publish `model` as the new current version. The model is switched to
  /// eval mode here; `input_shape` is the per-sample (C, H, W) layout used to
  /// validate submissions. Returns the assigned version number.
  ///
  /// Unless `prepack` is false (or IBRAR_EVAL_FUSED=0), the model's fused
  /// inference plans are built here — weights are packed into micro-kernel
  /// panels exactly once per published version, then shared read-only by
  /// every worker and micro-batch. The panel bytes are accounted in the
  /// `serve.snapshot_bytes` gauge and released when the last pinned snapshot
  /// of the version dies.
  std::uint64_t publish(models::TapClassifierPtr model, Shape input_shape,
                        std::string tag = "", bool prepack = true);

  /// Build `spec`'s architecture, load the util/serialize checkpoint at
  /// `path` into it (shapes must match), and publish it. Returns the new
  /// version; throws std::runtime_error on I/O or shape mismatch (the
  /// previous version keeps serving untouched).
  std::uint64_t publish_checkpoint(const models::ModelSpec& spec,
                                   const std::string& path,
                                   std::string tag = "");

  /// The current snapshot (nullptr before the first publish). Lock-free on
  /// the caller side: one atomic shared_ptr load.
  std::shared_ptr<const ModelSnapshot> current() const;

  /// Version of the current snapshot (0 before the first publish).
  std::uint64_t version() const;

 private:
  std::atomic<std::shared_ptr<const ModelSnapshot>> current_{nullptr};
  std::atomic<std::uint64_t> next_version_{1};
};

}  // namespace ibrar::serve
