#pragma once
// Tape-free dynamic reverse-mode automatic differentiation.
//
// A Var is a shared handle to a graph Node holding a value, an (accumulated)
// gradient, and a backward closure referencing its parent nodes. Graphs are
// rebuilt every forward pass; parameter leaves persist across passes so their
// gradients accumulate until the optimizer clears them — the same contract as
// PyTorch, which keeps the training-loop code in src/train idiomatic.

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace ibrar::ag {

struct Node;
using NodePtr = std::shared_ptr<Node>;

/// One vertex of the dynamically-built computation graph.
struct Node {
  Tensor value;
  Tensor grad;                 ///< valid iff grad_ready
  bool grad_ready = false;     ///< grad tensor allocated & shaped
  bool requires_grad = false;  ///< participates in backward
  std::vector<NodePtr> parents;
  /// Accumulates into parents' grads given this node's grad. Null for leaves.
  std::function<void(Node&)> backward_fn;

  /// Add `g` into `grad`, allocating on first touch.
  void accumulate(const Tensor& g);
};

/// Value + gradient handle. Cheap to copy (shared_ptr semantics).
class Var {
 public:
  /// Undefined Var (use defined() to test).
  Var() = default;

  /// Leaf holding `value`; set requires_grad for trainable/attacked leaves.
  explicit Var(Tensor value, bool requires_grad = false);

  /// Leaf that is differentiated (parameters, attack inputs).
  static Var param(Tensor value) { return Var(std::move(value), true); }

  /// Leaf treated as a constant.
  static Var constant(Tensor value) { return Var(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Shape& shape() const { return node_->value.shape(); }
  std::int64_t numel() const { return node_->value.numel(); }
  bool requires_grad() const { return node_ != nullptr && node_->requires_grad; }

  /// Gradient accumulated by backward(); zeros of the value's shape if unset.
  const Tensor& grad() const;

  /// Reset this leaf's gradient accumulator.
  void zero_grad();

  /// Run reverse-mode AD from this (scalar) Var; accumulates into every
  /// requires_grad node reachable through the graph.
  void backward();

  NodePtr node() const { return node_; }
  explicit Var(NodePtr node) : node_(std::move(node)) {}

 private:
  NodePtr node_;
};

/// True while gradient recording is disabled (evaluation / attacks' inner
/// forward passes that do not need parameter grads).
bool grad_enabled();

/// RAII guard that disables graph construction in its scope.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// Build an op node: value, parents, and a backward closure. When recording is
/// off or no parent requires grad, the result is a detached constant.
///
/// Saved-state contract: the closure reads its inputs as n.parents[i]->value
/// and its output as n.value, and owns only tensors it derived (moved in with
/// an init-capture), never a copy of an input or of the output. A node's value
/// must therefore not be mutated between its forward and its backward. The
/// mutable_value() writers keep to this: train/optimizer.cpp (SGD step),
/// nn/module.cpp (load_model, copy_state), autograd/gradcheck.cpp (probes
/// after its one backward) and attacks/cw.cpp (Adam on w) all run after the
/// backward that reads the value, or before the next forward.
Var make_op(Tensor value, std::vector<Var> parents,
            std::function<void(Node&)> backward_fn);

/// Detached copy of `v` (constant leaf sharing the value).
Var detach(const Var& v);

}  // namespace ibrar::ag
