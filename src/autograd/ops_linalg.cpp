#include "autograd/ops.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace ibrar::ag {

Var matmul(const Var& a, const Var& b) {
  return make_op(ibrar::matmul(a.value(), b.value()), {a, b}, [](Node& n) {
    // dA = G B^T ; dB = A^T G
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(ibrar::matmul_nt(n.grad, n.parents[1]->value));
    }
    if (n.parents[1]->requires_grad) {
      n.parents[1]->accumulate(ibrar::matmul_tn(n.parents[0]->value, n.grad));
    }
  });
}

Var transpose(const Var& a) {
  return make_op(ibrar::transpose2d(a.value()), {a}, [](Node& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->accumulate(ibrar::transpose2d(n.grad));
    }
  });
}

}  // namespace ibrar::ag
