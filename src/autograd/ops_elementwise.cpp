#include <cmath>

#include "autograd/ops.hpp"
#include "tensor/ops.hpp"

namespace ibrar::ag {
namespace {

/// Route `g` into parent `i` of `n`, reducing broadcast dims.
void accum_broadcast(Node& n, std::size_t i, const Tensor& g) {
  auto& p = n.parents[i];
  if (!p->requires_grad) return;
  p->accumulate(reduce_to_shape(g, p->value.shape()));
}

void accum(Node& n, std::size_t i, const Tensor& g) {
  auto& p = n.parents[i];
  if (p->requires_grad) p->accumulate(g);
}

}  // namespace

Var add(const Var& a, const Var& b) {
  return make_op(ibrar::add(a.value(), b.value()), {a, b}, [](Node& n) {
    accum_broadcast(n, 0, n.grad);
    accum_broadcast(n, 1, n.grad);
  });
}

Var sub(const Var& a, const Var& b) {
  return make_op(ibrar::sub(a.value(), b.value()), {a, b}, [](Node& n) {
    accum_broadcast(n, 0, n.grad);
    accum_broadcast(n, 1, ibrar::neg(n.grad));
  });
}

Var mul(const Var& a, const Var& b) {
  return make_op(ibrar::mul(a.value(), b.value()), {a, b}, [](Node& n) {
    accum_broadcast(n, 0, ibrar::mul(n.grad, n.parents[1]->value));
    accum_broadcast(n, 1, ibrar::mul(n.grad, n.parents[0]->value));
  });
}

Var div(const Var& a, const Var& b) {
  return make_op(ibrar::div(a.value(), b.value()), {a, b}, [](Node& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    accum_broadcast(n, 0, ibrar::div(n.grad, bv));
    // d/db (a/b) = -a / b^2
    accum_broadcast(n, 1,
                    ibrar::neg(ibrar::div(ibrar::mul(n.grad, av),
                                          ibrar::mul(bv, bv))));
  });
}

Var add_scalar(const Var& a, float s) {
  return make_op(ibrar::add_scalar(a.value(), s), {a},
                 [](Node& n) { accum(n, 0, n.grad); });
}

Var mul_scalar(const Var& a, float s) {
  return make_op(ibrar::mul_scalar(a.value(), s), {a}, [s](Node& n) {
    accum(n, 0, ibrar::mul_scalar(n.grad, s));
  });
}

Var neg(const Var& a) { return mul_scalar(a, -1.0f); }

Var exp(const Var& a) {
  return make_op(ibrar::exp(a.value()), {a}, [](Node& n) {
    accum(n, 0, ibrar::mul(n.grad, n.value));
  });
}

Var log(const Var& a) {
  return make_op(ibrar::log(a.value()), {a}, [](Node& n) {
    // matches the clamped forward: d log(max(x, eps)) / dx ~= 1/max(x, eps)
    accum(n, 0, ibrar::div(n.grad, ibrar::maximum(n.parents[0]->value,
                                                  Tensor::scalar(1e-38f))));
  });
}

Var sqrt(const Var& a) {
  return make_op(ibrar::sqrt(a.value()), {a}, [](Node& n) {
    accum(n, 0, ibrar::div(n.grad,
                           ibrar::mul_scalar(ibrar::maximum(n.value, Tensor::scalar(1e-12f)), 2.0f)));
  });
}

Var square(const Var& a) {
  return make_op(ibrar::square(a.value()), {a}, [](Node& n) {
    accum(n, 0, ibrar::mul(n.grad, ibrar::mul_scalar(n.parents[0]->value, 2.0f)));
  });
}

Var pow_scalar(const Var& a, float p) {
  return make_op(ibrar::pow_scalar(a.value(), p), {a}, [p](Node& n) {
    accum(n, 0, ibrar::mul(n.grad,
                           ibrar::mul_scalar(
                               ibrar::pow_scalar(n.parents[0]->value, p - 1.0f), p)));
  });
}

Var relu(const Var& a) {
  return make_op(ibrar::relu(a.value()), {a}, [](Node& n) {
    accum(n, 0, ibrar::mul(n.grad, ibrar::greater(n.parents[0]->value,
                                                  Tensor::scalar(0.0f))));
  });
}

Var tanh(const Var& a) {
  return make_op(ibrar::tanh(a.value()), {a}, [](Node& n) {
    // 1 - tanh^2
    accum(n, 0, ibrar::mul(n.grad, ibrar::sub(Tensor::scalar(1.0f),
                                              ibrar::square(n.value))));
  });
}

Var sigmoid(const Var& a) {
  return make_op(ibrar::sigmoid(a.value()), {a}, [](Node& n) {
    const Tensor& out = n.value;
    accum(n, 0, ibrar::mul(n.grad,
                           ibrar::mul(out, ibrar::sub(Tensor::scalar(1.0f), out))));
  });
}

Var abs(const Var& a) {
  return make_op(ibrar::abs(a.value()), {a}, [](Node& n) {
    accum(n, 0, ibrar::mul(n.grad, ibrar::sign(n.parents[0]->value)));
  });
}

}  // namespace ibrar::ag
