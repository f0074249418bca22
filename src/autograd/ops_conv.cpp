#include <stdexcept>

#include "autograd/ops.hpp"
#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"

namespace ibrar::ag {

Var conv2d(const Var& x, const Var& w, const Var& bias, const Conv2dSpec& spec) {
  // Same site as ibrar::conv2d, so per-layer profiles count one conv2d per
  // conv forward whichever path ran it.
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv2d");
  obs::ProfileScope prof_scope(prof);
  const bool has_bias = bias.defined();
  // One im2col feeds the forward GEMM and, when w is trained, the dW GEMM.
  // Under NoGradGuard or a frozen w (AttackModeGuard) nothing reads the
  // columns after this call, so they are freed here.
  Tensor cols = im2col(x.value(), spec);
  Tensor out = conv2d_cols(cols, w.value(), has_bias ? &bias.value() : nullptr,
                           x.shape(), spec);
  if (!(grad_enabled() && w.requires_grad())) cols = Tensor();

  std::vector<Var> parents = {x, w};
  if (has_bias) parents.push_back(bias);

  return make_op(std::move(out), std::move(parents),
                 [cols = std::move(cols), spec, has_bias](Node& n) {
    const auto nN = n.value.shape()[0];
    const auto nf = n.value.shape()[1];
    const auto spatial = n.value.shape()[2] * n.value.shape()[3];
    // NCHW grad -> (N*OH*OW, F) spatial-major layout used by the GEMM.
    Tensor gprod({nN * spatial, nf});
    {
      const float* pg = n.grad.data().data();
      float* pp = gprod.data().data();
      ibrar::runtime::parallel_for(0, nN, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (std::int64_t in_n = n0; in_n < n1; ++in_n) {
          for (std::int64_t of = 0; of < nf; ++of) {
            const float* plane = pg + (in_n * nf + of) * spatial;
            for (std::int64_t s = 0; s < spatial; ++s) {
              pp[(in_n * spatial + s) * nf + of] = plane[s];
            }
          }
        }
      });
    }
    const Tensor& wv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      // (N*OH*OW, F) x (F, CKK) -> (N*OH*OW, CKK)
      const Tensor gcols = ibrar::matmul(gprod, wv.reshape({nf, wv.numel() / nf}));
      n.parents[0]->accumulate(col2im(gcols, n.parents[0]->value.shape(), spec));
    }
    if (n.parents[1]->requires_grad) {
      Tensor gw = ibrar::matmul_tn(gprod, cols);  // (F, CKK)
      n.parents[1]->accumulate(gw.reshape(wv.shape()));
    }
    if (has_bias && n.parents[2]->requires_grad) {
      n.parents[2]->accumulate(ibrar::sum_axis(gprod, 0));
    }
  });
}

Var maxpool2d(const Var& x, std::int64_t kernel, std::int64_t stride) {
  PoolResult r = ibrar::maxpool2d(x.value(), kernel, stride);
  return make_op(std::move(r.out), {x}, [argmax = std::move(r.argmax)](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(
        maxpool2d_backward(n.grad, n.parents[0]->value.shape(), argmax));
  });
}

Var global_avg_pool(const Var& x) {
  const Shape x_shape = x.shape();
  return make_op(ibrar::global_avg_pool(x.value()), {x}, [x_shape](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(global_avg_pool_backward(n.grad, x_shape));
  });
}

}  // namespace ibrar::ag
