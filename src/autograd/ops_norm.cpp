#include <cmath>
#include <stdexcept>

#include "autograd/ops.hpp"
#include "tensor/ops.hpp"

namespace ibrar::ag {

namespace {

/// Shared normalize + autograd tail of batch norm, applied to per-channel
/// moments computed by either entry point. Keeping one body is what makes
/// batch_norm2d_eval bit-identical to batch_norm2d with training=false.
Var batch_norm2d_apply(const Var& x, const Var& gamma, const Var& beta,
                       const Tensor& mean_c, const Tensor& var_c,
                       bool training, float eps) {
  const Tensor& xv = x.value();
  const auto nN = xv.dim(0), c = xv.dim(1), h = xv.dim(2), w = xv.dim(3);
  const std::int64_t per_channel = nN * h * w;
  const auto spatial = h * w;

  Tensor inv_std({c});
  for (std::int64_t ic = 0; ic < c; ++ic) {
    inv_std[ic] = 1.0f / std::sqrt(var_c[ic] + eps);
  }

  Tensor xhat(xv.shape());
  Tensor out(xv.shape());
  {
    const float* px = xv.data().data();
    float* ph = xhat.data().data();
    float* po = out.data().data();
    const float* pg = gamma.value().data().data();
    const float* pb = beta.value().data().data();
    for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
      for (std::int64_t ic = 0; ic < c; ++ic) {
        const std::int64_t off = (in_n * c + ic) * spatial;
        const float mu = mean_c[ic], is = inv_std[ic], g = pg[ic], b = pb[ic];
        for (std::int64_t k = 0; k < spatial; ++k) {
          const float xh = (px[off + k] - mu) * is;
          ph[off + k] = xh;
          po[off + k] = g * xh + b;
        }
      }
    }
  }

  return make_op(std::move(out), {x, gamma, beta},
                 [xhat = std::move(xhat), inv_std = std::move(inv_std), training,
                  c, spatial, nN, per_channel](Node& n) {
    const float* pg = n.grad.data().data();
    const float* ph = xhat.data().data();
    const float* pgam = n.parents[1]->value.data().data();

    // Per-channel sums of g and g*xhat used by every branch.
    Tensor sum_g({c});
    Tensor sum_gx({c});
    for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
      for (std::int64_t ic = 0; ic < c; ++ic) {
        const std::int64_t off = (in_n * c + ic) * spatial;
        double sg = 0.0, sgx = 0.0;
        for (std::int64_t k = 0; k < spatial; ++k) {
          sg += pg[off + k];
          sgx += double(pg[off + k]) * ph[off + k];
        }
        sum_g[ic] += static_cast<float>(sg);
        sum_gx[ic] += static_cast<float>(sgx);
      }
    }

    if (n.parents[1]->requires_grad) n.parents[1]->accumulate(sum_gx);
    if (n.parents[2]->requires_grad) n.parents[2]->accumulate(sum_g);

    if (n.parents[0]->requires_grad) {
      Tensor gx(n.value.shape());
      float* pgx = gx.data().data();
      const float m = static_cast<float>(per_channel);
      for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
        for (std::int64_t ic = 0; ic < c; ++ic) {
          const std::int64_t off = (in_n * c + ic) * spatial;
          const float gam_is = pgam[ic] * inv_std[ic];
          if (training) {
            const float mg = sum_g[ic] / m;
            const float mgx = sum_gx[ic] / m;
            for (std::int64_t k = 0; k < spatial; ++k) {
              pgx[off + k] = gam_is * (pg[off + k] - mg - ph[off + k] * mgx);
            }
          } else {
            // Running stats are constants in eval mode.
            for (std::int64_t k = 0; k < spatial; ++k) {
              pgx[off + k] = gam_is * pg[off + k];
            }
          }
        }
      }
      n.parents[0]->accumulate(gx);
    }
  });
}

}  // namespace

Var batch_norm2d(const Var& x, const Var& gamma, const Var& beta,
                 Tensor& running_mean, Tensor& running_var, bool training,
                 float momentum, float eps) {
  const Tensor& xv = x.value();
  if (xv.rank() != 4) throw std::invalid_argument("batch_norm2d: NCHW only");
  const auto nN = xv.dim(0), c = xv.dim(1), h = xv.dim(2), w = xv.dim(3);
  const std::int64_t per_channel = nN * h * w;
  const auto spatial = h * w;

  Tensor mean_c({c});
  Tensor var_c({c});
  if (training) {
    const float* px = xv.data().data();
    for (std::int64_t ic = 0; ic < c; ++ic) {
      double s = 0.0, s2 = 0.0;
      for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
        const float* plane = px + (in_n * c + ic) * spatial;
        for (std::int64_t k = 0; k < spatial; ++k) {
          s += plane[k];
          s2 += double(plane[k]) * plane[k];
        }
      }
      const double mu = s / per_channel;
      mean_c[ic] = static_cast<float>(mu);
      var_c[ic] = static_cast<float>(std::max(0.0, s2 / per_channel - mu * mu));
    }
    for (std::int64_t ic = 0; ic < c; ++ic) {
      running_mean[ic] = (1 - momentum) * running_mean[ic] + momentum * mean_c[ic];
      running_var[ic] = (1 - momentum) * running_var[ic] + momentum * var_c[ic];
    }
  } else {
    mean_c = running_mean;
    var_c = running_var;
  }
  return batch_norm2d_apply(x, gamma, beta, mean_c, var_c, training, eps);
}

Var batch_norm2d_eval(const Var& x, const Var& gamma, const Var& beta,
                      const Tensor& running_mean, const Tensor& running_var,
                      float eps) {
  if (x.value().rank() != 4) {
    throw std::invalid_argument("batch_norm2d_eval: NCHW only");
  }
  return batch_norm2d_apply(x, gamma, beta, running_mean, running_var,
                            /*training=*/false, eps);
}

Var dropout(const Var& x, float p, bool training, Rng& rng) {
  if (!training || p <= 0.0f) return x;
  if (p >= 1.0f) throw std::invalid_argument("dropout: p must be < 1");
  Tensor mask(x.shape());
  const float scale = 1.0f / (1.0f - p);
  for (auto& m : mask.vec()) m = rng.bernoulli(1.0 - p) ? scale : 0.0f;
  Tensor out = ibrar::mul(x.value(), mask);
  return make_op(std::move(out), {x}, [mask = std::move(mask)](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(ibrar::mul(n.grad, mask));
  });
}

}  // namespace ibrar::ag
