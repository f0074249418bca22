#include "tensor/im2col.hpp"

#include <limits>
#include <stdexcept>

#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/matmul.hpp"

namespace ibrar {

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                          std::int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

Tensor im2col(const Tensor& x, const Conv2dSpec& spec) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/im2col");
  obs::ProfileScope prof_scope(prof);
  if (x.rank() != 4) throw std::invalid_argument("im2col: x must be NCHW");
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const auto k = spec.kernel;
  const auto oh = conv_out_dim(h, k, spec.stride, spec.pad);
  const auto ow = conv_out_dim(w, k, spec.stride, spec.pad);
  Tensor cols({n * oh * ow, c * k * k});
  const float* px = x.data().data();
  float* pc = cols.data().data();
  const std::int64_t row_len = c * k * k;
  // Every output row is an independent gather; split the flat
  // (image, oy, ox) row index across the pool.
  const std::int64_t grain = runtime::grain_for(row_len);
  runtime::parallel_for(0, n * oh * ow, grain, [&](std::int64_t r0, std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t in_n = r / (oh * ow);
      const std::int64_t oy = (r / ow) % oh;
      const std::int64_t ox = r % ow;
      float* row = pc + r * row_len;
      const std::int64_t iy0 = oy * spec.stride - spec.pad;
      const std::int64_t ix0 = ox * spec.stride - spec.pad;
      for (std::int64_t ic = 0; ic < c; ++ic) {
        const float* plane = px + (in_n * c + ic) * h * w;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = iy0 + ky;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ix0 + kx;
            const bool in_bounds = iy >= 0 && iy < h && ix >= 0 && ix < w;
            *row++ = in_bounds ? plane[iy * w + ix] : 0.0f;
          }
        }
      }
    }
  });
  return cols;
}

Tensor col2im(const Tensor& cols, const Shape& x_shape, const Conv2dSpec& spec) {
  if (x_shape.size() != 4) throw std::invalid_argument("col2im: x_shape must be NCHW");
  const auto n = x_shape[0], c = x_shape[1], h = x_shape[2], w = x_shape[3];
  const auto k = spec.kernel;
  const auto oh = conv_out_dim(h, k, spec.stride, spec.pad);
  const auto ow = conv_out_dim(w, k, spec.stride, spec.pad);
  Tensor x(x_shape);
  const float* pc = cols.data().data();
  float* px = x.data().data();
  const std::int64_t row_len = c * k * k;
  // Columns scatter-add into their source image only, so images parallelize
  // cleanly; within one image the accumulation order matches the serial loop.
  runtime::parallel_for(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
  for (std::int64_t in_n = n0; in_n < n1; ++in_n) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float* row = pc + ((in_n * oh + oy) * ow + ox) * row_len;
        const std::int64_t iy0 = oy * spec.stride - spec.pad;
        const std::int64_t ix0 = ox * spec.stride - spec.pad;
        for (std::int64_t ic = 0; ic < c; ++ic) {
          float* plane = px + (in_n * c + ic) * h * w;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            const std::int64_t iy = iy0 + ky;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t ix = ix0 + kx;
              const float v = *row++;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) plane[iy * w + ix] += v;
            }
          }
        }
      }
    }
  }
  });
  return x;
}

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor* bias,
              const Conv2dSpec& spec) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv2d");
  obs::ProfileScope prof_scope(prof);
  return conv2d_cols(im2col(x, spec), w, bias, x.shape(), spec);
}

Tensor conv2d_cols(const Tensor& cols, const Tensor& w, const Tensor* bias,
                   const Shape& x_shape, const Conv2dSpec& spec) {
  if (x_shape.size() != 4 || w.rank() != 4) {
    throw std::invalid_argument("conv2d: x and w must be rank 4");
  }
  if (x_shape[1] != w.dim(1)) throw std::invalid_argument("conv2d: channel mismatch");
  const auto n = x_shape[0];
  const auto f = w.dim(0);
  const auto oh = conv_out_dim(x_shape[2], spec.kernel, spec.stride, spec.pad);
  const auto ow = conv_out_dim(x_shape[3], spec.kernel, spec.stride, spec.pad);

  const Tensor wmat = w.reshape({f, w.numel() / f});      // (F, CKK)
  Tensor prod = matmul_nt(cols, wmat);                    // (N*OH*OW, F)

  // Transpose the (spatial, filter) layout into NCHW.
  Tensor out({n, f, oh, ow});
  const float* pp = prod.data().data();
  float* po = out.data().data();
  const std::int64_t spatial = oh * ow;
  if (bias != nullptr && bias->numel() != f) {
    throw std::invalid_argument("conv2d: bias size");
  }
  const float* pb = bias != nullptr ? bias->data().data() : nullptr;
  runtime::parallel_for(0, n, 1, [&](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t in_n = n0; in_n < n1; ++in_n) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        const float* row = pp + (in_n * spatial + s) * f;
        for (std::int64_t of = 0; of < f; ++of) {
          po[(in_n * f + of) * spatial + s] = row[of];
        }
      }
      if (pb != nullptr) {
        for (std::int64_t of = 0; of < f; ++of) {
          float* plane = po + (in_n * f + of) * spatial;
          const float b = pb[of];
          for (std::int64_t s = 0; s < spatial; ++s) plane[s] += b;
        }
      }
    }
  });
  return out;
}

PoolResult maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  if (x.rank() != 4) throw std::invalid_argument("maxpool2d: x must be NCHW");
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const auto oh = (h - kernel) / stride + 1;
  const auto ow = (w - kernel) / stride + 1;
  PoolResult r{Tensor({n, c, oh, ow}), {}};
  r.argmax.resize(static_cast<std::size_t>(n * c * oh * ow));
  const float* px = x.data().data();
  float* po = r.out.data().data();
  // One (image, channel) plane per unit of work; each writes its own slice of
  // out/argmax.
  const std::int64_t out_spatial = oh * ow;
  const std::int64_t grain = runtime::grain_for(out_spatial * kernel * kernel);
  runtime::parallel_for(0, n * c, grain, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t plane_idx = p0; plane_idx < p1; ++plane_idx) {
      const float* plane = px + plane_idx * h * w;
      const std::int64_t plane_off = plane_idx * h * w;
      std::size_t oi = static_cast<std::size_t>(plane_idx * out_spatial);
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t iy = oy * stride + ky;
              const std::int64_t ix = ox * stride + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          po[oi] = best;
          r.argmax[oi] = plane_off + best_idx;
          ++oi;
        }
      }
    }
  });
  return r;
}

Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& x_shape,
                          const std::vector<std::int64_t>& argmax) {
  Tensor gx(x_shape);
  const auto pg = grad_out.data();
  auto px = gx.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    px[static_cast<std::size_t>(argmax[i])] += pg[i];
  }
  return gx;
}

Tensor global_avg_pool(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("global_avg_pool: NCHW only");
  const auto n = x.dim(0), c = x.dim(1);
  const auto spatial = x.dim(2) * x.dim(3);
  Tensor out({n, c});
  const float* px = x.data().data();
  float* po = out.data().data();
  const std::int64_t grain = runtime::grain_for(spatial);
  runtime::parallel_for(0, n * c, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      double s = 0.0;
      const float* plane = px + i * spatial;
      for (std::int64_t k = 0; k < spatial; ++k) s += plane[k];
      po[i] = static_cast<float>(s / static_cast<double>(spatial));
    }
  });
  return out;
}

Tensor global_avg_pool_backward(const Tensor& grad_out, const Shape& x_shape) {
  Tensor gx(x_shape);
  const auto n = x_shape[0], c = x_shape[1];
  const auto spatial = x_shape[2] * x_shape[3];
  const float* pg = grad_out.data().data();
  float* px = gx.data().data();
  const float inv = 1.0f / static_cast<float>(spatial);
  const std::int64_t grain = runtime::grain_for(spatial);
  runtime::parallel_for(0, n * c, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float g = pg[i] * inv;
      float* plane = px + i * spatial;
      for (std::int64_t k = 0; k < spatial; ++k) plane[k] = g;
    }
  });
  return gx;
}

}  // namespace ibrar
