#pragma once
// Convolution & pooling kernels on NCHW tensors.
//
// conv2d is lowered to GEMM via im2col; col2im is its adjoint. Max/avg pooling
// store argmax indices so autograd can route gradients.

#include <vector>

#include "tensor/tensor.hpp"

namespace ibrar {

struct Conv2dSpec {
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;
};

/// Output spatial size for one dimension.
std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                          std::int64_t pad);

/// im2col: x (N,C,H,W) -> columns (N*OH*OW, C*K*K).
Tensor im2col(const Tensor& x, const Conv2dSpec& spec);

/// col2im adjoint: columns (N*OH*OW, C*K*K) -> (N,C,H,W) accumulated.
Tensor col2im(const Tensor& cols, const Shape& x_shape, const Conv2dSpec& spec);

/// Forward conv: x (N,C,H,W), w (F,C,K,K), bias (F) optional -> (N,F,OH,OW).
/// Equal to conv2d_cols(im2col(x, spec), w, bias, x.shape(), spec).
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor* bias,
              const Conv2dSpec& spec);

/// The columns -> output half of conv2d: `cols` = im2col(x, spec) for an x
/// of `x_shape`, times the (F, C*K*K) view of w, scattered to (N,F,OH,OW)
/// with bias added. Lets autograd build the columns once and keep them for dW.
Tensor conv2d_cols(const Tensor& cols, const Tensor& w, const Tensor* bias,
                   const Shape& x_shape, const Conv2dSpec& spec);

struct PoolResult {
  Tensor out;                      ///< (N,C,OH,OW)
  std::vector<std::int64_t> argmax;  ///< flat input index per output element
};

/// 2-D max pooling (kernel=stride window, no padding).
PoolResult maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);

/// Scatter pooled gradients back through stored argmax indices.
Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& x_shape,
                          const std::vector<std::int64_t>& argmax);

/// Global average pool (N,C,H,W) -> (N,C).
Tensor global_avg_pool(const Tensor& x);

/// Adjoint of global_avg_pool.
Tensor global_avg_pool_backward(const Tensor& grad_out, const Shape& x_shape);

}  // namespace ibrar
