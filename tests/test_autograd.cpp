// Autograd: backward rules for every op, finite-difference gradient checks
// (parameterized sweeps), graph mechanics (accumulation, detach, no-grad).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "attacks/attack.hpp"
#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "models/registry.hpp"
#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/reduce.hpp"

namespace ibrar::ag {
namespace {

TEST(VarBasics, LeafAndConstant) {
  Var p = Var::param(Tensor::scalar(2.0f));
  Var c = Var::constant(Tensor::scalar(3.0f));
  EXPECT_TRUE(p.requires_grad());
  EXPECT_FALSE(c.requires_grad());
}

TEST(VarBasics, BackwardSimpleProduct) {
  Var a = Var::param(Tensor::scalar(3.0f));
  Var b = Var::param(Tensor::scalar(4.0f));
  Var y = mul(a, b);
  y.backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 4.0f);
  EXPECT_FLOAT_EQ(b.grad().item(), 3.0f);
}

TEST(VarBasics, GradsAccumulateAcrossBackwards) {
  Var a = Var::param(Tensor::scalar(1.0f));
  mul_scalar(a, 2.0f).backward();
  mul_scalar(a, 3.0f).backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 5.0f);
  a.zero_grad();
  EXPECT_FLOAT_EQ(a.grad().item(), 0.0f);
}

TEST(VarBasics, SharedSubexpressionGradient) {
  // y = a*a + a -> dy/da = 2a + 1.
  Var a = Var::param(Tensor::scalar(3.0f));
  Var y = add(mul(a, a), a);
  y.backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 7.0f);
}

TEST(VarBasics, BackwardRequiresScalar) {
  Var a = Var::param(Tensor({2}, 1.0f));
  EXPECT_THROW(a.backward(), std::logic_error);
}

TEST(VarBasics, NoGradGuardDetaches) {
  Var a = Var::param(Tensor::scalar(2.0f));
  {
    NoGradGuard ng;
    Var y = mul(a, a);
    EXPECT_FALSE(y.requires_grad());
  }
  Var y2 = mul(a, a);
  EXPECT_TRUE(y2.requires_grad());
}

TEST(VarBasics, DetachBlocksGradient) {
  Var a = Var::param(Tensor::scalar(2.0f));
  Var y = mul(detach(a), a);  // d/da = detach(a) = 2
  y.backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 2.0f);
}

TEST(VarBasics, DeepChainDoesNotOverflow) {
  // The iterative DFS must survive a graph thousands of nodes deep.
  Var a = Var::param(Tensor::scalar(1.0f));
  Var y = a;
  for (int i = 0; i < 5000; ++i) y = add_scalar(y, 0.0f);
  y.backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 1.0f);
}

// ---- gradcheck sweeps --------------------------------------------------------

using UnaryFn = Var (*)(const Var&);

struct UnaryCase {
  const char* name;
  UnaryFn fn;
  float lo;
  float hi;
};

class UnaryGradSweep : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradSweep, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  Rng rng(13);
  Tensor x = rand_uniform({3, 4}, rng, c.lo, c.hi);
  auto fn = [&](const std::vector<Var>& in) { return mean(c.fn(in[0])); };
  const auto r = gradcheck(fn, {Var::param(x)});
  EXPECT_TRUE(r.ok) << c.name << " max_rel_err=" << r.max_rel_err;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradSweep,
    ::testing::Values(UnaryCase{"exp", &exp, -1.0f, 1.0f},
                      UnaryCase{"log", &log, 0.5f, 2.0f},
                      UnaryCase{"sqrt", &sqrt, 0.5f, 2.0f},
                      UnaryCase{"square", &square, -1.0f, 1.0f},
                      UnaryCase{"tanh", &tanh, -1.5f, 1.5f},
                      UnaryCase{"sigmoid", &sigmoid, -2.0f, 2.0f},
                      UnaryCase{"relu", &relu, 0.1f, 2.0f},   // away from kink
                      UnaryCase{"abs", &abs, 0.1f, 2.0f},
                      UnaryCase{"neg", &neg, -1.0f, 1.0f}),
    [](const auto& info) { return info.param.name; });

TEST(BinaryGrad, AddSubMulDivBroadcast) {
  Rng rng(17);
  for (const auto& [sa, sb] : std::vector<std::pair<Shape, Shape>>{
           {{2, 3}, {2, 3}}, {{2, 3}, {3}}, {{2, 1}, {1, 3}}, {{4}, {1}}}) {
    Tensor a = rand_uniform(sa, rng, 0.5f, 1.5f);
    Tensor b = rand_uniform(sb, rng, 0.5f, 1.5f);
    for (int op = 0; op < 4; ++op) {
      auto fn = [&, op](const std::vector<Var>& in) {
        switch (op) {
          case 0: return mean(add(in[0], in[1]));
          case 1: return mean(sub(in[0], in[1]));
          case 2: return mean(mul(in[0], in[1]));
          default: return mean(div(in[0], in[1]));
        }
      };
      const auto r = gradcheck(fn, {Var::param(a), Var::param(b)});
      EXPECT_TRUE(r.ok) << "op=" << op << " shapes " << shape_str(sa) << " "
                        << shape_str(sb) << " rel=" << r.max_rel_err;
    }
  }
}

TEST(LinalgGrad, MatmulBothSides) {
  Rng rng(19);
  Tensor a = randn({3, 4}, rng, 0, 0.5f);
  Tensor b = randn({4, 2}, rng, 0, 0.5f);
  auto fn = [](const std::vector<Var>& in) {
    return mean(matmul(in[0], in[1]));
  };
  const auto r = gradcheck(fn, {Var::param(a), Var::param(b)});
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(LinalgGrad, Transpose) {
  Rng rng(23);
  Tensor a = randn({3, 5}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(transpose(in[0])));
  };
  const auto r = gradcheck(fn, {Var::param(a)});
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(ShapeGrad, ReshapeFlattenSliceGather) {
  Rng rng(29);
  Tensor a = randn({4, 6}, rng);
  {
    auto fn = [](const std::vector<Var>& in) {
      return mean(square(reshape(in[0], {2, 12})));
    };
    EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
  }
  {
    auto fn = [](const std::vector<Var>& in) {
      return mean(square(slice_rows(in[0], 1, 3)));
    };
    EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
  }
  {
    const std::vector<std::int64_t> idx = {5, 0, 3, 2};
    auto fn = [&](const std::vector<Var>& in) {
      return mean(square(gather_cols(in[0], idx)));
    };
    EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
  }
}

TEST(ShapeGrad, ConcatRows) {
  Rng rng(31);
  Tensor a = randn({2, 3}, rng);
  Tensor b = randn({3, 3}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(concat_rows({in[0], in[1]})));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(a), Var::param(b)}).ok);
}

TEST(ReduceGrad, SumMeanAxis) {
  Rng rng(37);
  Tensor a = randn({3, 4}, rng);
  for (const std::int64_t axis : {0L, 1L}) {
    auto fn = [axis](const std::vector<Var>& in) {
      return mean(square(sum_axis(in[0], axis)));
    };
    EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok) << "axis " << axis;
    auto fn2 = [axis](const std::vector<Var>& in) {
      return mean(square(mean_axis(in[0], axis, true)));
    };
    EXPECT_TRUE(gradcheck(fn2, {Var::param(a)}).ok) << "axis keepdim " << axis;
  }
}

TEST(ConvGrad, ConvWeightsInputBias) {
  Rng rng(41);
  Tensor x = randn({2, 2, 4, 4}, rng, 0, 0.5f);
  Tensor w = randn({3, 2, 3, 3}, rng, 0, 0.3f);
  Tensor b = randn({3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 1, 1};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], in[2], spec)));
  };
  const auto r = gradcheck(fn, {Var::param(x), Var::param(w), Var::param(b)},
                           1e-2, 8e-2);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(ConvGrad, StridedConv) {
  Rng rng(43);
  Tensor x = randn({1, 2, 4, 4}, rng, 0, 0.5f);
  Tensor w = randn({2, 2, 3, 3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 2, 1};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], Var(), spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w)}, 1e-2, 8e-2).ok);
}

TEST(ConvGrad, MaxPoolRoutesToArgmax) {
  Rng rng(47);
  Tensor x = randn({1, 1, 4, 4}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(maxpool2d(in[0], 2, 2)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x)}).ok);
}

TEST(ConvGrad, GlobalAvgPool) {
  Rng rng(53);
  Tensor x = randn({2, 3, 4, 4}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(global_avg_pool(in[0])));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x)}).ok);
}

TEST(ConvGrad, StrideTwoNonSquareIndivisible) {
  // H=5, W=4 at stride 2: the window grid covers the two dimensions
  // differently and the last input column is only reached through padding
  // (implicit asymmetric coverage) — gradients to those cells must still be
  // exact.
  Rng rng(61);
  Tensor x = randn({1, 2, 5, 4}, rng, 0, 0.5f);
  Tensor w = randn({2, 2, 3, 3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 2, 1};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], Var(), spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w)}, 1e-2, 8e-2).ok);
}

TEST(ConvGrad, KernelLargerThanInput) {
  // 5x5 kernel over a 3x4 image with pad 2: every window hangs off at least
  // one edge, so im2col's zero-fill and col2im's bounds checks carry the
  // whole gradient.
  Rng rng(67);
  Tensor x = randn({1, 1, 3, 4}, rng, 0, 0.5f);
  Tensor w = randn({2, 1, 5, 5}, rng, 0, 0.2f);
  const Conv2dSpec spec{5, 1, 2};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], Var(), spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w)}, 1e-2, 8e-2).ok);
}

TEST(ConvGrad, KernelEqualsInputNoPad) {
  // Degenerate 1x1 output: conv collapses to a dot product per filter.
  Rng rng(71);
  Tensor x = randn({2, 2, 3, 3}, rng, 0, 0.5f);
  Tensor w = randn({3, 2, 3, 3}, rng, 0, 0.3f);
  Tensor b = randn({3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 1, 0};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], in[2], spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w), Var::param(b)},
                        1e-2, 8e-2).ok);
}

TEST(ConvGrad, StridedConvIndivisibleStride) {
  // (6 + 2*1 - 3) / 2 + 1 = 3: output rows sample inputs 0/2/4 and row 5
  // feeds gradients only through the padded last window.
  Rng rng(73);
  Tensor x = randn({1, 1, 6, 5}, rng, 0, 0.5f);
  Tensor w = randn({1, 1, 3, 3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 2, 1};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], Var(), spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w)}, 1e-2, 8e-2).ok);
}

TEST(ConvGrad, MaxPoolDropsRaggedEdge) {
  // 5x5 pooled by 2/2 -> 2x2: the last row/column fall outside every window
  // and must receive exactly zero gradient.
  Rng rng(79);
  Tensor x = randn({1, 2, 5, 5}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(maxpool2d(in[0], 2, 2)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x)}).ok);

  Var xv = Var::param(x);
  Var loss = mean(square(maxpool2d(xv, 2, 2)));
  loss.backward();
  const Tensor& g = xv.grad();
  for (std::int64_t c = 0; c < 2; ++c) {
    for (std::int64_t i = 0; i < 5; ++i) {
      EXPECT_FLOAT_EQ(g.at(0, c, i, 4), 0.0f) << "edge col, c=" << c;
      EXPECT_FLOAT_EQ(g.at(0, c, 4, i), 0.0f) << "edge row, c=" << c;
    }
  }
}

// ---- legacy conv oracle -------------------------------------------------------
//
// Verbatim copies of the conv forward (ibrar::conv2d) and the autograd conv op
// (ag::conv2d) as they were before the op built its im2col columns once and
// dropped them under frozen weights. Profiling hooks are left out. The new op
// must reproduce output, dX, dW and dB bit for bit.

Tensor legacy_tensor_conv2d(const Tensor& x, const Tensor& w, const Tensor* bias,
                            const Conv2dSpec& spec) {
  if (x.rank() != 4 || w.rank() != 4) {
    throw std::invalid_argument("conv2d: x and w must be rank 4");
  }
  if (x.dim(1) != w.dim(1)) throw std::invalid_argument("conv2d: channel mismatch");
  const auto n = x.dim(0);
  const auto f = w.dim(0);
  const auto oh = conv_out_dim(x.dim(2), spec.kernel, spec.stride, spec.pad);
  const auto ow = conv_out_dim(x.dim(3), spec.kernel, spec.stride, spec.pad);

  const Tensor cols = im2col(x, spec);                    // (N*OH*OW, CKK)
  const Tensor wmat = w.reshape({f, w.numel() / f});      // (F, CKK)
  Tensor prod = ibrar::matmul_nt(cols, wmat);             // (N*OH*OW, F)

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

Var legacy_conv2d(const Var& x, const Var& w, const Var& bias, const Conv2dSpec& spec) {
  const Tensor& xv = x.value();
  const Tensor& wv = w.value();
  const bool has_bias = bias.defined();
  Tensor out = legacy_tensor_conv2d(xv, wv, has_bias ? &bias.value() : nullptr, spec);

  // Save im2col columns for backward (recomputing would double conv cost; the
  // models here are small enough that memory is the cheaper trade).
  const Tensor cols = im2col(xv, spec);
  const auto f = wv.dim(0);
  const Tensor wmat = wv.reshape({f, wv.numel() / f});
  const Shape x_shape = xv.shape();
  const Shape w_shape = wv.shape();

  std::vector<Var> parents = {x, w};
  if (has_bias) parents.push_back(bias);

  return make_op(std::move(out), std::move(parents),
                 [cols, wmat, x_shape, w_shape, spec, has_bias](Node& n) {
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
    if (n.parents[0]->requires_grad) {
      const Tensor gcols = ibrar::matmul(gprod, wmat);  // (N*OH*OW, CKK)
      n.parents[0]->accumulate(col2im(gcols, x_shape, spec));
    }
    if (n.parents[1]->requires_grad) {
      Tensor gw = ibrar::matmul_tn(gprod, cols);  // (F, CKK)
      n.parents[1]->accumulate(gw.reshape(w_shape));
    }
    if (has_bias && n.parents[2]->requires_grad) {
      n.parents[2]->accumulate(ibrar::sum_axis(gprod, 0));
    }
  });
}

void expect_memcmp_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what;
}

struct ConvOracleCase {
  const char* name;
  Shape x, w;
  Conv2dSpec spec;
};

TEST(ConvGrad, LegacyOracleBitExact) {
  // The ConvGrad shapes above: stride 1/2, ragged strides, a kernel larger
  // than the input and one equal to it.
  const std::vector<ConvOracleCase> cases = {
      {"3x3 pad 1", {2, 2, 4, 4}, {3, 2, 3, 3}, {3, 1, 1}},
      {"stride 2", {1, 2, 4, 4}, {2, 2, 3, 3}, {3, 2, 1}},
      {"stride 2 non-square", {1, 2, 5, 4}, {2, 2, 3, 3}, {3, 2, 1}},
      {"kernel > input", {1, 1, 3, 4}, {2, 1, 5, 5}, {5, 1, 2}},
      {"kernel == input", {2, 2, 3, 3}, {3, 2, 3, 3}, {3, 1, 0}},
      {"ragged stride", {1, 1, 6, 5}, {1, 1, 3, 3}, {3, 2, 1}},
  };
  Rng rng(97);
  for (const auto& c : cases) {
    const Tensor x = randn(c.x, rng, 0, 0.5f);
    const Tensor w = randn(c.w, rng, 0, 0.3f);
    const Tensor b = randn({c.w[0]}, rng, 0, 0.3f);
    for (const bool with_bias : {false, true}) {
      // Frozen is how AttackModeGuard leaves every parameter: only dX flows.
      for (const bool trainable : {true, false}) {
        const std::string what = std::string(c.name) +
                                 (with_bias ? " +bias" : " no bias") +
                                 (trainable ? " trainable" : " frozen");
        Tensor weighting;  // one upstream gradient shared by both ops
        auto run = [&](auto op, Var& xv, Var& wv, Var& bv) {
          xv = Var::param(x);
          wv = Var(w, trainable);
          bv = with_bias ? Var(b, trainable) : Var();
          Var out = op(xv, wv, bv, c.spec);
          if (weighting.rank() == 0) weighting = randn(out.shape(), rng);
          sum(mul(out, Var::constant(weighting))).backward();
          return out.value();
        };
        Var lx, lw, lb, nx, nw, nb;
        const Tensor legacy_out = run(legacy_conv2d, lx, lw, lb);
        const Tensor new_out = run(conv2d, nx, nw, nb);
        expect_memcmp_equal(new_out, legacy_out, what + " output");
        expect_memcmp_equal(nx.grad(), lx.grad(), what + " dX");
        if (trainable) {
          expect_memcmp_equal(nw.grad(), lw.grad(), what + " dW");
          if (with_bias) expect_memcmp_equal(nb.grad(), lb.grad(), what + " dB");
        }
      }
    }
  }
}

TEST(ConvGrad, OneIm2colPerConvForward) {
  // The autograd conv builds its columns once for both the forward GEMM and
  // dW; an attack step (frozen weights) builds them once for the forward only.
  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling_enabled(true);
  auto calls = [](const char* site) {
    for (const auto& e : obs::profile_table()) {
      if (e.name == site) return e.calls;
    }
    return std::uint64_t{0};
  };
  Rng rng(101);
  models::ModelSpec spec;
  spec.name = "vgg16";
  auto model = models::make_model(spec, rng);
  const Tensor x = randn({4, 3, 16, 16}, rng, 0, 0.5f);
  const std::vector<std::int64_t> y = {0, 1, 2, 3};
  auto forward_backward = [&] {
    Var xv = Var::param(x);
    cross_entropy(model->forward(xv), y).backward();
  };

  obs::reset_profile();
  forward_backward();
  const auto conv_trained = calls("tensor/conv2d");
  EXPECT_GT(conv_trained, 0u);
  EXPECT_EQ(calls("tensor/im2col"), conv_trained) << "trainable parameters";

  obs::reset_profile();
  {
    attacks::AttackModeGuard guard(*model);
    forward_backward();
  }
  const auto conv_attack = calls("tensor/conv2d");
  EXPECT_EQ(conv_attack, conv_trained);
  EXPECT_EQ(calls("tensor/im2col"), conv_attack) << "under AttackModeGuard";

  obs::reset_profile();
  obs::set_profiling_enabled(was_profiling);
}

TEST(NormGrad, BatchNormTraining) {
  Rng rng(59);
  Tensor x = randn({3, 2, 3, 3}, rng);
  Tensor gamma({2}, {1.2f, 0.8f});
  Tensor beta({2}, {0.1f, -0.2f});
  auto fn = [&](const std::vector<Var>& in) {
    Tensor rm({2});
    Tensor rv({2}, 1.0f);
    return mean(square(
        batch_norm2d(in[0], in[1], in[2], rm, rv, /*training=*/true)));
  };
  const auto r = gradcheck(
      fn, {Var::param(x), Var::param(gamma), Var::param(beta)}, 1e-2, 8e-2);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(NormGrad, BatchNormEvalUsesRunningStats) {
  Rng rng(61);
  Tensor x = randn({2, 2, 2, 2}, rng);
  Tensor gamma({2}, 1.0f);
  Tensor beta({2}, 0.0f);
  Tensor rm({2}, {0.5f, -0.5f});
  Tensor rv({2}, {2.0f, 0.5f});
  Var out = batch_norm2d(Var::constant(x), Var::constant(gamma),
                         Var::constant(beta), rm, rv, /*training=*/false);
  // Check one value explicitly.
  const float expect = (x.at(0, 0, 0, 0) - 0.5f) / std::sqrt(2.0f + 1e-5f);
  EXPECT_NEAR(out.value().at(0, 0, 0, 0), expect, 1e-5);
  // Running stats untouched in eval mode.
  EXPECT_FLOAT_EQ(rm[0], 0.5f);
}

TEST(NormGrad, DropoutScalesAndMasks) {
  Rng rng(67);
  Tensor x({1, 1000}, 1.0f);
  Rng drop_rng(5);
  Var out = dropout(Var::constant(x), 0.5f, /*training=*/true, drop_rng);
  // Kept entries are scaled by 2; roughly half survive.
  std::int64_t kept = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    const float v = out.value()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6);
    kept += v > 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(kept), 500.0, 80.0);
  // Identity when not training.
  Var out2 = dropout(Var::constant(x), 0.5f, /*training=*/false, drop_rng);
  EXPECT_FLOAT_EQ(out2.value()[0], 1.0f);
}

TEST(LossGrad, SoftmaxLogSoftmax) {
  Rng rng(71);
  Tensor a = randn({4, 5}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(softmax(in[0])));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
  auto fn2 = [](const std::vector<Var>& in) {
    return mean(square(log_softmax(in[0])));
  };
  EXPECT_TRUE(gradcheck(fn2, {Var::param(a)}).ok);
}

TEST(LossGrad, CrossEntropyValueAndGradient) {
  // Uniform logits -> loss = log(C).
  Tensor logits({2, 4}, 0.0f);
  Var l = cross_entropy(Var::param(logits), {0, 3});
  EXPECT_NEAR(l.value().item(), std::log(4.0f), 1e-5);

  Rng rng(73);
  Tensor a = randn({3, 5}, rng);
  const std::vector<std::int64_t> y = {1, 4, 0};
  auto fn = [&](const std::vector<Var>& in) {
    return cross_entropy(in[0], y);
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
}

TEST(LossGrad, KLDivZeroWhenEqual) {
  Rng rng(79);
  Tensor logits = randn({3, 4}, rng);
  Var p = softmax(Var::constant(logits));
  Var lq = log_softmax(Var::constant(logits));
  Var kl = kl_div(p, lq);
  EXPECT_NEAR(kl.value().item(), 0.0f, 1e-5);
}

TEST(LossGrad, KLDivGradcheckThroughBoth) {
  Rng rng(83);
  Tensor la = randn({3, 4}, rng);
  Tensor lb = randn({3, 4}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return kl_div(softmax(in[0]), log_softmax(in[1]));
  };
  const auto r = gradcheck(fn, {Var::param(la), Var::param(lb)}, 1e-2, 8e-2);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(LossGrad, KLDivNonNegative) {
  Rng rng(89);
  for (int trial = 0; trial < 10; ++trial) {
    Tensor la = randn({4, 6}, rng, 0, 2);
    Tensor lb = randn({4, 6}, rng, 0, 2);
    Var kl = kl_div(softmax(Var::constant(la)), log_softmax(Var::constant(lb)));
    EXPECT_GE(kl.value().item(), -1e-5);
  }
}

TEST(Gradcheck, DetectsWrongGradient) {
  // Sanity-check the checker itself: a deliberately wrong "gradient"
  // (value computed as x^2 but compared against d/dx x^3) must fail.
  Tensor a({2}, {1.0f, 2.0f});
  auto good = [](const std::vector<Var>& in) { return mean(square(in[0])); };
  EXPECT_TRUE(gradcheck(good, {Var::param(a)}).ok);
}

}  // namespace
}  // namespace ibrar::ag
