// Unit and property tests for the tensor/autograd module. The GradCheck
// property tests compare analytic gradients against central differences for
// every differentiable op.

#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <tuple>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/cpu_features.h"
#include "util/rng.h"

namespace rpt {
namespace {

bool Avx2Available() { return BuiltWithAvx2() && CpuSupportsAvx2Fma(); }

// Bitwise equality of two float buffers (NaN-safe, distinguishes -0).
bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(TensorTest, FactoriesAndShape) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.ndim(), 2);
  EXPECT_EQ(z.dim(0), 2);
  EXPECT_EQ(z.dim(-1), 3);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(z.at(i), 0.0f);

  Tensor f = Tensor::Full({4}, 2.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(f.at(i), 2.5f);

  Tensor v = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  EXPECT_EQ(v.at(3), 4.0f);
}

TEST(TensorTest, RandnIsDeterministicGivenSeed) {
  Rng rng1(42), rng2(42);
  Tensor a = Tensor::Randn({16}, 1.0f, &rng1);
  Tensor b = Tensor::Randn({16}, 1.0f, &rng2);
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST(TensorTest, AddSubMulSameShape) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {3});
  Tensor b = Tensor::FromVector({10, 20, 30}, {3});
  EXPECT_EQ(Add(a, b).ToVector(), (std::vector<float>{11, 22, 33}));
  EXPECT_EQ(Sub(b, a).ToVector(), (std::vector<float>{9, 18, 27}));
  EXPECT_EQ(Mul(a, b).ToVector(), (std::vector<float>{10, 40, 90}));
}

TEST(TensorTest, AddSuffixBroadcast) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor bias = Tensor::FromVector({10, 20, 30}, {3});
  Tensor out = Add(a, bias);
  EXPECT_EQ(out.ToVector(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(TensorTest, AddScalarBroadcast) {
  Tensor a = Tensor::FromVector({1, 2}, {2});
  Tensor s = Tensor::FromVector({5}, {1});
  EXPECT_EQ(Add(a, s).ToVector(), (std::vector<float>{6, 7}));
  EXPECT_EQ(AddScalar(a, 5.0f).ToVector(), (std::vector<float>{6, 7}));
  EXPECT_EQ(Scale(a, 3.0f).ToVector(), (std::vector<float>{3, 6}));
}

TEST(TensorTest, MatMul2D) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::FromVector({5, 6, 7, 8}, {2, 2});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{19, 22, 43, 50}));
}

TEST(TensorTest, MatMulLeadingDims) {
  // [2, 1, 2] x [2, 3]
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {2, 1, 2});
  Tensor b = Tensor::FromVector({1, 0, 1, 0, 1, 1}, {2, 3});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (std::vector<int64_t>{2, 1, 3}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 2, 3, 3, 4, 7}));
}

TEST(TensorTest, MatMulBatched) {
  // [2, 2, 2] x [2, 2, 2] batched.
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 1, 0, 0, 1}, {2, 2, 2});
  Tensor b = Tensor::FromVector({1, 0, 0, 1, 5, 6, 7, 8}, {2, 2, 2});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 2, 3, 4, 5, 6, 7, 8}));
}

// Regression for the old `av == 0.0f` skip in GemmNN/GemmTN: a zero in one
// operand must not suppress NaN/Inf in the other (IEEE: 0 * NaN = NaN,
// 0 * Inf = NaN), and kernel latency must not depend on data values.
TEST(TensorTest, MatMulPropagatesNaNFromEitherOperand) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // NaN in B against an all-zero A row: the zero-skip shortcut used to
  // silently drop this product and emit 0 instead of NaN.
  Tensor a = Tensor::FromVector({0, 0, 1, 1}, {2, 2});
  Tensor b = Tensor::FromVector({nan, 2, 3, 4}, {2, 2});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0)));  // 0*NaN + 0*3
  EXPECT_TRUE(std::isnan(c.at(2)));  // 1*NaN + 1*3
  EXPECT_EQ(c.at(1), 0.0f * 2 + 0.0f * 4);
  // NaN in A propagates across the whole output row.
  Tensor a2 = Tensor::FromVector({nan, 0, 0, 1}, {2, 2});
  Tensor b2 = Tensor::FromVector({1, 2, 3, 4}, {2, 2});
  Tensor c2 = MatMul(a2, b2);
  EXPECT_TRUE(std::isnan(c2.at(0)));
  EXPECT_TRUE(std::isnan(c2.at(1)));
  EXPECT_EQ(c2.at(2), 3.0f);
}

TEST(TensorTest, MatMulZeroTimesInfIsNaN) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a = Tensor::FromVector({0, 0}, {1, 2});
  Tensor b = Tensor::FromVector({inf, 1, inf, 1}, {2, 2});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0)));
  EXPECT_EQ(c.at(1), 0.0f);
}

TEST(TensorTest, MatMulBackwardPropagatesNaNThroughGemmTN) {
  // GemmTN (the dB = A^T dOut backward kernel) had the same zero-skip; a
  // zero activation against a NaN upstream gradient must produce NaN grads.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a = Tensor::FromVector({0, 0}, {1, 2});
  Tensor w = Tensor::FromVector({1, 1, 1, 1}, {2, 2});
  w.set_requires_grad(true);
  Tensor y = MatMul(a, w);
  Tensor loss = Sum(Mul(y, Tensor::FromVector({nan, 1}, {1, 2})));
  loss.Backward();
  EXPECT_TRUE(std::isnan(w.grad_data()[0]));
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  Rng rng(7);
  Tensor a = Tensor::Randn({5, 9}, 2.0f, &rng);
  Tensor s = Softmax(a);
  for (int r = 0; r < 5; ++r) {
    float sum = 0;
    float prev_max = -1;
    for (int c = 0; c < 9; ++c) {
      float v = s.at(r * 9 + c);
      EXPECT_GT(v, 0.0f);
      sum += v;
      prev_max = std::max(prev_max, v);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(TensorTest, SoftmaxIsShiftInvariant) {
  Tensor a = Tensor::FromVector({1, 2, 3}, {1, 3});
  Tensor b = Tensor::FromVector({1001, 1002, 1003}, {1, 3});
  auto sa = Softmax(a).ToVector();
  auto sb = Softmax(b).ToVector();
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(sa[i], sb[i], 1e-5);
}

TEST(TensorTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 6}, 1.5f, &rng);
  auto ls = LogSoftmax(a).ToVector();
  auto s = Softmax(a).ToVector();
  for (size_t i = 0; i < ls.size(); ++i) {
    EXPECT_NEAR(ls[i], std::log(s[i]), 1e-4);
  }
}

TEST(TensorTest, LayerNormNormalizesRows) {
  Rng rng(11);
  Tensor x = Tensor::Randn({3, 8}, 3.0f, &rng);
  Tensor gamma = Tensor::Full({8}, 1.0f);
  Tensor beta = Tensor::Zeros({8});
  Tensor y = LayerNorm(x, gamma, beta);
  for (int r = 0; r < 3; ++r) {
    float mean = 0, var = 0;
    for (int c = 0; c < 8; ++c) mean += y.at(r * 8 + c);
    mean /= 8;
    for (int c = 0; c < 8; ++c) {
      float d = y.at(r * 8 + c) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0f, 1e-4);
    EXPECT_NEAR(var, 1.0f, 1e-2);
  }
}

TEST(TensorTest, ReshapeTransposeSliceConcat) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.ToVector(), a.ToVector());

  Tensor t = Transpose(a, 0, 1);
  ASSERT_EQ(t.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));

  Tensor s = Slice(a, 1, 1, 3);
  ASSERT_EQ(s.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{2, 3, 5, 6}));

  Tensor c = Concat({a, a}, 0);
  ASSERT_EQ(c.shape(), (std::vector<int64_t>{4, 3}));
  EXPECT_EQ(c.at(6), 1.0f);

  Tensor c1 = Concat({a, s}, 1);
  ASSERT_EQ(c1.shape(), (std::vector<int64_t>{2, 5}));
  EXPECT_EQ(c1.ToVector(),
            (std::vector<float>{1, 2, 3, 2, 3, 4, 5, 6, 5, 6}));
}

TEST(TensorTest, Transpose3DMiddleAxes) {
  // [2,2,2]: swap axes 0 and 1.
  Tensor a = Tensor::FromVector({0, 1, 2, 3, 4, 5, 6, 7}, {2, 2, 2});
  Tensor t = Transpose(a, 0, 1);
  EXPECT_EQ(t.ToVector(), (std::vector<float>{0, 1, 4, 5, 2, 3, 6, 7}));
}

TEST(TensorTest, EmbeddingLookupGathersRows) {
  Tensor w = Tensor::FromVector({0, 0, 1, 1, 2, 2}, {3, 2});
  Tensor e = EmbeddingLookup(w, {2, 0, 2});
  ASSERT_EQ(e.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(e.ToVector(), (std::vector<float>{2, 2, 0, 0, 2, 2}));
}

TEST(TensorTest, SumMean) {
  Tensor a = Tensor::FromVector({1, 2, 3, 4}, {4});
  EXPECT_EQ(Sum(a).item(), 10.0f);
  EXPECT_EQ(Mean(a).item(), 2.5f);
}

TEST(TensorTest, CrossEntropyUniformLogitsIsLogV) {
  Tensor logits = Tensor::Zeros({2, 5});
  Tensor loss = CrossEntropyLoss(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(5.0f), 1e-5);
}

TEST(TensorTest, CrossEntropyIgnoreIndexSkipsRows) {
  Tensor logits = Tensor::FromVector(
      {10, 0, 0,   // row 0 strongly predicts class 0
       0, 0, 0},   // row 1 ignored
      {2, 3});
  Tensor loss = CrossEntropyLoss(logits, {0, -100});
  EXPECT_LT(loss.item(), 0.01f);
}

TEST(TensorTest, ArgmaxLastDim) {
  Tensor a = Tensor::FromVector({1, 5, 2, 9, 0, 3}, {2, 3});
  EXPECT_EQ(ArgmaxLastDim(a), (std::vector<int32_t>{1, 0}));
}

TEST(TensorTest, DropoutIdentityWhenEval) {
  Rng rng(1);
  Tensor a = Tensor::FromVector({1, 2, 3}, {3});
  Tensor d = Dropout(a, 0.5f, /*training=*/false, &rng);
  EXPECT_EQ(d.ToVector(), a.ToVector());
}

TEST(TensorTest, DropoutPreservesExpectation) {
  Rng rng(123);
  Tensor a = Tensor::Full({10000}, 1.0f);
  a.set_requires_grad(false);
  Tensor d = Dropout(a, 0.3f, /*training=*/true, &rng);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) sum += d.at(i);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);
}

// ---- Autograd -------------------------------------------------------------

TEST(AutogradTest, SimpleChainRule) {
  // loss = mean((a*b + a)^2)... keep tiny and verify by hand:
  // a=2, b=3 -> y = a*b = 6, loss = y -> dy/da = 3, dy/db = 2.
  Tensor a = Tensor::FromVector({2}, {1});
  Tensor b = Tensor::FromVector({3}, {1});
  a.set_requires_grad(true);
  b.set_requires_grad(true);
  Tensor y = Sum(Mul(a, b));
  y.Backward();
  EXPECT_EQ(a.grad_data()[0], 3.0f);
  EXPECT_EQ(b.grad_data()[0], 2.0f);
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  // y = a + a -> dy/da = 2.
  Tensor a = Tensor::FromVector({5}, {1});
  a.set_requires_grad(true);
  Tensor y = Sum(Add(a, a));
  y.Backward();
  EXPECT_EQ(a.grad_data()[0], 2.0f);
}

TEST(AutogradTest, NoGradGuardSkipsGraph) {
  Tensor a = Tensor::FromVector({1}, {1});
  a.set_requires_grad(true);
  NoGradGuard guard;
  Tensor y = Add(a, a);
  EXPECT_FALSE(y.requires_grad());
}

TEST(AutogradTest, MatMulGradCheck) {
  Rng rng(17);
  Tensor w = Tensor::Randn({4, 3}, 0.5f, &rng);
  auto fn = [&w](const Tensor& x) { return Sum(Tanh(MatMul(x, w))); };
  Tensor x = Tensor::Randn({2, 4}, 0.5f, &rng);
  EXPECT_LT(GradCheck(fn, x, 8, &rng), 1e-2);
}

TEST(AutogradTest, BatchedMatMulGradCheck) {
  Rng rng(18);
  Tensor b = Tensor::Randn({2, 3, 2}, 0.5f, &rng);
  b.set_requires_grad(true);
  auto fn = [&b](const Tensor& x) { return Sum(MatMul(x, b)); };
  Tensor x = Tensor::Randn({2, 2, 3}, 0.5f, &rng);
  EXPECT_LT(GradCheck(fn, x, 8, &rng), 1e-2);
}

TEST(AutogradTest, SoftmaxGradCheck) {
  Rng rng(19);
  auto fn = [](const Tensor& x) {
    Tensor s = Softmax(x);
    return Sum(Mul(s, s));  // non-trivial downstream gradient
  };
  Tensor x = Tensor::Randn({3, 5}, 1.0f, &rng);
  EXPECT_LT(GradCheck(fn, x, 10, &rng), 1e-2);
}

TEST(AutogradTest, LayerNormGradCheck) {
  Rng rng(20);
  Tensor gamma = Tensor::Randn({6}, 0.5f, &rng);
  Tensor beta = Tensor::Randn({6}, 0.5f, &rng);
  auto fn = [&](const Tensor& x) {
    return Sum(Tanh(LayerNorm(x, gamma, beta)));
  };
  Tensor x = Tensor::Randn({4, 6}, 1.0f, &rng);
  EXPECT_LT(GradCheck(fn, x, 10, &rng), 1e-2);
}

TEST(AutogradTest, LayerNormParamGradCheck) {
  Rng rng(21);
  Tensor x = Tensor::Randn({4, 6}, 1.0f, &rng);
  Tensor beta = Tensor::Zeros({6});
  auto fn = [&](const Tensor& gamma) {
    return Sum(Tanh(LayerNorm(x, gamma, beta)));
  };
  Tensor gamma = Tensor::Randn({6}, 0.5f, &rng);
  EXPECT_LT(GradCheck(fn, gamma, 6, &rng), 1e-2);
}

TEST(AutogradTest, GeluGradCheck) {
  Rng rng(22);
  auto fn = [](const Tensor& x) { return Sum(Gelu(x)); };
  Tensor x = Tensor::Randn({10}, 1.0f, &rng);
  EXPECT_LT(GradCheck(fn, x, 10, &rng), 1e-2);
}

TEST(AutogradTest, SigmoidReluGradCheck) {
  Rng rng(23);
  auto fn = [](const Tensor& x) { return Sum(Sigmoid(Relu(x))); };
  Tensor x = Tensor::Randn({10}, 1.0f, &rng);
  EXPECT_LT(GradCheck(fn, x, 10, &rng), 2e-2);
}

TEST(AutogradTest, CrossEntropyGradCheck) {
  Rng rng(24);
  std::vector<int32_t> targets = {1, 3, 0};
  auto fn = [&targets](const Tensor& x) {
    return CrossEntropyLoss(x, targets);
  };
  Tensor x = Tensor::Randn({3, 5}, 1.0f, &rng);
  EXPECT_LT(GradCheck(fn, x, 10, &rng), 1e-2);
}

TEST(AutogradTest, CrossEntropyLabelSmoothingGradCheck) {
  Rng rng(25);
  std::vector<int32_t> targets = {1, -100, 0};
  auto fn = [&targets](const Tensor& x) {
    return CrossEntropyLoss(x, targets, -100, 0.1f);
  };
  Tensor x = Tensor::Randn({3, 5}, 1.0f, &rng);
  EXPECT_LT(GradCheck(fn, x, 10, &rng), 1e-2);
}

TEST(AutogradTest, TransposeSliceConcatGradCheck) {
  Rng rng(26);
  auto fn = [](const Tensor& x) {
    Tensor t = Transpose(x, 0, 1);
    Tensor s = Slice(t, 0, 0, 2);
    Tensor c = Concat({s, s}, 1);
    return Sum(Mul(c, c));
  };
  Tensor x = Tensor::Randn({3, 4}, 1.0f, &rng);
  EXPECT_LT(GradCheck(fn, x, 10, &rng), 1e-2);
}

TEST(AutogradTest, EmbeddingBackwardScatterAdds) {
  Tensor w = Tensor::Zeros({3, 2});
  w.set_requires_grad(true);
  Tensor e = EmbeddingLookup(w, {1, 1, 2});
  Sum(e).Backward();
  // Row 1 used twice, row 2 once, row 0 never.
  EXPECT_EQ(w.grad_data()[0], 0.0f);
  EXPECT_EQ(w.grad_data()[2], 2.0f);
  EXPECT_EQ(w.grad_data()[3], 2.0f);
  EXPECT_EQ(w.grad_data()[4], 1.0f);
}

TEST(AutogradTest, BroadcastAddReducesGradToBias) {
  Tensor x = Tensor::Zeros({4, 3});
  Tensor bias = Tensor::Zeros({3});
  bias.set_requires_grad(true);
  Sum(Add(x, bias)).Backward();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(bias.grad_data()[i], 4.0f);
}

// Naive Transpose reference: recomputes the source multi-index per element.
std::vector<float> NaiveTranspose(const Tensor& a, int64_t axis0,
                                  int64_t axis1) {
  const std::vector<int64_t>& shape = a.shape();
  const size_t nd = shape.size();
  std::vector<int64_t> out_shape = shape;
  std::swap(out_shape[static_cast<size_t>(axis0)],
            out_shape[static_cast<size_t>(axis1)]);
  std::vector<int64_t> in_strides(nd, 1);
  for (size_t d = nd - 1; d > 0; --d) {
    in_strides[d - 1] = in_strides[d] * shape[d];
  }
  std::vector<float> out(static_cast<size_t>(a.numel()));
  std::vector<int64_t> idx(nd, 0);
  for (size_t flat = 0; flat < out.size(); ++flat) {
    int64_t src = 0;
    for (size_t d = 0; d < nd; ++d) {
      size_t sd = d;
      if (d == static_cast<size_t>(axis0)) sd = static_cast<size_t>(axis1);
      if (d == static_cast<size_t>(axis1)) sd = static_cast<size_t>(axis0);
      src += idx[d] * in_strides[sd];
    }
    out[flat] = a.at(src);
    for (size_t d = nd; d-- > 0;) {
      if (++idx[d] < out_shape[d]) break;
      idx[d] = 0;
    }
  }
  return out;
}

TEST(TransposeTest, MatchesNaiveReferenceForEveryAxisPair) {
  const std::vector<std::vector<int64_t>> shapes = {
      {3, 4},          {1, 5},          {4, 1},       {0, 3},
      {2, 3, 4},       {2, 1, 3},       {3, 0, 2},    {2, 3, 4, 5},
      {32, 2, 4, 3},   {1, 3, 1, 2},    {2, 0, 3, 1}, {2, 3, 1, 2, 3},
      {1, 2, 3, 2, 1}, {2, 2, 0, 2, 2}};
  Rng rng(41);
  for (const auto& shape : shapes) {
    Tensor a = Tensor::Randn(shape, 1.0f, &rng);
    const int64_t nd = static_cast<int64_t>(shape.size());
    for (int64_t x = 0; x < nd; ++x) {
      for (int64_t y = 0; y < nd; ++y) {
        Tensor t = Transpose(a, x, y);
        std::vector<int64_t> expect_shape = shape;
        std::swap(expect_shape[static_cast<size_t>(x)],
                  expect_shape[static_cast<size_t>(y)]);
        ASSERT_EQ(t.shape(), expect_shape);
        EXPECT_EQ(t.ToVector(), NaiveTranspose(a, x, y))
            << "rank " << nd << " axes " << x << "," << y;
        // Negative axes name the same pair.
        EXPECT_EQ(Transpose(a, x - nd, y - nd).ToVector(), t.ToVector());
      }
    }
  }
}

TEST(TransposeTest, GradCheckEveryAxisPairOf4D) {
  Rng rng(42);
  Tensor w = Tensor::Randn({2, 3, 4, 2}, 1.0f, &rng);
  for (int64_t x = 0; x < 4; ++x) {
    for (int64_t y = x + 1; y < 4; ++y) {
      // Weight the output elementwise so every position gets a distinct
      // gradient, then check it lands at the transposed input position.
      Tensor wt = Transpose(w, x, y);
      auto fn = [&wt, x, y](const Tensor& in) {
        return Sum(Mul(Tanh(Transpose(in, x, y)), wt));
      };
      Tensor in = Tensor::Randn({2, 3, 4, 2}, 1.0f, &rng);
      EXPECT_LT(GradCheck(fn, in, 12, &rng), 1e-2)
          << "axes " << x << "," << y;
    }
  }
}

TEST(MatMulNTTest, ForcedScalarIsBitwiseMatMulOfTranspose) {
  ScopedTensorBackendOverride scalar(TensorBackend::kScalar);
  Rng rng(43);
  for (const auto& [m, k, n] : std::vector<std::tuple<int, int, int>>{
           {1, 16, 26}, {26, 16, 26}, {7, 5, 3}, {33, 17, 9}, {1, 1, 1}}) {
    Tensor a = Tensor::Randn({2, 3, m, k}, 1.0f, &rng);
    Tensor b = Tensor::Randn({2, 3, n, k}, 1.0f, &rng);
    a.set_requires_grad(true);
    b.set_requires_grad(true);
    Tensor w = Tensor::Randn({2, 3, m, n}, 1.0f, &rng);
    Tensor fused = MatMulNT(a, b);
    Tensor composed = MatMul(a, Transpose(b, -2, -1));
    EXPECT_TRUE(BitwiseEqual(fused, composed)) << m << "x" << k << "x" << n;

    // Backward is bitwise too: GemmNN/GemmTN accumulate in the order the
    // composed graph's GemmNT/GemmTN + transpose-back did.
    Sum(Mul(fused, w)).Backward();
    Tensor ga = Tensor::FromVector(
        std::vector<float>(a.grad_data(), a.grad_data() + a.numel()),
        a.shape());
    Tensor gb = Tensor::FromVector(
        std::vector<float>(b.grad_data(), b.grad_data() + b.numel()),
        b.shape());
    a.ZeroGrad();
    b.ZeroGrad();
    Sum(Mul(composed, w)).Backward();
    EXPECT_EQ(std::memcmp(ga.data(), a.grad_data(),
                          sizeof(float) * static_cast<size_t>(a.numel())),
              0);
    EXPECT_EQ(std::memcmp(gb.data(), b.grad_data(),
                          sizeof(float) * static_cast<size_t>(b.numel())),
              0);
  }
}

TEST(MatMulNTTest, Avx2AgreesWithScalar) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  Rng rng(44);
  Tensor a = Tensor::Randn({4, 26, 16}, 1.0f, &rng);
  Tensor b = Tensor::Randn({4, 29, 16}, 1.0f, &rng);
  Tensor scalar, simd;
  {
    ScopedTensorBackendOverride pin(TensorBackend::kScalar);
    scalar = MatMulNT(a, b);
  }
  {
    ScopedTensorBackendOverride pin(TensorBackend::kAvx2);
    simd = MatMulNT(a, b);
  }
  for (int64_t i = 0; i < scalar.numel(); ++i) {
    EXPECT_NEAR(simd.at(i), scalar.at(i), 1e-4) << i;
  }
}

TEST(MatMulNTTest, GradCheckBothOperands) {
  Rng rng(45);
  Tensor b = Tensor::Randn({2, 4, 3}, 0.5f, &rng);
  b.set_requires_grad(true);
  auto fn_a = [&b](const Tensor& x) { return Sum(Tanh(MatMulNT(x, b))); };
  Tensor a = Tensor::Randn({2, 5, 3}, 0.5f, &rng);
  EXPECT_LT(GradCheck(fn_a, a, 12, &rng), 1e-2);
  Tensor a2 = Tensor::Randn({2, 5, 3}, 0.5f, &rng);
  auto fn_b = [&a2](const Tensor& x) { return Sum(Tanh(MatMulNT(a2, x))); };
  Tensor b2 = Tensor::Randn({2, 4, 3}, 0.5f, &rng);
  EXPECT_LT(GradCheck(fn_b, b2, 12, &rng), 1e-2);
}

Tensor UnfusedMaskedSoftmax(const Tensor& s, const Tensor& bias,
                            float scale) {
  Tensor z = Scale(s, scale);
  if (bias.defined()) z = Add(z, bias);
  return Softmax(z);
}

TEST(MaskedSoftmaxTest, ForcedScalarIsBitwiseTheUnfusedComposition) {
  ScopedTensorBackendOverride scalar(TensorBackend::kScalar);
  Rng rng(46);
  Tensor s = Tensor::Randn({2, 3, 5, 7}, 2.0f, &rng);
  Tensor bias = Tensor::Randn({2, 3, 5, 7}, 1.0f, &rng);
  for (int64_t i = 0; i < bias.numel(); i += 3) bias.data()[i] = -1e9f;
  for (int64_t c = 0; c < 7; ++c) bias.data()[c] = -1e9f;  // a dead row
  const float scale = 0.3f;
  for (const Tensor& b : {bias, Tensor()}) {
    NoGradGuard no_grad;
    Tensor fused = MaskedSoftmax(s, b, scale);
    EXPECT_TRUE(BitwiseEqual(fused, UnfusedMaskedSoftmax(s, b, scale)));
  }
  // Handing over the only handle computes in place; a shared input is
  // left untouched.
  NoGradGuard no_grad;
  Tensor copy = s.Detach();
  const float* buffer = copy.data();
  Tensor in_place = MaskedSoftmax(std::move(copy), bias, scale);
  EXPECT_EQ(in_place.data(), buffer);
  EXPECT_TRUE(
      BitwiseEqual(in_place, UnfusedMaskedSoftmax(s, bias, scale)));
  Tensor kept = s.Detach();
  Tensor out = MaskedSoftmax(kept, bias, scale);
  EXPECT_NE(out.data(), kept.data());
  EXPECT_TRUE(BitwiseEqual(kept, s));
}

TEST(MaskedSoftmaxTest, GradientMatchesUnfusedComposition) {
  Rng rng(47);
  Tensor bias = Tensor::Randn({3, 4, 6}, 1.0f, &rng);
  for (int64_t i = 0; i < bias.numel(); i += 5) bias.data()[i] = -1e9f;
  bias.set_requires_grad(true);
  Tensor w = Tensor::Randn({3, 4, 6}, 1.0f, &rng);
  const float scale = 0.5f;
  auto fused = [&](const Tensor& x) {
    return Sum(Mul(MaskedSoftmax(x, bias, scale), w));
  };
  auto unfused = [&](const Tensor& x) {
    return Sum(Mul(UnfusedMaskedSoftmax(x, bias, scale), w));
  };
  Tensor x = Tensor::Randn({3, 4, 6}, 1.0f, &rng);
  EXPECT_LT(GradCheck(fused, x, 16, &rng), 1e-2);

  // Analytic gradients (scores and bias) agree with the unfused graph.
  auto grads = [&](const std::function<Tensor(const Tensor&)>& fn) {
    Tensor in = x.Detach();
    in.set_requires_grad(true);
    bias.ZeroGrad();
    fn(in).Backward();
    std::vector<float> g(in.grad_data(), in.grad_data() + in.numel());
    g.insert(g.end(), bias.grad_data(), bias.grad_data() + bias.numel());
    return g;
  };
  const std::vector<float> got = grads(fused);
  const std::vector<float> want = grads(unfused);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-6) << i;
  }
}

TEST(ReshapeTest, HandedOverBufferIsRelabelledAndSharedOneCopied) {
  NoGradGuard no_grad;
  Tensor a = Tensor::FromVector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor shared = Reshape(a, {3, 2});
  EXPECT_NE(shared.data(), a.data());
  EXPECT_EQ(a.shape(), (std::vector<int64_t>{2, 3}));
  const float* buffer = shared.data();
  Tensor moved = Reshape(std::move(shared), {6});
  EXPECT_EQ(moved.data(), buffer);
  EXPECT_EQ(moved.ToVector(), a.ToVector());
}

// Property-style sweep: MatMul shapes.
class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulShapeTest, ForwardMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(100 + m * 31 + k * 7 + n);
  Tensor a = Tensor::Randn({m, k}, 1.0f, &rng);
  Tensor b = Tensor::Randn({k, n}, 1.0f, &rng);
  Tensor c = MatMul(a, b);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0;
      for (int p = 0; p < k; ++p) {
        acc += static_cast<double>(a.at(i * k + p)) * b.at(p * n + j);
      }
      EXPECT_NEAR(c.at(i * n + j), acc, 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulShapeTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 64, 8), std::make_tuple(33, 17, 9)));

}  // namespace
}  // namespace rpt
