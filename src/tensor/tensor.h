// A small dense float32 tensor with reverse-mode autograd.
//
// Tensor is a cheap handle (shared_ptr to TensorImpl). Operations on tensors
// that require gradients record a backward closure; calling Backward() on a
// scalar result propagates gradients to every reachable leaf. When autograd
// is globally disabled (NoGradGuard) or no input requires a gradient, ops
// skip graph construction entirely, which keeps inference cheap.
//
// The op surface is exactly what the RPT Transformer stack needs: matmul
// (2-D weights and batched), broadcasting add/mul, softmax, fused layer norm
// and cross-entropy, GELU/ReLU/tanh/sigmoid, embedding gather, transpose /
// reshape / slice / concat, dropout, and reductions.

#ifndef RPT_TENSOR_TENSOR_H_
#define RPT_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace rpt {

namespace internal {
struct TensorImpl;
}  // namespace internal

/// RAII guard that disables autograd graph construction within its scope.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// True when ops should record backward closures.
bool AutogradEnabled();

class Tensor {
 public:
  /// An empty (null) tensor; most methods may not be called on it.
  Tensor() = default;

  // ---- Factories ----------------------------------------------------------

  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float value);
  static Tensor FromVector(std::vector<float> values,
                           std::vector<int64_t> shape);
  /// i.i.d. Normal(0, stddev).
  static Tensor Randn(std::vector<int64_t> shape, float stddev, Rng* rng);
  /// i.i.d. Uniform[lo, hi).
  static Tensor Uniform(std::vector<int64_t> shape, float lo, float hi,
                        Rng* rng);

  // ---- Introspection ------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const std::vector<int64_t>& shape() const;
  int64_t ndim() const;
  int64_t dim(int64_t axis) const;  // supports negative axes
  int64_t numel() const;

  float* data();
  const float* data() const;

  /// Gradient buffer (same layout as data); CHECKs unless requires_grad and
  /// a backward pass has allocated it.
  float* grad_data();
  const float* grad_data() const;
  bool has_grad() const;

  bool requires_grad() const;
  Tensor& set_requires_grad(bool value);

  /// Value of a 1-element tensor.
  float item() const;
  /// Element at flat index.
  float at(int64_t flat_index) const;
  /// Copies the contents out.
  std::vector<float> ToVector() const;

  // ---- Shared-storage views ----------------------------------------------

  /// True when this tensor aliases external storage (a frozen weight blob)
  /// instead of owning its elements. Views are inference-only: they never
  /// require grad and must not be written through data().
  bool is_view() const;

  /// Rebinds this tensor's storage *in place* to `data` (numel() elements,
  /// lifetime guaranteed by `keepalive`). Every handle sharing this impl —
  /// e.g. a module's registered parameter and the layer's member copy —
  /// observes the rebind. Frees the previously owned buffer and gradient,
  /// and clears requires_grad so autograd never writes shared storage.
  void BindTo(std::shared_ptr<const void> keepalive, const float* data);

  /// A tensor aliasing external storage (numel given by `shape`), kept
  /// alive by `keepalive`. See BindTo for the view contract.
  static Tensor FromExternal(std::shared_ptr<const void> keepalive,
                             const float* data, std::vector<int64_t> shape);

  /// Multi-line debug rendering (shape + up to a few rows of data).
  std::string DebugString() const;

  // ---- Autograd -----------------------------------------------------------

  /// Backpropagates from this scalar (numel()==1) tensor.
  void Backward();

  /// Zeroes an allocated gradient buffer (no-op when none exists).
  void ZeroGrad();

  /// A copy sharing nothing with the autograd graph.
  Tensor Detach() const;

  // For internal use by ops.
  const std::shared_ptr<internal::TensorImpl>& impl() const { return impl_; }
  explicit Tensor(std::shared_ptr<internal::TensorImpl> impl)
      : impl_(std::move(impl)) {}

 private:
  std::shared_ptr<internal::TensorImpl> impl_;
};

// ---- Elementwise / arithmetic ---------------------------------------------

/// a + b. Shapes must match, or b broadcasts as a trailing-suffix shape
/// (e.g. bias [N] onto [..., N]) or a scalar (numel()==1).
Tensor Add(const Tensor& a, const Tensor& b);
/// a - b (same broadcasting as Add).
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise product (same broadcasting as Add).
Tensor Mul(const Tensor& a, const Tensor& b);
/// a * scalar.
Tensor Scale(const Tensor& a, float scalar);
/// a + scalar.
Tensor AddScalar(const Tensor& a, float scalar);

// ---- Matmul ---------------------------------------------------------------

/// Matrix product. Supported shapes:
///   a [..., M, K] x b [K, N]            -> [..., M, N]   (weight matmul)
///   a [B..., M, K] x b [B..., K, N]     -> [B..., M, N]  (batched matmul)
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Batched product with the second operand transposed:
///   a [B..., M, K] x b [B..., N, K] -> [B..., M, N]   (a @ b^T)
/// Runs GemmNT on b's own layout, so no transposed copy of b is made.
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// Activation applied by the fused MatMulBiasAct epilogue.
enum class FusedAct { kNone, kRelu, kGelu };

/// act(a @ w + bias) for a [..., M, K], w [K, N], bias [N] (bias may be an
/// undefined Tensor only with kNone). When no gradient is being tracked this
/// runs as one dispatched kernel call (no intermediate tensors); under
/// autograd it lowers to the exact MatMul/Add/Relu/Gelu composition, so
/// training graphs and gradients are unchanged.
Tensor MatMulBiasAct(const Tensor& a, const Tensor& w, const Tensor& bias,
                     FusedAct act);

// ---- Activations ----------------------------------------------------------

Tensor Relu(const Tensor& a);
/// tanh-approximation GELU.
Tensor Gelu(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);

// ---- Normalization / attention pieces --------------------------------------

/// Softmax over the last axis.
Tensor Softmax(const Tensor& a);
/// Fused attention-score softmax over the last axis:
///   softmax(scores * scale + bias)
/// with the same float operations as Softmax(Add(Scale(scores, scale),
/// bias)) but one pass per row and no temporaries. `bias` is undefined (no
/// mask) or has the shape of `scores`. When no gradient is tracked and the
/// caller hands over its only handle to `scores` (a temporary or
/// std::move), the result is written in place into the scores buffer.
Tensor MaskedSoftmax(Tensor scores, const Tensor& bias, float scale);
/// Log-softmax over the last axis.
Tensor LogSoftmax(const Tensor& a);
/// Fused layer normalization over the last axis:
///   y = (x - mean) / sqrt(var + eps) * gamma + beta.
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

// ---- Shape ops --------------------------------------------------------------

/// The same elements under a new shape (same numel). A copy, except when no
/// gradient is tracked and the caller hands over its only handle to `a` (a
/// temporary or std::move): then the buffer is relabelled in place.
Tensor Reshape(Tensor a, std::vector<int64_t> shape);
/// Swaps two axes (materializing copy, moved in contiguous runs of the
/// trailing axes after the later swapped axis).
Tensor Transpose(const Tensor& a, int64_t axis0, int64_t axis1);
/// Sub-range [start, end) along an axis.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end);
/// Concatenation along an axis.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

// ---- Embedding --------------------------------------------------------------

/// Row gather: weight [V, D], ids (values in [0, V)) -> [ids.size(), D].
/// Backward scatter-adds into the weight gradient.
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int32_t>& ids);

// ---- Reductions / losses ----------------------------------------------------

Tensor Sum(const Tensor& a);
Tensor Mean(const Tensor& a);

/// Softmax cross-entropy, fused. logits [N, V]; targets.size() == N.
/// Positions whose target == ignore_index contribute nothing. With label
/// smoothing s, the target distribution is (1-s) on the gold class and
/// s/(V-1) elsewhere. Returns the mean loss over non-ignored rows.
Tensor CrossEntropyLoss(const Tensor& logits,
                        const std::vector<int32_t>& targets,
                        int32_t ignore_index = -100,
                        float label_smoothing = 0.0f);

/// Inverted dropout; identity when !training or p == 0.
Tensor Dropout(const Tensor& a, float p, bool training, Rng* rng);

// ---- Non-differentiable helpers --------------------------------------------

/// Argmax along the last axis; returns indices flattened over leading dims.
std::vector<int32_t> ArgmaxLastDim(const Tensor& a);

/// Numerical-vs-analytic gradient check utility (used by tests). Returns the
/// max relative error of d loss / d x at `probe_count` random elements of x.
double GradCheck(const std::function<Tensor(const Tensor&)>& fn, Tensor x,
                 int probe_count, Rng* rng, float epsilon = 1e-3f);

}  // namespace rpt

#endif  // RPT_TENSOR_TENSOR_H_
