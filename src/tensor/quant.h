// Int8 weight-only quantization for inference GEMM.
//
// Weights (the B operand, [K, N], e.g. a Linear layer's [in, out] matrix)
// are quantized symmetrically per output channel: column j stores
// round(b[:, j] / scale[j]) as int8 with scale[j] = max|b[:, j]| / 127.
// Activations stay fp32 and accumulation is fp32, so the only error source
// is the weight rounding.
//
// The exactness-vs-tolerance contract (an explicit knob, not a silent
// approximation):
//   * fp32 GEMM (scalar dispatch)  — bit-exact reference.
//   * fp32 GEMM (AVX2 dispatch)    — reassociation-level error, <= ~1e-4.
//   * int8 weight-quantized GEMM   — bounded by the rounding half-step:
//         |c_int8[i,j] - c_fp32[i,j]| <= (scale[j] / 2) * sum_p |a[i,p]|
//     QuantizedMatrix::ErrorBound() evaluates that bound for a given
//     activation row; tests assert it holds.
//
// Callers opt in per call site (quantized weights are a separate object);
// nothing on the training or exact-serving path touches int8.

#ifndef RPT_TENSOR_QUANT_H_
#define RPT_TENSOR_QUANT_H_

#include <cstdint>
#include <vector>

namespace rpt {

/// A [K, N] weight matrix quantized to int8 with per-column fp32 scales.
struct QuantizedMatrix {
  int64_t k = 0;
  int64_t n = 0;
  std::vector<int8_t> data;   // row-major [k, n]
  std::vector<float> scales;  // [n]; column j dequantizes as data * scales[j]

  /// Upper bound on |int8 GEMM - fp32 GEMM| for output column j given the
  /// L1 norm of the activation row: (scale[j] / 2) * l1(a_row).
  float ErrorBound(int64_t j, float a_row_l1) const {
    return 0.5f * scales[j] * a_row_l1;
  }
};

/// Quantizes b[K,N] symmetrically per column. Columns that are entirely zero
/// get scale 0 and dequantize to exact zeros.
QuantizedMatrix QuantizePerChannel(const float* b, int64_t k, int64_t n);

/// Reconstructs the fp32 matrix (out must hold k*n floats).
void Dequantize(const QuantizedMatrix& q, float* out);

/// C[M,N] += A[M,K] * dequant(B). fp32 accumulation; per-channel scales are
/// applied once per output element after the integer-weight reduction.
/// Dispatched on ActiveTensorBackend() like the fp32 kernels.
void GemmNNInt8(const float* a, const QuantizedMatrix& b, float* c, int64_t m,
                int64_t k);

/// Scalar reference for GemmNNInt8.
void GemmNNInt8Scalar(const float* a, const QuantizedMatrix& b, float* c,
                      int64_t m, int64_t k);

namespace detail {
/// AVX2 implementation; defined only when BuiltWithAvx2().
void GemmNNInt8Avx2(const float* a, const QuantizedMatrix& b, float* c,
                    int64_t m, int64_t k);
}  // namespace detail

}  // namespace rpt

#endif  // RPT_TENSOR_QUANT_H_
