// Microbenchmarks (google-benchmark) for the substrate kernels: GEMM,
// softmax/layernorm, attention forward/backward, tokenizer, similarity,
// and blocking throughput.
//
// Extra modes (see main):
//   --selftest        correctness + speed gate for the dispatched GEMM,
//                     suitable as a ctest entry (exit code 1 on failure).
//   --json-out=PATH   self-timed scalar-vs-SIMD GEMM comparison, the
//                     dispatched GEMM's fraction of FMA peak, the
//                     attention pieces (head-split transpose, masked
//                     softmax, one attention forward) at the served
//                     cleaner's batch shape, written as BENCH_kernels.json
//                     (see README "Performance").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "bench_util.h"
#include "nn/attention.h"
#include "nn/transformer.h"
#include "rpt/blocker.h"
#include "synth/benchmarks.h"
#include "synth/universe.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace rpt {
namespace {

// GEMM kernels *accumulate* (C += A*B), so C must be re-zeroed between
// iterations. An earlier version of these benchmarks skipped the re-zero;
// combined with the (since removed) `a == 0` skip in the scalar kernel that
// made C drift to Inf and the timing data-dependent. The re-zero happens
// under PauseTiming so only the kernel is measured.

void BM_GemmNN(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    GemmNN(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    std::memset(c.data(), 0, sizeof(float) * static_cast<size_t>(n * n));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNNScalar(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    GemmNNScalar(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    std::memset(c.data(), 0, sizeof(float) * static_cast<size_t>(n * n));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNScalar)->Arg(128)->Arg(256);

void BM_GemmNNFusedBiasGelu(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor bias = Tensor::Randn({n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    // GemmNNEx overwrites but accumulates the product into C internally, so
    // the same re-zero discipline applies.
    GemmNNEx(a.data(), b.data(), bias.data(), c.data(), n, n, n,
             GemmEpilogue::kBiasGelu);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    std::memset(c.data(), 0, sizeof(float) * static_cast<size_t>(n * n));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNFusedBiasGelu)->Arg(128)->Arg(256);

void BM_GemmNNInt8(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  QuantizedMatrix q = QuantizePerChannel(b.data(), n, n);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    GemmNNInt8(a.data(), q, c.data(), n, n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    std::memset(c.data(), 0, sizeof(float) * static_cast<size_t>(n * n));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNInt8)->Arg(128)->Arg(256);

void BM_Softmax(benchmark::State& state) {
  Rng rng(2);
  Tensor x = Tensor::Randn({64, state.range(0)}, 1.0f, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = Softmax(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(512);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::Randn({64, state.range(0)}, 1.0f, &rng);
  Tensor gamma = Tensor::Full({state.range(0)}, 1.0f);
  Tensor beta = Tensor::Zeros({state.range(0)});
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = LayerNorm(x, gamma, beta);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LayerNorm)->Arg(64)->Arg(256);

// Audited for the accumulation bug fixed in BM_GemmNN above: clean — the
// forward allocates fresh output tensors every iteration (MatMul writes into
// newly zeroed buffers), so nothing carries across iterations.
void BM_AttentionForward(benchmark::State& state) {
  const int64_t seq_len = state.range(0);
  Rng rng(4);
  MultiHeadAttention mha(64, 4, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x = Tensor::Randn({4, seq_len, 64}, 1.0f, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = mha.Forward(x, x, x, Tensor(), &rng);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(32)->Arg(64)->Arg(128);

// Audited: gradients *do* accumulate across Backward() calls, but the loop
// already calls ZeroGrad() every iteration, so the training step is steady
// state.
void BM_EncoderTrainStep(benchmark::State& state) {
  Rng rng(5);
  TransformerConfig config;
  config.vocab_size = 500;
  config.d_model = 64;
  config.num_heads = 4;
  config.num_encoder_layers = 2;
  config.ffn_dim = 128;
  config.max_seq_len = 64;
  config.dropout = 0.0f;
  TransformerEncoderModel model(config, &rng);
  std::vector<std::vector<int32_t>> seqs;
  for (int b = 0; b < 8; ++b) {
    std::vector<int32_t> seq;
    for (int t = 0; t < 48; ++t) {
      seq.push_back(static_cast<int32_t>(10 + rng.UniformInt(400)));
    }
    seqs.push_back(seq);
  }
  TokenBatch batch = TokenBatch::Pack(seqs, 0);
  for (auto _ : state) {
    Tensor states = model.Encode(batch, &rng);
    Tensor loss = Mean(Mul(states, states));
    loss.Backward();
    model.ZeroGrad();
  }
}
BENCHMARK(BM_EncoderTrainStep);

void BM_Tokenize(benchmark::State& state) {
  const std::string text =
      "apple iphone 10 pro 64gb, 5.8-inch retina display, released 2017, "
      "costs 999.99 dollars";
  for (auto _ : state) {
    auto tokens = Tokenizer::Tokenize(text);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Tokenize);

void BM_Levenshtein(benchmark::State& state) {
  const std::string a = "apple iphone 10 pro max 256gb silver";
  const std::string b = "aple iphonee x pro 256 gb silver edition";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_QGramJaccard(benchmark::State& state) {
  const std::string a = "apple iphone 10 pro max 256gb silver";
  const std::string b = "aple iphonee x pro 256 gb silver edition";
  for (auto _ : state) {
    benchmark::DoNotOptimize(QGramJaccard(a, b));
  }
}
BENCHMARK(BM_QGramJaccard);

void BM_Blocking(benchmark::State& state) {
  ProductUniverse universe(200, 11);
  auto suite = DefaultBenchmarkSuite(0.5);
  ErBenchmark bench = GenerateErBenchmark(universe, suite[2]);
  Blocker blocker;
  for (auto _ : state) {
    auto candidates =
        blocker.GenerateCandidates(bench.table_a, bench.table_b);
    benchmark::DoNotOptimize(candidates);
  }
  state.SetItemsProcessed(state.iterations() * bench.table_a.NumRows() *
                          bench.table_b.NumRows());
}
BENCHMARK(BM_Blocking);

// ---- Self-timed scalar-vs-SIMD comparison (--selftest / --json-out) --------

struct GemmComparison {
  int64_t n = 0;
  double scalar_gflops = 0.0;
  double simd_gflops = 0.0;
  double speedup = 0.0;
  float max_abs_diff = 0.0f;
};

// Times fn(c) over `reps` runs (re-zeroing c outside the timed region) and
// returns the best GFLOP/s — best-of, not mean, to shrug off scheduler noise.
template <typename Fn>
double BestGflops(Fn&& fn, float* c, int64_t n, int reps) {
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  double best_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::memset(c, 0, sizeof(float) * static_cast<size_t>(n * n));
    const auto start = std::chrono::steady_clock::now();
    fn(c);
    const auto stop = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(stop - start).count();
    if (s < best_seconds) best_seconds = s;
  }
  return flops / best_seconds / 1e9;
}

GemmComparison CompareGemmAtSize(int64_t n, int reps) {
  Rng rng(9000 + n);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({n, n});
  Tensor c_ref = Tensor::Zeros({n, n});

  GemmComparison result;
  result.n = n;
  result.scalar_gflops = BestGflops(
      [&](float* out) { GemmNNScalar(a.data(), b.data(), out, n, n, n); },
      c_ref.data(), n, reps);
  result.simd_gflops = BestGflops(
      [&](float* out) { GemmNN(a.data(), b.data(), out, n, n, n); }, c.data(),
      n, reps);
  result.speedup = result.simd_gflops / result.scalar_gflops;

  // The final rep's outputs are still in c / c_ref: compare them.
  const float* dispatched = c.data();
  const float* reference = c_ref.data();
  for (int64_t i = 0; i < n * n; ++i) {
    result.max_abs_diff =
        std::max(result.max_abs_diff, std::fabs(dispatched[i] - reference[i]));
  }
  return result;
}

// ---- Register-residency gate ----------------------------------------------

#if defined(__x86_64__) || defined(__i386__)
// AVX2 FMA throughput of this core in GFLOP/s: 12 independent ymm
// accumulator chains (enough to cover FMA latency times issue width on
// current x86 cores), written out by hand so they stay in registers at any
// optimisation level. Compiled for AVX2 through the target attribute; call
// only when CpuSupportsAvx2Fma().
__attribute__((target("avx2,fma"))) double FmaPeakGflopsOnce() {
  constexpr int64_t kIters = 20000;
  const __m256 mul = _mm256_set1_ps(0.9999f);
  const __m256 add = _mm256_set1_ps(1e-4f);
  __m256 a0 = _mm256_set1_ps(1.0f), a1 = a0, a2 = a0, a3 = a0, a4 = a0,
         a5 = a0, a6 = a0, a7 = a0, a8 = a0, a9 = a0, a10 = a0, a11 = a0;
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < kIters; ++i) {
    a0 = _mm256_fmadd_ps(a0, mul, add);
    a1 = _mm256_fmadd_ps(a1, mul, add);
    a2 = _mm256_fmadd_ps(a2, mul, add);
    a3 = _mm256_fmadd_ps(a3, mul, add);
    a4 = _mm256_fmadd_ps(a4, mul, add);
    a5 = _mm256_fmadd_ps(a5, mul, add);
    a6 = _mm256_fmadd_ps(a6, mul, add);
    a7 = _mm256_fmadd_ps(a7, mul, add);
    a8 = _mm256_fmadd_ps(a8, mul, add);
    a9 = _mm256_fmadd_ps(a9, mul, add);
    a10 = _mm256_fmadd_ps(a10, mul, add);
    a11 = _mm256_fmadd_ps(a11, mul, add);
  }
  const auto stop = std::chrono::steady_clock::now();
  __m256 sum = _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
  sum = _mm256_add_ps(sum, _mm256_add_ps(_mm256_add_ps(a4, a5),
                                         _mm256_add_ps(a6, a7)));
  sum = _mm256_add_ps(sum, _mm256_add_ps(_mm256_add_ps(a8, a9),
                                         _mm256_add_ps(a10, a11)));
  float lanes[8];
  _mm256_storeu_ps(lanes, sum);
  benchmark::DoNotOptimize(lanes[0]);
  const double flops = 2.0 * 8 * 12 * static_cast<double>(kIters);
  return flops / std::chrono::duration<double>(stop - start).count() / 1e9;
}
#endif

struct PeakFraction {
  double gemm_gflops = 0.0;
  double peak_gflops = 0.0;
  double frac = 0.0;  // gemm_gflops / peak_gflops; 0 when there is no probe
};

// Dispatched GemmNN at [256x64]x[64x64] (the model's projection shape at a
// formed batch) against the FMA probe, timed interleaved so both see the
// same clock and neighbours, best-of-`reps` each. A micro-kernel whose
// accumulators spill to the stack lands near a quarter of the probe.
PeakFraction MeasureGemmPeakFraction(int reps) {
  PeakFraction result;
#if defined(__x86_64__) || defined(__i386__)
  if (ActiveTensorBackend() != TensorBackend::kAvx2) return result;
  constexpr int64_t m = 256, k = 64, n = 64;
  Rng rng(9200);
  Tensor a = Tensor::Randn({m, k}, 1.0f, &rng);
  Tensor b = Tensor::Randn({k, n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({m, n});
  double best_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    result.peak_gflops = std::max(result.peak_gflops, FmaPeakGflopsOnce());
    std::memset(c.data(), 0, sizeof(float) * static_cast<size_t>(m * n));
    const auto start = std::chrono::steady_clock::now();
    GemmNN(a.data(), b.data(), c.data(), m, k, n);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(c.data());
    best_seconds = std::min(
        best_seconds, std::chrono::duration<double>(stop - start).count());
  }
  result.gemm_gflops = 2.0 * m * k * n / best_seconds / 1e9;
  result.frac = result.gemm_gflops / result.peak_gflops;
#endif
  return result;
}

// Correctness + speed gate. With AVX2 active the dispatched GEMM must agree
// with scalar to 1e-4, must not be slower, and must reach kMinPeakFrac of
// the core's FMA throughput; with scalar dispatch the comparison is
// scalar-vs-scalar and passes trivially (diff 0, speedup ~1).
int RunSelftest() {
  const TensorBackend backend = ActiveTensorBackend();
  const bool simd = backend == TensorBackend::kAvx2;
  std::printf("micro_kernels selftest: backend=%s\n",
              TensorBackendName(backend));
  bool ok = true;
  for (int64_t n : {64, 256}) {
    GemmComparison cmp = CompareGemmAtSize(n, /*reps=*/3);
    std::printf(
        "  n=%-4lld scalar=%7.2f GFLOP/s  dispatched=%7.2f GFLOP/s  "
        "speedup=%.2fx  max_abs_diff=%.3g\n",
        static_cast<long long>(cmp.n), cmp.scalar_gflops, cmp.simd_gflops,
        cmp.speedup, static_cast<double>(cmp.max_abs_diff));
    if (cmp.max_abs_diff > 1e-4f) {
      std::printf("  FAIL: max_abs_diff %.3g > 1e-4 at n=%lld\n",
                  static_cast<double>(cmp.max_abs_diff),
                  static_cast<long long>(n));
      ok = false;
    }
    // Speed gate only when SIMD is actually dispatched; 0.9 headroom so a
    // noisy shared runner does not flake the build.
    if (simd && n >= 256 && cmp.speedup < 0.9) {
      std::printf("  FAIL: SIMD GEMM slower than scalar (%.2fx) at n=%lld\n",
                  cmp.speedup, static_cast<long long>(n));
      ok = false;
    }
  }
  // Register-residency gate: a register-tiled kernel whose tile spills runs
  // at about a quarter of peak, one that stays in ymm registers well above
  // half. Meaningless under sanitizers, which add memory traffic of their
  // own; the ctest entry is registered only for uninstrumented builds.
  constexpr double kMinPeakFrac = 0.45;
  if (simd) {
    const PeakFraction peak = MeasureGemmPeakFraction(/*reps=*/200);
    std::printf(
        "  gemm [256x64]x[64x64]=%7.2f GFLOP/s  fma_peak=%7.2f GFLOP/s  "
        "peak_frac=%.3f (min %.2f)\n",
        peak.gemm_gflops, peak.peak_gflops, peak.frac, kMinPeakFrac);
    if (peak.frac < kMinPeakFrac) {
      std::printf("  FAIL: GEMM at %.3f of FMA peak < %.2f; are the "
                  "micro-kernel accumulators spilling?\n",
                  peak.frac, kMinPeakFrac);
      ok = false;
    }
  }
  std::printf("micro_kernels selftest: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// Scalar-vs-dispatched timing of one tensor-level op at a model shape.
struct OpComparison {
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  float max_abs_diff = 0.0f;
};

// Best-of-`reps` wall time of run(setup()) in ms; setup (e.g. copying an
// input the op consumes in place) is outside the timed region. Returns the
// last output in *out.
template <typename Setup, typename Run>
double BestMs(Setup&& setup, Run&& run, int reps, Tensor* out) {
  double best_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    auto input = setup();
    const auto start = std::chrono::steady_clock::now();
    *out = run(std::move(input));
    const auto stop = std::chrono::steady_clock::now();
    best_seconds = std::min(
        best_seconds, std::chrono::duration<double>(stop - start).count());
  }
  return best_seconds * 1e3;
}

template <typename Setup, typename Run>
OpComparison CompareOp(Setup&& setup, Run&& run, int reps) {
  const TensorBackend dispatched = ActiveTensorBackend();
  NoGradGuard no_grad;
  OpComparison result;
  Tensor scalar_out, simd_out;
  {
    ScopedTensorBackendOverride pin(TensorBackend::kScalar);
    result.scalar_ms = BestMs(setup, run, reps, &scalar_out);
  }
  {
    ScopedTensorBackendOverride pin(dispatched);
    result.simd_ms = BestMs(setup, run, reps, &simd_out);
  }
  for (int64_t i = 0; i < scalar_out.numel(); ++i) {
    result.max_abs_diff = std::max(
        result.max_abs_diff, std::fabs(simd_out.at(i) - scalar_out.at(i)));
  }
  return result;
}

// The attention pieces at the served cleaner's formed batch: 32 rows of 26
// tokens, d_model 64, 4 heads of 16.
std::vector<std::pair<std::string, OpComparison>> CompareAttentionOps() {
  constexpr int64_t kBatch = 32, kLen = 26, kHeads = 4, kDim = 64;
  constexpr int kReps = 50;
  Rng rng(9100);
  std::vector<uint8_t> valid(static_cast<size_t>(kBatch * kLen), 1);
  for (int64_t b = 0; b < kBatch; ++b) {
    for (int64_t t = kLen - b % 10; t < kLen; ++t) {
      valid[static_cast<size_t>(b * kLen + t)] = 0;
    }
  }
  Tensor bias =
      BuildAttentionBias(kBatch, kHeads, kLen, kLen, valid, /*causal=*/false);
  std::vector<std::pair<std::string, OpComparison>> rows;

  // Head split: [B, T, H, Dh] -> [B, H, T, Dh].
  Tensor heads = Tensor::Randn({kBatch, kLen, kHeads, kDim / kHeads}, 1.0f,
                               &rng);
  rows.emplace_back(
      "transpose_head_split",
      CompareOp([&] { return heads; },
                [](Tensor x) { return Transpose(x, 1, 2); }, kReps));

  // Scale + padding bias + softmax over [B*H*T, T] score rows, in place as
  // attention runs it.
  Tensor scores = Tensor::Randn({kBatch * kHeads * kLen, kLen}, 2.0f, &rng);
  Tensor flat_bias = Reshape(bias, {kBatch * kHeads * kLen, kLen});
  rows.emplace_back(
      "masked_softmax",
      CompareOp([&] { return scores.Detach(); },
                [&](Tensor x) {
                  return MaskedSoftmax(std::move(x), flat_bias, 0.25f);
                },
                kReps));

  // One encoder self-attention forward with padded keys.
  MultiHeadAttention mha(kDim, kHeads, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x = Tensor::Randn({kBatch, kLen, kDim}, 1.0f, &rng);
  rows.emplace_back(
      "attention_forward",
      CompareOp([&] { return x; },
                [&](const Tensor& in) {
                  return mha.Forward(in, in, in, bias, &rng);
                },
                kReps));
  return rows;
}

int WriteJsonReport(const std::string& path) {
  const TensorBackend backend = ActiveTensorBackend();
  std::vector<GemmComparison> rows;
  for (int64_t n : {64, 128, 256, 512}) {
    rows.push_back(CompareGemmAtSize(n, /*reps=*/3));
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << "{\n  \"backend\": \"" << TensorBackendName(backend) << "\",\n"
      << "  \"built_with_avx2\": " << (BuiltWithAvx2() ? "true" : "false")
      << ",\n"
      << "  \"cpu_avx2_fma\": " << (CpuSupportsAvx2Fma() ? "true" : "false")
      << ",\n  \"gemm_nn_square\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const GemmComparison& r = rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"n\": %lld, \"scalar_gflops\": %.3f, "
                  "\"simd_gflops\": %.3f, \"speedup\": %.3f, "
                  "\"max_abs_diff\": %.6g}%s\n",
                  static_cast<long long>(r.n), r.scalar_gflops, r.simd_gflops,
                  r.speedup, static_cast<double>(r.max_abs_diff),
                  i + 1 < rows.size() ? "," : "");
    out << buf;
    std::printf("%s", buf);
  }
  const PeakFraction peak = MeasureGemmPeakFraction(/*reps=*/200);
  std::printf("gemm_nn_peak_frac: %.3f (%.2f of %.2f GFLOP/s)\n", peak.frac,
              peak.gemm_gflops, peak.peak_gflops);
  out << "  ],\n  \"gemm_nn_peak_frac\": " << peak.frac
      << ",\n  \"attention_ops\": {\n";
  const auto ops = CompareAttentionOps();
  for (size_t i = 0; i < ops.size(); ++i) {
    const auto& [name, r] = ops[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "    \"%s\": {\"scalar_ms\": %.4f, \"simd_ms\": %.4f, "
                  "\"max_abs_diff\": %.6g}%s\n",
                  name.c_str(), r.scalar_ms, r.simd_ms,
                  static_cast<double>(r.max_abs_diff),
                  i + 1 < ops.size() ? "," : "");
    out << buf;
    std::printf("%s", buf);
  }
  out << "  }\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace rpt

// Custom main: tolerate the suite-wide --quick flag (mapped to a short
// minimum time) so `for b in build/bench/*; do $b --quick; done` works, and
// handle the --selftest / --json-out modes before google-benchmark sees the
// arguments.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool quick = false;
  bool selftest = false;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (const char* path = rpt::bench::JsonOutPath(argv[i])) {
      json_path = path;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (selftest) return rpt::RunSelftest();
  if (!json_path.empty()) return rpt::WriteJsonReport(json_path);
  static char min_time_flag[] = "--benchmark_min_time=0.05";
  if (quick) args.push_back(min_time_flag);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
