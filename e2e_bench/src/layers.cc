// Per-layer numbers that come from the model and kernel layers: the traced
// batches' stage sums, shares, padding and FLOP rates, and the direct-call
// rows (PredictBatch / ScorePairsBatch at fixed batch sizes, GEMM, softmax
// and layer norm at the shapes the workload formed).

#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "nn/transformer.h"
#include "tensor/gemm.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace e2e {

namespace {

// Encoder forward FLOPs computed from tensor sizes (multiply-add = 2).
double EncoderFlops(const KernelShape& s, int64_t layers) {
  const double b = static_cast<double>(s.rows), l = static_cast<double>(s.len),
               d = static_cast<double>(s.d_model),
               f = static_cast<double>(s.ffn);
  // Q/K/V/O projections, QK^T and AV, and the two FFN GEMMs per layer.
  return static_cast<double>(layers) *
         (8 * b * l * d * d + 4 * b * l * l * d + 4 * b * l * d * f);
}

// FLOPs of one decoder step for one row at prefix position `step` over a
// source of `src_len` tokens: self-attention (4 projections + attention
// over step+1 keys), cross-attention (Q/O projections + attention; K/V are
// prefilled), FFN, and the LM head.
double DecodeRowStepFlops(const ModelShape& m, int64_t step, int64_t src_len) {
  const double d = static_cast<double>(m.d_model),
               f = static_cast<double>(m.ffn);
  const double per_layer = 8 * d * d + 4 * static_cast<double>(step + 1) * d +
                           4 * d * d + 4 * static_cast<double>(src_len) * d +
                           4 * d * f;
  return static_cast<double>(m.decoder_layers) * per_layer +
         2 * d * static_cast<double>(m.vocab);
}

}  // namespace

void ModelLayerReport(TraceLog* log, double wall_ms, const ModelShape& model,
                      const std::unordered_map<uint64_t,
                                               std::vector<int32_t>>& ids,
                      const std::function<int64_t(const std::string&)>&
                          output_tokens,
                      Metrics* metrics, KernelShape* formed) {
  double exec = 0, encode = 0, prefill = 0, decode = 0, validate = 0;
  double enc_flops = 0, dec_flops = 0;
  int64_t rows = 0, real_tokens = 0, padded_tokens = 0, steps = 0;
  std::vector<double> batch_rows, batch_len;
  for (const auto& b : log->batches()) {
    exec += MsBetween(b.begin, b.end);
    encode += b.encode_ms;
    prefill += b.prefill_ms;
    decode += b.decode_ms;
    validate += b.validate_ms;
    std::vector<std::vector<int32_t>> seqs;
    for (uint64_t h : b.payload_hashes) {
      auto it = ids.find(h);
      seqs.push_back(it == ids.end() ? std::vector<int32_t>{} : it->second);
    }
    const rpt::TokenBatch packed =
        rpt::TokenBatch::Pack(seqs, rpt::SpecialTokens::kPad);
    const int64_t n = static_cast<int64_t>(seqs.size());
    rows += n;
    padded_tokens += packed.batch * packed.len;
    for (uint8_t v : packed.valid) real_tokens += v;
    batch_rows.push_back(static_cast<double>(n));
    batch_len.push_back(static_cast<double>(packed.len));
    KernelShape shape{n, packed.len, model.d_model, model.heads, model.ffn,
                      model.vocab};
    enc_flops += EncoderFlops(shape, model.encoder_layers);
    if (model.decoder_layers > 0) {
      // Greedy decoding compacts finished rows away, so step t runs the
      // rows whose answer is longer than t tokens (plus the EOS step).
      std::vector<int64_t> row_steps;
      for (const auto& out : b.outputs) {
        row_steps.push_back(
            std::min<int64_t>(output_tokens(out) + 1, model.max_target_len));
      }
      for (int64_t t = 0; t < model.max_target_len; ++t) {
        for (int64_t rs : row_steps) {
          if (rs > t) dec_flops += DecodeRowStepFlops(model, t, packed.len);
        }
      }
      for (int64_t rs : row_steps) steps += rs;
    }
  }
  const double stages = encode + prefill + decode;
  const double prep = exec - stages;
  auto share = [exec](double x) { return exec > 0 ? x / exec : 0; };
  metrics->Set("serve.model_busy_frac", wall_ms > 0 ? exec / wall_ms : 0,
               "frac");
  metrics->Set("session.validate_us_mean",
               log->validates().empty()
                   ? 0
                   : 1000 * validate /
                         static_cast<double>(log->validates().size()),
               "us");
  metrics->Set("session.prep_ms", prep, "ms");
  metrics->Set("session.prep_share", share(prep), "frac");
  metrics->Set("nn.encode_ms", encode, "ms");
  metrics->Set("nn.encode_share", share(encode), "frac");
  metrics->Set("nn.prefill_ms", prefill, "ms");
  metrics->Set("nn.prefill_share", share(prefill), "frac");
  metrics->Set("nn.decode_step_ms", decode, "ms");
  metrics->Set("nn.decode_share", share(decode), "frac");
  metrics->Set("nn.decode_steps_per_row",
               rows > 0 ? static_cast<double>(steps) / static_cast<double>(rows)
                        : 0,
               "steps");
  metrics->Set("nn.pad_frac",
               padded_tokens > 0
                   ? 1.0 - static_cast<double>(real_tokens) /
                               static_cast<double>(padded_tokens)
                   : 0,
               "frac");
  metrics->Set("nn.encode_gflops", encode > 0 ? enc_flops / encode / 1e6 : 0,
               "GFLOP/s");
  metrics->Set("nn.decode_gflops", decode > 0 ? dec_flops / decode / 1e6 : 0,
               "GFLOP/s");
  metrics->Set("nn.orphan_stage_spans",
               static_cast<double>(log->orphan_stages()), "count");
  *formed = KernelShape{static_cast<int64_t>(Median(batch_rows) + 0.5),
                        static_cast<int64_t>(Median(batch_len) + 0.5),
                        model.d_model, model.heads, model.ffn, model.vocab};
  formed->rows = std::max<int64_t>(formed->rows, 1);
  formed->len = std::max<int64_t>(formed->len, 1);
}

// ---- Direct model calls ---------------------------------------------------------

void MeasureModelRows(const rpt::RptCleaner* cleaner,
                      const rpt::Schema* clean_schema,
                      const std::vector<rpt::CellQuery>* clean_queries,
                      const rpt::RptMatcher* matcher,
                      const rpt::ErBenchmark* bench,
                      const std::vector<rpt::LabeledPair>* pairs,
                      Metrics* metrics) {
  // A fixed row count per batch size: divisible by 1, 8 and 32.
  constexpr size_t kRows = 320;
  double clean_b1 = 0, match_b1 = 0;
  for (size_t b : {1, 8, 32}) {
    const std::string suffix = "_b" + std::to_string(b);
    double clean_rate = 0, match_rate = 0;
    if (cleaner != nullptr && !clean_queries->empty()) {
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < kRows; i += b) {
        std::vector<rpt::CellQuery> chunk;
        for (size_t j = i; j < i + b; ++j) {
          chunk.push_back((*clean_queries)[j % clean_queries->size()]);
        }
        cleaner->PredictBatch(*clean_schema, chunk);
      }
      clean_rate = kRows / SecondsSince(t0);
    }
    if (matcher != nullptr && !pairs->empty()) {
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < kRows; i += b) {
        std::vector<rpt::Tuple> a, c;
        for (size_t j = i; j < i + b; ++j) {
          const rpt::LabeledPair& p = (*pairs)[j % pairs->size()];
          a.push_back(bench->table_a.row(p.a));
          c.push_back(bench->table_b.row(p.b));
        }
        matcher->ScorePairsBatch(bench->table_a.schema(), a,
                                 bench->table_b.schema(), c);
      }
      match_rate = kRows / SecondsSince(t0);
    }
    if (b == 1) {
      clean_b1 = clean_rate;
      match_b1 = match_rate;
    }
    metrics->Set("nn.clean_rows_s" + suffix, clean_rate, "1/s");
    metrics->Set("nn.match_pairs_s" + suffix, match_rate, "1/s");
    if (b == 32) {
      metrics->Set("nn.clean_batch_gain_b32",
                   clean_b1 > 0 ? clean_rate / clean_b1 : 0, "x");
      metrics->Set("nn.match_batch_gain_b32",
                   match_b1 > 0 ? match_rate / match_b1 : 0, "x");
    }
  }
}

// ---- Kernels at the formed shapes ---------------------------------------------------

namespace {

// Median seconds per call of `fn` over enough calls to fill ~20 ms.
template <typename Fn>
double TimeKernel(Fn fn) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < 5 || (SecondsSince(start) < 0.02 &&
                                samples.size() < 100000)) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(SecondsSince(t0));
  }
  return Median(samples);
}

std::vector<float> RandomVec(size_t n, rpt::Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(-1, 1);
  return v;
}

}  // namespace

void MeasureKernelRows(const KernelShape& s, Metrics* metrics) {
  rpt::Rng rng(17);
  const int64_t tokens = s.rows * s.len;
  const int64_t dh = s.d_model / s.heads;
  std::printf("\nkernel rows at formed shape: %lld rows x %lld tokens\n",
              static_cast<long long>(s.rows), static_cast<long long>(s.len));

  struct Gemm {
    const char* what;
    int64_t m, k, n;
  };
  const Gemm nn_shapes[] = {{"projection", tokens, s.d_model, s.d_model},
                            {"ffn", tokens, s.d_model, s.ffn},
                            {"logits", s.rows, s.d_model, s.vocab}};
  double nn_flops = 0, nn_secs = 0;
  for (const Gemm& g : nn_shapes) {
    auto a = RandomVec(static_cast<size_t>(g.m * g.k), &rng);
    auto b = RandomVec(static_cast<size_t>(g.k * g.n), &rng);
    std::vector<float> c(static_cast<size_t>(g.m * g.n));
    const double secs = TimeKernel([&] {
      std::fill(c.begin(), c.end(), 0.0f);
      rpt::GemmNN(a.data(), b.data(), c.data(), g.m, g.k, g.n);
    });
    const double flops = 2.0 * static_cast<double>(g.m * g.k * g.n);
    std::printf("  GemmNN %-10s [%lld x %lld] x [%lld x %lld]: %.2f GFLOP/s\n",
                g.what, static_cast<long long>(g.m),
                static_cast<long long>(g.k), static_cast<long long>(g.k),
                static_cast<long long>(g.n), flops / secs / 1e9);
    nn_flops += flops;
    nn_secs += secs;
  }
  metrics->Set("tensor.gemm_nn_gflops", nn_flops / nn_secs / 1e9, "GFLOP/s");

  // Attention scores: one [len x dh] x [len x dh]^T product per row and head.
  {
    auto q = RandomVec(static_cast<size_t>(s.len * dh), &rng);
    auto k = RandomVec(static_cast<size_t>(s.len * dh), &rng);
    std::vector<float> c(static_cast<size_t>(s.len * s.len));
    const double secs = TimeKernel([&] {
      std::fill(c.begin(), c.end(), 0.0f);
      rpt::GemmNT(q.data(), k.data(), c.data(), s.len, dh, s.len);
    });
    metrics->Set("tensor.gemm_nt_gflops",
                 2.0 * static_cast<double>(s.len * dh * s.len) / secs / 1e9,
                 "GFLOP/s");
  }
  // Softmax over every attention row of the batch; bytes = read + write.
  {
    const int64_t rows = s.rows * s.heads * s.len;
    auto x = RandomVec(static_cast<size_t>(rows * s.len), &rng);
    std::vector<float> y(x.size());
    const double secs = TimeKernel(
        [&] { rpt::SoftmaxRows(x.data(), y.data(), rows, s.len); });
    metrics->Set("tensor.softmax_gbps",
                 2.0 * 4 * static_cast<double>(x.size()) / secs / 1e9, "GB/s");
  }
  // Layer norm over every token's model vector.
  {
    auto x = RandomVec(static_cast<size_t>(tokens * s.d_model), &rng);
    auto gamma = RandomVec(static_cast<size_t>(s.d_model), &rng);
    auto beta = RandomVec(static_cast<size_t>(s.d_model), &rng);
    std::vector<float> y(x.size());
    const double secs = TimeKernel([&] {
      rpt::LayerNormRows(x.data(), gamma.data(), beta.data(), y.data(),
                         nullptr, tokens, s.d_model, 1e-5f);
    });
    metrics->Set("tensor.layernorm_gbps",
                 2.0 * 4 * static_cast<double>(x.size()) / secs / 1e9, "GB/s");
  }
}

}  // namespace e2e
