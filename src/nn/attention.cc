#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace rpt {

namespace {

// Gathers `rows` of the leading axis of `t` into a new tensor whose dim 0 is
// rows.size(); repeats allowed. Inference-only: no autograd edge.
Tensor GatherAxis0(const Tensor& t, const std::vector<int64_t>& rows) {
  const int64_t old_batch = t.dim(0);
  std::vector<int64_t> shape = t.shape();
  shape[0] = static_cast<int64_t>(rows.size());
  const int64_t row_elems = old_batch > 0 ? t.numel() / old_batch : 0;
  Tensor out = Tensor::Zeros(shape);
  for (size_t i = 0; i < rows.size(); ++i) {
    RPT_CHECK_GE(rows[i], 0);
    RPT_CHECK_LT(rows[i], old_batch);
    const float* from = t.data() + rows[i] * row_elems;
    std::copy(from, from + row_elems,
              out.data() + static_cast<int64_t>(i) * row_elems);
  }
  return out;
}

}  // namespace

Tensor BuildAttentionBias(int64_t batch, int64_t heads, int64_t q_len,
                          int64_t k_len,
                          const std::vector<uint8_t>& key_valid,
                          bool causal) {
  constexpr float kNegInf = -1e9f;
  if (!key_valid.empty()) {
    RPT_CHECK_EQ(static_cast<int64_t>(key_valid.size()), batch * k_len);
  }
  if (causal) RPT_CHECK_EQ(q_len, k_len);
  Tensor bias = Tensor::Zeros({batch, heads, q_len, k_len});
  if (key_valid.empty() && !causal) return bias;
  // A row depends only on b (padding) and, when causal, on i; never on h.
  // Fill head 0's [q_len, k_len] block of each batch row, then copy it to
  // the other heads.
  const int64_t block = q_len * k_len;
  float* d = bias.data();
  for (int64_t b = 0; b < batch; ++b) {
    float* head0 = d + b * heads * block;
    if (!key_valid.empty()) {
      const uint8_t* valid = key_valid.data() + b * k_len;
      for (int64_t j = 0; j < k_len; ++j) {
        if (valid[j] == 0) head0[j] = kNegInf;
      }
    }
    for (int64_t i = 1; i < q_len; ++i) {
      std::memcpy(head0 + i * k_len, head0, sizeof(float) * k_len);
    }
    if (causal) {
      for (int64_t i = 0; i < q_len; ++i) {
        std::fill(head0 + i * k_len + i + 1, head0 + (i + 1) * k_len, kNegInf);
      }
    }
    for (int64_t h = 1; h < heads; ++h) {
      std::memcpy(head0 + h * block, head0, sizeof(float) * block);
    }
  }
  return bias;
}

Tensor BuildIncrementalAttentionBias(int64_t batch, int64_t heads,
                                     int64_t k_len,
                                     const std::vector<uint8_t>& key_valid) {
  return BuildAttentionBias(batch, heads, /*q_len=*/1, k_len, key_valid,
                            /*causal=*/false);
}

void KVCache::GatherRows(const std::vector<int64_t>& rows) {
  if (empty()) return;
  k = GatherAxis0(k, rows);
  v = GatherAxis0(v, rows);
}

MultiHeadAttention::MultiHeadAttention(int64_t d_model, int64_t num_heads,
                                       float dropout, Rng* rng)
    : d_model_(d_model),
      num_heads_(num_heads),
      head_dim_(d_model / num_heads),
      q_proj_(d_model, d_model, rng),
      k_proj_(d_model, d_model, rng),
      v_proj_(d_model, d_model, rng),
      out_proj_(d_model, d_model, rng),
      attn_dropout_(dropout) {
  RPT_CHECK_EQ(head_dim_ * num_heads, d_model)
      << "d_model must be divisible by num_heads";
  RegisterModule("q_proj", &q_proj_);
  RegisterModule("k_proj", &k_proj_);
  RegisterModule("v_proj", &v_proj_);
  RegisterModule("out_proj", &out_proj_);
  RegisterModule("attn_dropout", &attn_dropout_);
}

Tensor MultiHeadAttention::SplitHeads(Tensor x, int64_t batch,
                                      int64_t t) const {
  // [B, T, H, Dh] -> [B, H, T, Dh]: the transpose moves Dh-float runs.
  return Transpose(Reshape(std::move(x), {batch, t, num_heads_, head_dim_}),
                   1, 2);
}

void MultiHeadAttention::AppendKV(const Tensor& key, const Tensor& value,
                                  KVCache* cache) const {
  RPT_CHECK(cache != nullptr);
  const int64_t batch = key.dim(0);
  const int64_t t = key.dim(1);
  RPT_CHECK_EQ(key.dim(2), d_model_);
  RPT_CHECK_EQ(value.dim(1), t);
  Tensor k_new = SplitHeads(k_proj_.Forward(key), batch, t);
  Tensor v_new = SplitHeads(v_proj_.Forward(value), batch, t);
  if (cache->empty()) {
    cache->k = k_new;
    cache->v = v_new;
  } else {
    RPT_CHECK_EQ(cache->k.dim(0), batch);
    cache->k = Concat({cache->k, k_new}, 2);
    cache->v = Concat({cache->v, v_new}, 2);
  }
}

Tensor MultiHeadAttention::Forward(const Tensor& query, const Tensor& key,
                                   const Tensor& value, const Tensor& bias,
                                   Rng* rng, KVCache* cache) const {
  const int64_t batch = query.dim(0);
  const int64_t q_len = query.dim(1);
  RPT_CHECK_EQ(query.dim(2), d_model_);

  // Project and split heads: [B, T, D] -> [B, H, T, Dh].
  Tensor q = SplitHeads(q_proj_.Forward(query), batch, q_len);
  Tensor k, v;
  if (cache != nullptr) {
    if (key.defined()) AppendKV(key, value, cache);
    RPT_CHECK(!cache->empty()) << "attention cache holds no keys";
    RPT_CHECK_EQ(cache->k.dim(0), batch);
    k = cache->k;
    v = cache->v;
  } else {
    RPT_CHECK_EQ(key.dim(2), d_model_);
    RPT_CHECK_EQ(value.dim(1), key.dim(1));
    k = SplitHeads(k_proj_.Forward(key), batch, key.dim(1));
    v = SplitHeads(v_proj_.Forward(value), batch, key.dim(1));
  }

  // Scores: [B, H, Tq, Dh] x [B, H, Tk, Dh]^T -> [B, H, Tq, Tk]. Split-head
  // K is already the B^T layout GemmNT reads, so it is never transposed.
  // The scale, bias and softmax then run as one pass per score row.
  Tensor attn = MaskedSoftmax(MatMulNT(q, k), bias,
                              1.0f / std::sqrt(static_cast<float>(head_dim_)));
  attn = attn_dropout_.Forward(attn, rng);

  // Context: [B, H, Tq, Tk] x [B, H, Tk, Dh] -> [B, H, Tq, Dh], then merge
  // heads: [B, H, Tq, Dh] -> [B, Tq, H, Dh] -> [B, Tq, D].
  Tensor context =
      Reshape(Transpose(MatMul(attn, v), 1, 2), {batch, q_len, d_model_});
  return out_proj_.Forward(context);
}

}  // namespace rpt
