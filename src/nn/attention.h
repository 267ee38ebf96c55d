// Multi-head scaled-dot-product attention (Vaswani et al., 2017).

#ifndef RPT_NN_ATTENTION_H_
#define RPT_NN_ATTENTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace rpt {

/// Builds an additive attention bias of shape [batch, heads, q_len, k_len]:
/// 0 where attention is allowed and -1e9 where it is masked.
///
/// `key_valid` flags valid (non-pad) key positions, length batch*k_len (an
/// empty vector means every key is valid). When `causal`, position i may
/// additionally only attend to keys j <= i (requires q_len == k_len).
Tensor BuildAttentionBias(int64_t batch, int64_t heads, int64_t q_len,
                          int64_t k_len,
                          const std::vector<uint8_t>& key_valid,
                          bool causal);

/// Incremental-decode variant: the bias for a single query row (the newest
/// decoder position) against `k_len` cached keys, shape
/// [batch, heads, 1, k_len]. The newest position may attend to every cached
/// key, so no causal term is needed — only `key_valid` padding is masked.
Tensor BuildIncrementalAttentionBias(int64_t batch, int64_t heads,
                                     int64_t k_len,
                                     const std::vector<uint8_t>& key_valid);

/// Cached key/value projections in split-head layout [B, H, T, Dh].
///
/// Two usage modes (both inference-only, no autograd):
///   * append-mode (decoder self-attention): AppendKV adds one step's K/V
///     along the time axis each decode step;
///   * compute-once (decoder cross-attention): AppendKV is called a single
///     time over the encoder memory, then reused every step.
struct KVCache {
  Tensor k;
  Tensor v;

  bool empty() const { return !k.defined(); }
  /// Number of cached key/value time steps.
  int64_t length() const { return k.defined() ? k.dim(2) : 0; }

  /// Reorders/compacts/replicates the batch axis: row i of the result is
  /// old row rows[i]. Repeats are allowed (beam replication); dropping
  /// indices compacts finished rows out.
  void GatherRows(const std::vector<int64_t>& rows);
};

/// Standard multi-head attention. Query/key/value projections, per-head
/// scaled dot-product with an additive bias, then an output projection.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t d_model, int64_t num_heads, float dropout,
                     Rng* rng);

  /// query [B, Tq, D], key/value [B, Tk, D], bias [B, H, Tq, Tk] (may be
  /// undefined for no masking). Returns [B, Tq, D].
  ///
  /// With a `cache`, attention runs against the cached keys/values instead
  /// of projecting `key`/`value` in full: when `key` is defined it is
  /// projected and appended to the cache first (incremental self-attention
  /// over new tokens); when `key` is undefined the cache is used as-is
  /// (cross-attention whose K/V were precomputed with AppendKV). `bias`
  /// must then be [B, H, Tq, cache_len] or undefined.
  Tensor Forward(const Tensor& query, const Tensor& key, const Tensor& value,
                 const Tensor& bias, Rng* rng,
                 KVCache* cache = nullptr) const;

  /// Projects `key`/`value` ([B, T, D]) and appends them to `cache` along
  /// the time axis (initializing it when empty). Inference-only.
  void AppendKV(const Tensor& key, const Tensor& value, KVCache* cache) const;

  int64_t num_heads() const { return num_heads_; }

 private:
  /// [B, T, D] -> [B, H, T, Dh]. Takes `x` by value so a projection
  /// temporary is reshaped in place instead of copied.
  Tensor SplitHeads(Tensor x, int64_t batch, int64_t t) const;

  int64_t d_model_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
  DropoutLayer attn_dropout_;
};

}  // namespace rpt

#endif  // RPT_NN_ATTENTION_H_
