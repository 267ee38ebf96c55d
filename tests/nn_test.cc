// Tests for layers, attention, transformer shells, optimizers, and
// checkpointing, including small end-to-end learning sanity checks.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/checkpoint.h"
#include "nn/compute_pool.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "profile/perf_hooks.h"
#include "rpt/cleaner.h"
#include "table/table.h"
#include "tensor/cpu_features.h"
#include "tensor/tensor.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "util/affinity.h"
#include "util/rng.h"

namespace rpt {
namespace {

TransformerConfig SmallConfig(int64_t vocab) {
  TransformerConfig config;
  config.vocab_size = vocab;
  config.d_model = 32;
  config.num_heads = 2;
  config.num_encoder_layers = 1;
  config.num_decoder_layers = 1;
  config.ffn_dim = 64;
  config.max_seq_len = 32;
  config.dropout = 0.0f;
  return config;
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear lin(4, 3, &rng);
  Tensor x = Tensor::Zeros({2, 4});
  Tensor y = lin.Forward(x);
  ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 3}));
  // Zero input -> output equals bias (zero-initialized).
  for (int i = 0; i < 6; ++i) EXPECT_EQ(y.at(i), 0.0f);
}

TEST(LinearTest, LeadingDimsPreserved) {
  Rng rng(2);
  Linear lin(4, 5, &rng);
  Tensor x = Tensor::Randn({2, 3, 4}, 1.0f, &rng);
  Tensor y = lin.Forward(x);
  ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 3, 5}));
}

TEST(EmbeddingTest, LookupAndCount) {
  Rng rng(3);
  Embedding emb(10, 4, &rng);
  Tensor e = emb.Forward({0, 9, 5});
  ASSERT_EQ(e.shape(), (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(emb.ParameterCount(), 40);
}

TEST(ModuleTest, NamedParametersAreStable) {
  Rng rng(4);
  Linear lin(2, 2, &rng);
  auto named = lin.NamedParameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(5);
  MultiHeadAttention mha(32, 2, 0.1f, &rng);
  mha.SetTraining(false);
  EXPECT_FALSE(mha.training());
}

TEST(AttentionBiasTest, CausalMasking) {
  Tensor bias = BuildAttentionBias(1, 1, 3, 3, {}, /*causal=*/true);
  // Row 0 can only see col 0.
  EXPECT_EQ(bias.at(0 * 3 + 0), 0.0f);
  EXPECT_LT(bias.at(0 * 3 + 1), -1e8f);
  EXPECT_LT(bias.at(0 * 3 + 2), -1e8f);
  // Row 2 sees everything.
  for (int j = 0; j < 3; ++j) EXPECT_EQ(bias.at(2 * 3 + j), 0.0f);
}

TEST(AttentionBiasTest, PaddingMasking) {
  std::vector<uint8_t> valid = {1, 1, 0};  // last key is pad
  Tensor bias = BuildAttentionBias(1, 2, 2, 3, valid, /*causal=*/false);
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(bias.at((h * 2 + i) * 3 + 0), 0.0f);
      EXPECT_EQ(bias.at((h * 2 + i) * 3 + 1), 0.0f);
      EXPECT_LT(bias.at((h * 2 + i) * 3 + 2), -1e8f);
    }
  }
}

// The per-element construction BuildAttentionBias replaced: every
// [b, h, i, j] entry decided on its own.
std::vector<float> ElementwiseAttentionBias(
    int64_t batch, int64_t heads, int64_t q_len, int64_t k_len,
    const std::vector<uint8_t>& key_valid, bool causal) {
  std::vector<float> out(static_cast<size_t>(batch * heads * q_len * k_len));
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t h = 0; h < heads; ++h) {
      for (int64_t i = 0; i < q_len; ++i) {
        for (int64_t j = 0; j < k_len; ++j) {
          const bool masked =
              (causal && j > i) ||
              (!key_valid.empty() && key_valid[b * k_len + j] == 0);
          out[static_cast<size_t>(((b * heads + h) * q_len + i) * k_len +
                                  j)] = masked ? -1e9f : 0.0f;
        }
      }
    }
  }
  return out;
}

TEST(AttentionBiasTest, RowCopiesMatchElementwiseConstruction) {
  struct Case {
    const char* name;
    int64_t batch, heads, q_len, k_len;
    std::vector<uint8_t> key_valid;
    bool causal;
  };
  // Three rows of five keys with 0, 1 and 2 trailing pads.
  const std::vector<uint8_t> ragged = {1, 1, 1, 1, 1, 1, 1, 1,
                                       1, 0, 1, 1, 1, 0, 0};
  const std::vector<Case> cases = {
      {"padded", 3, 4, 5, 5, ragged, false},
      {"causal", 2, 3, 4, 4, {}, true},
      {"causal+padded", 3, 2, 5, 5, ragged, true},
      {"empty key_valid", 2, 4, 3, 6, {}, false},
      {"q_len 1", 3, 4, 1, 5, ragged, false},
      {"q_len 1 causal", 2, 2, 1, 1, {1, 0}, true},
      {"all keys padded", 1, 2, 3, 3, {0, 0, 0}, false},
  };
  for (const Case& c : cases) {
    const Tensor bias = BuildAttentionBias(c.batch, c.heads, c.q_len,
                                           c.k_len, c.key_valid, c.causal);
    ASSERT_EQ(bias.shape(),
              (std::vector<int64_t>{c.batch, c.heads, c.q_len, c.k_len}))
        << c.name;
    const std::vector<float> want = ElementwiseAttentionBias(
        c.batch, c.heads, c.q_len, c.k_len, c.key_valid, c.causal);
    EXPECT_EQ(std::vector<float>(bias.data(), bias.data() + bias.numel()),
              want)
        << c.name;
  }
}

TEST(AttentionTest, OutputShape) {
  Rng rng(6);
  MultiHeadAttention mha(32, 4, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x = Tensor::Randn({2, 5, 32}, 1.0f, &rng);
  Tensor y = mha.Forward(x, x, x, Tensor(), &rng);
  ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 5, 32}));
}

TEST(AttentionTest, MaskedPositionsDoNotInfluenceOutput) {
  // Changing the content of a fully masked key position must not change
  // the attention output for valid queries.
  Rng rng(7);
  MultiHeadAttention mha(16, 2, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x1 = Tensor::Randn({1, 4, 16}, 1.0f, &rng);
  Tensor x2 = x1.Detach();
  // Perturb the last position of x2.
  for (int d = 0; d < 16; ++d) x2.data()[3 * 16 + d] += 5.0f;
  std::vector<uint8_t> valid = {1, 1, 1, 0};
  Tensor bias = BuildAttentionBias(1, 2, 4, 4, valid, false);
  NoGradGuard guard;
  Tensor y1 = mha.Forward(x1, x1, x1, bias, &rng);
  Tensor y2 = mha.Forward(x2, x2, x2, bias, &rng);
  // Positions 0..2 identical (their queries are the same and masked keys
  // cannot contribute).
  for (int t = 0; t < 3; ++t) {
    for (int d = 0; d < 16; ++d) {
      EXPECT_NEAR(y1.at(t * 16 + d), y2.at(t * 16 + d), 1e-4);
    }
  }
}

TEST(TokenBatchTest, PackPadsToMaxLen) {
  TokenBatch b = TokenBatch::Pack({{1, 2, 3}, {4}}, /*pad_id=*/0);
  EXPECT_EQ(b.batch, 2);
  EXPECT_EQ(b.len, 3);
  EXPECT_EQ(b.ids, (std::vector<int32_t>{1, 2, 3, 4, 0, 0}));
  EXPECT_EQ(b.valid, (std::vector<uint8_t>{1, 1, 1, 1, 0, 0}));
}

TEST(TokenBatchTest, PackWithColumnAndTypeIds) {
  std::vector<std::vector<int32_t>> seqs = {{5, 6}};
  std::vector<std::vector<int32_t>> cols = {{0, 1}};
  std::vector<std::vector<int32_t>> types = {{2, 1}};
  TokenBatch b = TokenBatch::Pack(seqs, 0, &cols, &types);
  EXPECT_EQ(b.col_ids, (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(b.type_ids, (std::vector<int32_t>{2, 1}));
}

TEST(TokenBatchTest, PackEmptySequenceList) {
  TokenBatch batch = TokenBatch::Pack({}, 0);
  EXPECT_EQ(batch.batch, 0);
  EXPECT_EQ(batch.len, 1);  // len is clamped away from zero-size tensors
  EXPECT_TRUE(batch.ids.empty());
  EXPECT_TRUE(batch.valid.empty());
}

TEST(TokenBatchTest, PackAllPadRows) {
  // Empty sequences produce rows that are entirely padding.
  TokenBatch batch = TokenBatch::Pack({{}, {7}, {}}, 9);
  EXPECT_EQ(batch.batch, 3);
  EXPECT_EQ(batch.len, 1);
  EXPECT_EQ(batch.ids, (std::vector<int32_t>{9, 7, 9}));
  EXPECT_EQ(batch.valid, (std::vector<uint8_t>{0, 1, 0}));
}

TEST(TokenBatchTest, PackRaggedColAndTypeIds) {
  // Col/type sequences mirror their id sequence lengths row by row; pads
  // get id 0.
  std::vector<std::vector<int32_t>> ids = {{1, 2, 3}, {4}};
  std::vector<std::vector<int32_t>> cols = {{5, 6, 7}, {8}};
  std::vector<std::vector<int32_t>> types = {{1, 1, 2}, {3}};
  TokenBatch batch = TokenBatch::Pack(ids, 0, &cols, &types);
  EXPECT_EQ(batch.len, 3);
  EXPECT_EQ(batch.col_ids, (std::vector<int32_t>{5, 6, 7, 8, 0, 0}));
  EXPECT_EQ(batch.type_ids, (std::vector<int32_t>{1, 1, 2, 3, 0, 0}));
  EXPECT_EQ(batch.valid, (std::vector<uint8_t>{1, 1, 1, 1, 0, 0}));
}

TEST(TokenBatchTest, PackMismatchedColArityDies) {
  std::vector<std::vector<int32_t>> ids = {{1, 2}};
  std::vector<std::vector<int32_t>> cols = {{5}};  // wrong length
  EXPECT_DEATH(TokenBatch::Pack(ids, 0, &cols), "");
}

TEST(EncoderModelTest, EncodeShapes) {
  Rng rng(8);
  auto config = SmallConfig(50);
  TransformerEncoderModel model(config, &rng);
  model.SetTraining(false);
  TokenBatch batch = TokenBatch::Pack({{1, 2, 3}, {4, 5}}, 0);
  Tensor states = model.Encode(batch, &rng);
  ASSERT_EQ(states.shape(), (std::vector<int64_t>{2, 3, 32}));
  Tensor pooled = model.EncodePooled(batch, &rng);
  ASSERT_EQ(pooled.shape(), (std::vector<int64_t>{2, 32}));
}

TEST(Seq2SeqTest, ForwardShapes) {
  Rng rng(9);
  auto config = SmallConfig(50);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  TokenBatch src = TokenBatch::Pack({{1, 2, 3, 4}}, 0);
  TokenBatch tgt = TokenBatch::Pack({{1, 2, 3}}, 0);
  Tensor logits = model.Forward(src, tgt, &rng);
  ASSERT_EQ(logits.shape(), (std::vector<int64_t>{1, 3, 50}));
}

TEST(OptimizerTest, SgdDecreasesQuadratic) {
  // minimize ||w||^2 with SGD.
  Tensor w = Tensor::FromVector({3.0f, -4.0f}, {2});
  w.set_requires_grad(true);
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    Tensor loss = Sum(Mul(w, w));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-3);
  EXPECT_NEAR(w.at(1), 0.0f, 1e-3);
}

TEST(OptimizerTest, AdamDecreasesQuadratic) {
  Tensor w = Tensor::FromVector({3.0f, -4.0f}, {2});
  w.set_requires_grad(true);
  Adam opt({w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Tensor loss = Sum(Mul(w, w));
    loss.Backward();
    opt.Step();
  }
  // Adam hovers around the optimum at a scale proportional to the LR.
  EXPECT_NEAR(w.at(0), 0.0f, 0.05f);
  EXPECT_NEAR(w.at(1), 0.0f, 0.05f);
}

TEST(OptimizerTest, ClipGradNormScales) {
  Tensor w = Tensor::FromVector({3.0f, 4.0f}, {2});
  w.set_requires_grad(true);
  Tensor loss = Sum(Mul(w, w));  // grad = 2w = (6, 8), norm 10
  loss.Backward();
  float norm = ClipGradNorm({w}, 5.0f);
  EXPECT_NEAR(norm, 10.0f, 1e-4);
  EXPECT_NEAR(w.grad_data()[0], 3.0f, 1e-4);
  EXPECT_NEAR(w.grad_data()[1], 4.0f, 1e-4);
}

TEST(OptimizerTest, WarmupScheduleShape) {
  WarmupSchedule sched(1e-3f, 100);
  EXPECT_LT(sched.LearningRate(1), sched.LearningRate(50));
  EXPECT_LT(sched.LearningRate(50), sched.LearningRate(100));
  EXPECT_GT(sched.LearningRate(100), sched.LearningRate(400));
  EXPECT_NEAR(sched.LearningRate(100), 1e-3f, 1e-6);
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  Rng rng1(10), rng2(11);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model1(config, &rng1);
  Seq2SeqTransformer model2(config, &rng2);

  const std::string path = "/tmp/rpt_test_checkpoint.bin";
  ASSERT_TRUE(SaveCheckpoint(model1, path).ok());
  ASSERT_TRUE(LoadCheckpoint(&model2, path).ok());

  auto p1 = model1.NamedParameters();
  auto p2 = model2.NamedParameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].second.ToVector(), p2[i].second.ToVector())
        << "mismatch at " << p1[i].first;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsTrailingGarbage) {
  // A truncation or corruption that leaves extra bytes after a valid state
  // blob must not alias to success: the reader has to consume the file
  // exactly.
  Rng rng1(13), rng2(14);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng1);
  const std::string path = "/tmp/rpt_test_checkpoint_padded.bin";
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  {
    std::ofstream pad(path, std::ios::binary | std::ios::app);
    const char junk[7] = {0, 1, 2, 3, 4, 5, 6};
    pad.write(junk, sizeof(junk));
  }
  Seq2SeqTransformer other(config, &rng2);
  Status s = LoadCheckpoint(&other, path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trailing"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveReplacesExistingCheckpointAtomically) {
  // SaveCheckpoint goes through a temp file + rename: overwriting an
  // existing checkpoint must leave no ".tmp" debris, and the replaced file
  // must load back the *new* weights.
  Rng rng1(20), rng2(21), rng3(22);
  auto config = SmallConfig(20);
  Seq2SeqTransformer old_model(config, &rng1);
  Seq2SeqTransformer new_model(config, &rng2);
  const std::string path = "/tmp/rpt_test_checkpoint_atomic.bin";
  ASSERT_TRUE(SaveCheckpoint(old_model, path).ok());
  ASSERT_TRUE(SaveCheckpoint(new_model, path).ok());
  {
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good()) << "temp file left behind after rename";
  }
  Seq2SeqTransformer loaded(config, &rng3);
  ASSERT_TRUE(LoadCheckpoint(&loaded, path).ok());
  auto want = new_model.NamedParameters();
  auto got = loaded.NamedParameters();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].second.ToVector(), got[i].second.ToVector())
        << "mismatch at " << want[i].first;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, PartialWriteNeverShadowsThePreviousCheckpoint) {
  // The crash-mid-write scenario the temp+rename scheme exists for: a
  // truncated ".tmp" sitting next to the real checkpoint must not affect
  // loading under the real name.
  Rng rng1(23), rng2(24);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng1);
  const std::string path = "/tmp/rpt_test_checkpoint_partial.bin";
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  {
    // Simulate a writer that died partway through its temp file.
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    const char partial[5] = {'R', 'P', 'T', '1', 0};
    tmp.write(partial, sizeof(partial));
  }
  Seq2SeqTransformer loaded(config, &rng2);
  ASSERT_TRUE(LoadCheckpoint(&loaded, path).ok())
      << "stale temp file corrupted the checkpoint under the real name";
  auto want = model.NamedParameters();
  auto got = loaded.NamedParameters();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].second.ToVector(), got[i].second.ToVector());
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(CheckpointTest, SaveToUnwritableDirectoryFailsCleanly) {
  Rng rng(25);
  Seq2SeqTransformer model(SmallConfig(20), &rng);
  Status s = SaveCheckpoint(model, "/tmp/rpt_no_such_dir/ckpt.bin");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(CheckpointTest, LoadRejectsWrongArchitecture) {
  Rng rng(12);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  const std::string path = "/tmp/rpt_test_checkpoint2.bin";
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  auto other_config = SmallConfig(21);  // different vocab size
  Seq2SeqTransformer other(other_config, &rng);
  Status s = LoadCheckpoint(&other, path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

// End-to-end: a tiny seq2seq learns the identity (copy) function.
TEST(TrainingTest, Seq2SeqLearnsToCopy) {
  Rng rng(42);
  auto config = SmallConfig(12);
  config.d_model = 32;
  Seq2SeqTransformer model(config, &rng);
  Adam opt(model.Parameters(), 3e-3f);

  const int32_t bos = 1, eos = 2;
  // Training pairs: copy random token sequences (ids 3..11).
  for (int step = 0; step < 150; ++step) {
    std::vector<std::vector<int32_t>> srcs, tgt_in, tgt_out;
    for (int b = 0; b < 8; ++b) {
      std::vector<int32_t> seq;
      const int len = 2 + static_cast<int>(rng.UniformInt(3));
      for (int t = 0; t < len; ++t) {
        seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(9)));
      }
      srcs.push_back(seq);
      std::vector<int32_t> in = {bos};
      in.insert(in.end(), seq.begin(), seq.end());
      std::vector<int32_t> out = seq;
      out.push_back(eos);
      tgt_in.push_back(in);
      tgt_out.push_back(out);
    }
    TokenBatch src = TokenBatch::Pack(srcs, 0);
    TokenBatch tin = TokenBatch::Pack(tgt_in, 0);
    // Flatten targets aligned with tin (pad -> ignore).
    std::vector<int32_t> targets(
        static_cast<size_t>(tin.batch * tin.len), -100);
    for (size_t b = 0; b < tgt_out.size(); ++b) {
      for (size_t t = 0; t < tgt_out[b].size(); ++t) {
        targets[b * static_cast<size_t>(tin.len) + t] = tgt_out[b][t];
      }
    }
    opt.ZeroGrad();
    Tensor logits = model.Forward(src, tin, &rng);
    Tensor flat = Reshape(
        logits, {tin.batch * tin.len, config.vocab_size});
    Tensor loss = CrossEntropyLoss(flat, targets);
    loss.Backward();
    ClipGradNorm(model.Parameters(), 1.0f);
    opt.Step();
  }

  // Evaluate copying on fresh sequences.
  model.SetTraining(false);
  int correct = 0, total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int32_t> seq;
    const int len = 2 + static_cast<int>(rng.UniformInt(3));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(9)));
    }
    TokenBatch src = TokenBatch::Pack({seq}, 0);
    auto out = model.GenerateGreedy(src, bos, eos, 8, &rng);
    ASSERT_EQ(out.size(), 1u);
    if (out[0] == seq) ++correct;
    ++total;
  }
  EXPECT_GE(correct, 7) << "copy accuracy too low: " << correct << "/"
                        << total;
}

TEST(TrainingTest, BeamSearchMatchesGreedyOnConfidentModel) {
  Rng rng(43);
  auto config = SmallConfig(12);
  Seq2SeqTransformer model(config, &rng);
  Adam opt(model.Parameters(), 3e-3f);
  const int32_t bos = 1, eos = 2;
  // Train a fixed mapping: (3,4) -> (5,6).
  for (int step = 0; step < 120; ++step) {
    TokenBatch src = TokenBatch::Pack({{3, 4}}, 0);
    TokenBatch tin = TokenBatch::Pack({{bos, 5, 6}}, 0);
    std::vector<int32_t> targets = {5, 6, eos};
    opt.ZeroGrad();
    Tensor logits = model.Forward(src, tin, &rng);
    Tensor flat =
        Reshape(logits, {tin.batch * tin.len, config.vocab_size});
    Tensor loss = CrossEntropyLoss(flat, targets);
    loss.Backward();
    opt.Step();
  }
  model.SetTraining(false);
  TokenBatch src = TokenBatch::Pack({{3, 4}}, 0);
  auto greedy = model.GenerateGreedy(src, bos, eos, 6, &rng);
  auto beam = model.GenerateBeam(src, bos, eos, 6, 3, 1, &rng);
  ASSERT_FALSE(beam.empty());
  EXPECT_EQ(greedy[0], beam[0]);
  EXPECT_EQ(greedy[0], (std::vector<int32_t>{5, 6}));
}

TEST(GenerationTest, BeamWidthOneAgreesWithGreedy) {
  // At beam_width=1 beam search degenerates to greedy: both take the argmax
  // continuation each step. Serving leans on batched greedy, so the two
  // must agree even on an untrained (random-weight) model.
  Rng rng(101);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<int32_t> seq;
    const int len = 2 + static_cast<int>(rng.UniformInt(4));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(16)));
    }
    TokenBatch src = TokenBatch::Pack({seq}, 0);
    auto greedy = model.GenerateGreedy(src, bos, eos, 8, &rng);
    auto beam = model.GenerateBeam(src, bos, eos, 8, /*beam_width=*/1,
                                   /*num_results=*/1, &rng);
    ASSERT_EQ(greedy.size(), 1u);
    ASSERT_EQ(beam.size(), 1u);
    EXPECT_EQ(greedy[0], beam[0]) << "trial " << trial;
  }
}

// ---- Incremental decoding (KV cache) ----------------------------------------

// Reference greedy decode without caches: a full DecodeLogits pass over the
// whole prefix at every step, one row at a time (the pre-KV-cache
// algorithm). Used as ground truth for bit-identity tests.
std::vector<int32_t> ReferenceGreedyOneRow(const Seq2SeqTransformer& model,
                                           const std::vector<int32_t>& seq,
                                           int32_t bos, int32_t eos,
                                           int64_t max_len, Rng* rng) {
  NoGradGuard no_grad;
  TokenBatch src = TokenBatch::Pack({seq}, 0);
  Tensor memory = model.Encode(src, rng);
  const int64_t v = model.config().vocab_size;
  std::vector<int32_t> ids = {bos};
  for (int64_t step = 0; step < max_len; ++step) {
    TokenBatch tgt = TokenBatch::Pack({ids}, 0);
    Tensor logits = model.DecodeLogits(tgt, memory, src.valid, rng);
    const float* row =
        logits.data() + (static_cast<int64_t>(ids.size()) - 1) * v;
    int32_t best = 0;
    for (int64_t c = 1; c < v; ++c) {
      if (row[c] > row[best]) best = static_cast<int32_t>(c);
    }
    if (best == eos) break;
    ids.push_back(best);
  }
  ids.erase(ids.begin());
  return ids;
}

TEST(IncrementalDecodeTest, DecodeStepMatchesFullPassBitExact) {
  // Each DecodeStep must reproduce, bit for bit, the last position of a
  // full teacher-forced DecodeLogits pass over the same prefix — over a
  // ragged (padded) source batch, so the cross-attention key mask is
  // exercised.
  Rng rng(303);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  NoGradGuard no_grad;

  std::vector<std::vector<int32_t>> seqs = {{5, 7, 3, 11}, {4, 9}, {13}};
  TokenBatch src = TokenBatch::Pack(seqs, 0);
  Tensor memory = model.Encode(src, &rng);

  const int64_t batch = src.batch;
  const int64_t v = config.vocab_size;
  DecoderState state = model.BeginDecode(memory, src.valid);
  // Fixed per-row prefixes (uniform length, like real decode batches).
  std::vector<std::vector<int32_t>> prefixes = {{1}, {1}, {1}};
  for (int step = 0; step < 6; ++step) {
    std::vector<int32_t> last;
    for (const auto& p : prefixes) last.push_back(p.back());
    Tensor cached = model.DecodeStep(last, &state, &rng);
    ASSERT_EQ(cached.shape(), (std::vector<int64_t>{batch, v}));

    TokenBatch tgt = TokenBatch::Pack(prefixes, 0);
    Tensor full = model.DecodeLogits(tgt, memory, src.valid, &rng);
    const int64_t t = tgt.len - 1;
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t c = 0; c < v; ++c) {
        // EXPECT_EQ, not NEAR: the cached path must be bit-identical.
        EXPECT_EQ(cached.at(b * v + c), full.at((b * tgt.len + t) * v + c))
            << "step " << step << " row " << b << " vocab " << c;
      }
    }
    // Extend each prefix with a distinct next token.
    for (size_t b = 0; b < prefixes.size(); ++b) {
      prefixes[b].push_back(
          static_cast<int32_t>(3 + (step * prefixes.size() + b) % 15));
    }
  }
}

TEST(IncrementalDecodeTest, CachedGreedyMatchesUncachedReference) {
  // The KV-cached batched GenerateGreedy (with finished-row compaction)
  // must equal the uncached per-row full-pass reference exactly.
  Rng rng(404);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  std::vector<std::vector<int32_t>> seqs;
  for (int i = 0; i < 6; ++i) {
    std::vector<int32_t> seq;
    const int len = 1 + static_cast<int>(rng.UniformInt(5));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(16)));
    }
    seqs.push_back(std::move(seq));
  }
  TokenBatch packed = TokenBatch::Pack(seqs, 0);
  auto cached = model.GenerateGreedy(packed, bos, eos, 8, &rng);
  ASSERT_EQ(cached.size(), seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    auto reference =
        ReferenceGreedyOneRow(model, seqs[i], bos, eos, 8, &rng);
    EXPECT_EQ(cached[i], reference) << "row " << i;
  }
}

TEST(IncrementalDecodeTest, DecoderStateGatherRowsReordersAndReplicates) {
  // GatherRows must reorder, drop, and replicate cache rows exactly:
  // decoding a gathered state must give the same logits rows as the
  // ungathered state (the beam-reordering and greedy-compaction primitive).
  Rng rng(505);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  NoGradGuard no_grad;

  std::vector<std::vector<int32_t>> seqs = {{5, 7, 3}, {4, 9}, {13, 6, 8}};
  TokenBatch src = TokenBatch::Pack(seqs, 0);
  Tensor memory = model.Encode(src, &rng);
  const int64_t v = config.vocab_size;

  DecoderState state = model.BeginDecode(memory, src.valid);
  model.DecodeStep({1, 1, 1}, &state, &rng);
  model.DecodeStep({4, 5, 6}, &state, &rng);

  // Baseline: all three rows, one more step. (DecoderState copies are safe:
  // DecodeStep replaces cache tensors instead of mutating them in place.)
  DecoderState baseline = state;
  Tensor all = model.DecodeStep({7, 8, 9}, &baseline, &rng);

  // Reorder + drop: rows {2, 0}.
  DecoderState reordered = state;
  reordered.GatherRows({2, 0});
  EXPECT_EQ(reordered.batch, 2);
  Tensor swapped = model.DecodeStep({9, 7}, &reordered, &rng);
  for (int64_t c = 0; c < v; ++c) {
    EXPECT_EQ(swapped.at(0 * v + c), all.at(2 * v + c)) << "vocab " << c;
    EXPECT_EQ(swapped.at(1 * v + c), all.at(0 * v + c)) << "vocab " << c;
  }

  // Replication: rows {0, 0, 1} (a beam widening from one parent).
  DecoderState replicated = state;
  replicated.GatherRows({0, 0, 1});
  EXPECT_EQ(replicated.batch, 3);
  Tensor rep = model.DecodeStep({7, 7, 8}, &replicated, &rng);
  for (int64_t c = 0; c < v; ++c) {
    EXPECT_EQ(rep.at(0 * v + c), all.at(0 * v + c)) << "vocab " << c;
    EXPECT_EQ(rep.at(1 * v + c), all.at(0 * v + c)) << "vocab " << c;
    EXPECT_EQ(rep.at(2 * v + c), all.at(1 * v + c)) << "vocab " << c;
  }
}

// Reference beam search without caches or early stopping: the pre-KV-cache
// algorithm run to the full length cap. The production GenerateBeam stops
// early only when no active hypothesis can still win, so its top results
// must match this exhaustive reference.
std::vector<std::vector<int32_t>> ReferenceBeam(
    const Seq2SeqTransformer& model, const TokenBatch& src, int32_t bos,
    int32_t eos, int64_t max_len, int64_t beam_width, int64_t num_results,
    Rng* rng) {
  NoGradGuard no_grad;
  Tensor memory = model.Encode(src, rng);
  const int64_t v = model.config().vocab_size;
  struct Hyp {
    std::vector<int32_t> ids;
    double log_prob = 0.0;
  };
  std::vector<Hyp> beam = {Hyp{{bos}, 0.0}};
  std::vector<Hyp> finished;
  for (int64_t step = 0; step < max_len && !beam.empty(); ++step) {
    std::vector<Hyp> candidates;
    for (const auto& h : beam) {
      TokenBatch tgt = TokenBatch::Pack({h.ids}, 0);
      Tensor logits = model.DecodeLogits(tgt, memory, src.valid, rng);
      const float* row =
          logits.data() + (static_cast<int64_t>(h.ids.size()) - 1) * v;
      float mx = row[0];
      for (int64_t c = 1; c < v; ++c) mx = std::max(mx, row[c]);
      double sum = 0.0;
      for (int64_t c = 0; c < v; ++c) sum += std::exp(row[c] - mx);
      const double lse = mx + std::log(sum);
      std::vector<int32_t> order(static_cast<size_t>(v));
      for (int64_t c = 0; c < v; ++c) {
        order[static_cast<size_t>(c)] = static_cast<int32_t>(c);
      }
      std::partial_sort(order.begin(),
                        order.begin() + std::min<int64_t>(beam_width, v),
                        order.end(),
                        [row](int32_t a, int32_t b) { return row[a] > row[b]; });
      for (int64_t k = 0; k < std::min<int64_t>(beam_width, v); ++k) {
        const int32_t tok = order[static_cast<size_t>(k)];
        Hyp next = h;
        next.log_prob += row[tok] - lse;
        if (tok == eos) {
          finished.push_back(next);
        } else {
          next.ids.push_back(tok);
          candidates.push_back(std::move(next));
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Hyp& a, const Hyp& b) { return a.log_prob > b.log_prob; });
    if (static_cast<int64_t>(candidates.size()) > beam_width) {
      candidates.resize(static_cast<size_t>(beam_width));
    }
    beam = std::move(candidates);
  }
  for (const auto& h : beam) finished.push_back(h);
  std::sort(finished.begin(), finished.end(), [](const Hyp& a, const Hyp& b) {
    return a.log_prob / std::max<size_t>(1, a.ids.size()) >
           b.log_prob / std::max<size_t>(1, b.ids.size());
  });
  std::vector<std::vector<int32_t>> out;
  for (const auto& h : finished) {
    if (static_cast<int64_t>(out.size()) >= num_results) break;
    out.emplace_back(h.ids.begin() + 1, h.ids.end());
  }
  return out;
}

TEST(IncrementalDecodeTest, CachedBeamMatchesUncachedReference) {
  // Cached beam search (with state-row gathering on reorder and the
  // provably-safe early stop) against the exhaustive uncached reference.
  Rng rng(606);
  auto config = SmallConfig(16);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<int32_t> seq;
    const int len = 2 + static_cast<int>(rng.UniformInt(4));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(12)));
    }
    TokenBatch src = TokenBatch::Pack({seq}, 0);
    auto cached = model.GenerateBeam(src, bos, eos, 8, /*beam_width=*/3,
                                     /*num_results=*/2, &rng);
    auto reference =
        ReferenceBeam(model, src, bos, eos, 8, 3, 2, &rng);
    EXPECT_EQ(cached, reference) << "trial " << trial;
  }
}

TEST(GenerationTest, TrainingModeDecodingIsDeterministic) {
  // A model left in training mode must still generate deterministically:
  // the generators force eval (dropout off) internally and restore the
  // caller's mode afterwards.
  Rng rng(707);
  auto config = SmallConfig(20);
  config.dropout = 0.3f;
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(true);
  const int32_t bos = 1, eos = 2;
  TokenBatch src = TokenBatch::Pack({{5, 9, 3}}, 0);

  auto first = model.GenerateGreedy(src, bos, eos, 8, &rng);
  EXPECT_TRUE(model.training()) << "generator must restore training mode";
  auto second = model.GenerateGreedy(src, bos, eos, 8, &rng);
  EXPECT_EQ(first, second) << "training-mode decode applied dropout";

  model.SetTraining(false);
  auto eval_out = model.GenerateGreedy(src, bos, eos, 8, &rng);
  EXPECT_EQ(first, eval_out);
  model.SetTraining(true);

  auto beam1 = model.GenerateBeam(src, bos, eos, 8, 2, 1, &rng);
  auto beam2 = model.GenerateBeam(src, bos, eos, 8, 2, 1, &rng);
  EXPECT_TRUE(model.training());
  EXPECT_EQ(beam1, beam2);
}

TEST(GenerationTest, MaxLenIsClampedToPositionTable) {
  // Asking for more tokens than max_seq_len allows must not trip the
  // position-embedding bounds check; generation just caps at
  // max_seq_len - 1 decoder positions (BOS + generated tokens).
  Rng rng(808);
  auto config = SmallConfig(20);
  config.max_seq_len = 8;
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1;
  // eos = -1: unreachable, so decoding runs to the cap on a random model.
  TokenBatch src = TokenBatch::Pack({{5, 9, 3}, {4, 6}}, 0);
  auto greedy = model.GenerateGreedy(src, bos, /*eos_id=*/-1, 50, &rng);
  ASSERT_EQ(greedy.size(), 2u);
  for (const auto& seq : greedy) {
    EXPECT_LE(seq.size(), 7u);  // max_seq_len - 1
  }
  TokenBatch one = TokenBatch::Pack({{5, 9, 3}}, 0);
  auto beam = model.GenerateBeam(one, bos, /*eos_id=*/-1, 50, 2, 1, &rng);
  ASSERT_EQ(beam.size(), 1u);
  EXPECT_LE(beam[0].size(), 7u);
}

// ---- Attention against the explicit pre-fusion composition ------------------

// The attention math as it was composed before the fused path: an explicit
// K^T transpose, MatMul, Scale, Add and Softmax, each its own op.
class ReferenceAttention {
 public:
  explicit ReferenceAttention(const MultiHeadAttention& mha)
      : heads_(mha.num_heads()) {
    for (const auto& [name, tensor] : mha.NamedParameters()) {
      params_[name] = tensor;
    }
  }

  // query [B, Tq, D], source [B, Tk, D] (the keys/values before
  // projection), bias [B, H, Tq, Tk] or undefined.
  Tensor Forward(const Tensor& query, const Tensor& source,
                 const Tensor& bias) const {
    Tensor q = Split(Project(query, "q_proj"));
    Tensor k = Split(Project(source, "k_proj"));
    Tensor v = Split(Project(source, "v_proj"));
    const float scale =
        1.0f / std::sqrt(static_cast<float>(q.dim(-1)));
    Tensor scores = Scale(MatMul(q, Transpose(k, 2, 3)), scale);
    if (bias.defined()) scores = Add(scores, bias);
    Tensor context = MatMul(Softmax(scores), v);
    return Project(Merge(context), "out_proj");
  }

 private:
  Tensor Project(const Tensor& x, const std::string& name) const {
    return MatMulBiasAct(x, params_.at(name + ".weight"),
                         params_.at(name + ".bias"), FusedAct::kNone);
  }

  // [B, T, H*Dh] -> [B, H, T, Dh].
  Tensor Split(const Tensor& x) const {
    return Transpose(
        Reshape(x, {x.dim(0), x.dim(1), heads_, x.dim(2) / heads_}), 1, 2);
  }

  // [B, H, T, Dh] -> [B, T, H*Dh].
  static Tensor Merge(const Tensor& x) {
    return Reshape(Transpose(x, 1, 2),
                   {x.dim(0), x.dim(2), x.dim(1) * x.dim(3)});
  }

  int64_t heads_;
  std::map<std::string, Tensor> params_;
};

// The backends attention must agree on: scalar (bitwise) and, where the
// host and build have it, avx2 (to 1e-4).
std::vector<TensorBackend> AttentionBackends() {
  std::vector<TensorBackend> backends = {TensorBackend::kScalar};
  if (BuiltWithAvx2() && CpuSupportsAvx2Fma()) {
    backends.push_back(TensorBackend::kAvx2);
  }
  return backends;
}

void ExpectAttentionMatches(const Tensor& got, const Tensor& want,
                            TensorBackend backend, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  if (backend == TensorBackend::kScalar) {
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * static_cast<size_t>(got.numel())),
              0)
        << what << ": scalar attention is not bitwise the composition";
    return;
  }
  float max_diff = 0.0f;
  for (int64_t i = 0; i < got.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(got.at(i) - want.at(i)));
  }
  EXPECT_LE(max_diff, 1e-4f) << what << ": avx2 max abs diff";
}

// Ragged key validity: row b keeps its first T - (b % T) keys.
std::vector<uint8_t> RaggedValid(int64_t batch, int64_t len) {
  std::vector<uint8_t> valid(static_cast<size_t>(batch * len), 1);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = len - b % len; t < len; ++t) {
      valid[static_cast<size_t>(b * len + t)] = 0;
    }
  }
  return valid;
}

TEST(AttentionEquivalenceTest, FullPassMatchesComposition) {
  constexpr int64_t kDim = 64, kHeads = 4, kLen = 11;
  Rng rng(901);
  MultiHeadAttention mha(kDim, kHeads, 0.0f, &rng);
  mha.SetTraining(false);
  ReferenceAttention reference(mha);
  NoGradGuard no_grad;
  for (TensorBackend backend : AttentionBackends()) {
    ScopedTensorBackendOverride pin(backend);
    for (int64_t batch : {1, 32}) {
      Tensor x = Tensor::Randn({batch, kLen, kDim}, 1.0f, &rng);
      Tensor memory = Tensor::Randn({batch, kLen + 3, kDim}, 1.0f, &rng);
      const auto valid = RaggedValid(batch, kLen);
      const auto mem_valid = RaggedValid(batch, kLen + 3);
      // A row whose keys are all padding: every query of it is fully masked.
      std::vector<uint8_t> dead = valid;
      std::fill(dead.begin(), dead.begin() + kLen, 0);
      Tensor dead_row_bias = BuildAttentionBias(batch, kHeads, kLen, kLen,
                                                valid, /*causal=*/true);
      for (int64_t j = 0; j < kLen; ++j) dead_row_bias.data()[j] = -1e9f;

      const std::string tag = std::string(TensorBackendName(backend)) +
                              " batch " + std::to_string(batch);
      struct Case {
        const char* name;
        Tensor query, source, bias;
      };
      const std::vector<Case> cases = {
          {"unmasked", x, x, Tensor()},
          {"padded keys", x, x,
           BuildAttentionBias(batch, kHeads, kLen, kLen, valid, false)},
          {"causal", x, x,
           BuildAttentionBias(batch, kHeads, kLen, kLen, valid, true)},
          {"fully masked batch row", x, x,
           BuildAttentionBias(batch, kHeads, kLen, kLen, dead, false)},
          {"fully masked query row", x, x, dead_row_bias},
          {"cross, padded memory", x, memory,
           BuildAttentionBias(batch, kHeads, kLen, kLen + 3, mem_valid,
                              false)},
      };
      for (const Case& c : cases) {
        Tensor got = mha.Forward(c.query, c.source, c.source, c.bias, &rng);
        ExpectAttentionMatches(got, reference.Forward(c.query, c.source,
                                                      c.bias),
                               backend, tag + " " + c.name);
      }
    }
  }
}

TEST(AttentionEquivalenceTest, SingleQueryOverCachesMatchesComposition) {
  constexpr int64_t kDim = 64, kHeads = 4, kSteps = 7, kMemLen = 9;
  Rng rng(902);
  MultiHeadAttention self_attn(kDim, kHeads, 0.0f, &rng);
  MultiHeadAttention cross_attn(kDim, kHeads, 0.0f, &rng);
  self_attn.SetTraining(false);
  cross_attn.SetTraining(false);
  ReferenceAttention self_ref(self_attn);
  ReferenceAttention cross_ref(cross_attn);
  NoGradGuard no_grad;
  for (TensorBackend backend : AttentionBackends()) {
    ScopedTensorBackendOverride pin(backend);
    for (int64_t batch : {1, 32}) {
      const std::string tag = std::string(TensorBackendName(backend)) +
                              " batch " + std::to_string(batch);
      Tensor steps = Tensor::Randn({batch, kSteps, kDim}, 1.0f, &rng);
      Tensor memory = Tensor::Randn({batch, kMemLen, kDim}, 1.0f, &rng);
      Tensor cross_bias = BuildIncrementalAttentionBias(
          batch, kHeads, kMemLen, RaggedValid(batch, kMemLen));
      KVCache self_cache;
      KVCache cross_cache;
      cross_attn.AppendKV(memory, memory, &cross_cache);  // compute once
      for (int64_t t = 0; t < kSteps; ++t) {
        Tensor x_t = Slice(steps, 1, t, t + 1);
        // Append-mode self cache: the newest query sees every cached key.
        Tensor got = self_attn.Forward(x_t, x_t, x_t, Tensor(), &rng,
                                       &self_cache);
        ExpectAttentionMatches(
            got, self_ref.Forward(x_t, Slice(steps, 1, 0, t + 1), Tensor()),
            backend, tag + " self step " + std::to_string(t));
        Tensor cross = cross_attn.Forward(x_t, Tensor(), Tensor(),
                                          cross_bias, &rng, &cross_cache);
        ExpectAttentionMatches(cross,
                               cross_ref.Forward(x_t, memory, cross_bias),
                               backend, tag + " cross step " +
                                            std::to_string(t));
      }
    }
  }
}

TEST(AttentionEquivalenceTest, TrainingGradientsMatchComposition) {
  // Training runs the same attention code: its parameter gradients match
  // those of the composed reference graph.
  ScopedTensorBackendOverride pin(TensorBackend::kScalar);
  constexpr int64_t kDim = 32, kHeads = 4, kLen = 6, kBatch = 3;
  Rng rng(903);
  MultiHeadAttention mha(kDim, kHeads, 0.0f, &rng);
  ReferenceAttention reference(mha);
  Tensor x = Tensor::Randn({kBatch, kLen, kDim}, 1.0f, &rng);
  Tensor w = Tensor::Randn({kBatch, kLen, kDim}, 1.0f, &rng);
  Tensor bias = BuildAttentionBias(kBatch, kHeads, kLen, kLen,
                                   RaggedValid(kBatch, kLen), true);
  auto grads = [&](const Tensor& out) {
    mha.ZeroGrad();
    Sum(Mul(out, w)).Backward();
    std::vector<float> all;
    for (const Tensor& p : mha.Parameters()) {
      all.insert(all.end(), p.grad_data(), p.grad_data() + p.numel());
    }
    return all;
  };
  // The reference projects through MatMulBiasAct, which under autograd
  // composes MatMul + Add — the graph Linear builds when training.
  const std::vector<float> got = grads(mha.Forward(x, x, x, bias, &rng));
  const std::vector<float> want = grads(reference.Forward(x, x, bias));
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << i;
  }
}

// ---- Pinned forced-scalar cleaner output --------------------------------------

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

struct CleanerHashes {
  uint64_t predictions = 1469598103934665603ull;
  uint64_t logits = 1469598103934665603ull;
};

// A seeded tiny RPT-C, pre-trained briefly (dropout on) under the scalar
// backend, and the table it was trained on.
struct TinyCleaner {
  Table table{Schema({"item", "brand", "country"})};
  std::unique_ptr<RptCleaner> cleaner;
};

TinyCleaner BuildTinyCleaner() {
  ScopedTensorBackendOverride scalar(TensorBackend::kScalar);
  const std::vector<std::pair<std::string, std::string>> brands = {
      {"apple", "usa"},  {"sony", "japan"},    {"samsung", "korea"},
      {"dell", "texas"}, {"nokia", "finland"}, {"lenovo", "china"}};
  TinyCleaner tiny;
  Table& table = tiny.table;
  for (int r = 0; r < 4; ++r) {
    for (const auto& [brand, country] : brands) {
      table.AddRow({Value::String("item" + std::to_string(table.NumRows())),
                    Value::String(brand), Value::String(country)});
    }
  }
  std::unordered_map<std::string, int64_t> counts;
  for (const auto& name : table.schema().names()) {
    Tokenizer::CountTokens(name, &counts);
  }
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    for (int64_t c = 0; c < table.NumColumns(); ++c) {
      Tokenizer::CountTokens(table.at(r, c).text(), &counts);
    }
  }
  CleanerConfig config;
  config.d_model = 32;
  config.num_heads = 4;
  config.num_layers = 2;
  config.ffn_dim = 64;
  config.max_seq_len = 48;
  config.dropout = 0.1f;
  config.batch_size = 8;
  config.max_target_len = 6;
  config.seed = 2024;
  config.learning_rate = 3e-3f;
  config.warmup_steps = 20;
  tiny.cleaner = std::make_unique<RptCleaner>(config, Vocab::Build(counts));
  tiny.cleaner->PretrainOnTables({&table}, 120);
  return tiny;
}

// The tiny RPT-C queried under the scalar backend: `predictions` hashes
// PredictBatch's strings and `logits` the raw bits of three batched decode
// steps plus the encoder memory over ragged sources.
CleanerHashes TinyCleanerHashes() {
  const TinyCleaner tiny = BuildTinyCleaner();
  const Table& table = tiny.table;
  const RptCleaner& cleaner = *tiny.cleaner;
  ScopedTensorBackendOverride scalar(TensorBackend::kScalar);
  CleanerHashes hashes;
  std::vector<CellQuery> queries;
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    queries.push_back({table.row(r), 1 + r % 2});
  }
  for (const std::string& out :
       cleaner.PredictBatch(table.schema(), queries)) {
    hashes.predictions =
        Fnv1a(out.data(), out.size() + 1, hashes.predictions);
  }

  NoGradGuard no_grad;
  Rng rng(9);
  const int32_t vocab = static_cast<int32_t>(cleaner.vocab().size());
  std::vector<std::vector<int32_t>> seqs;
  for (int b = 0; b < 5; ++b) {
    std::vector<int32_t> seq;
    for (int t = 0; t < 3 + 4 * b; ++t) {
      seq.push_back(4 + static_cast<int32_t>(rng.UniformInt(vocab - 4)));
    }
    seqs.push_back(seq);
  }
  const Seq2SeqTransformer& model = cleaner.model();
  TokenBatch src = TokenBatch::Pack(seqs, 0);
  Tensor memory = model.Encode(src, &rng);
  DecoderState state = model.BeginDecode(memory, src.valid);
  std::vector<int32_t> last(seqs.size(), 1);
  for (int step = 0; step < 3; ++step) {
    Tensor logits = model.DecodeStep(last, &state, &rng);
    hashes.logits = Fnv1a(logits.data(), sizeof(float) * logits.numel(),
                          hashes.logits);
    for (size_t b = 0; b < last.size(); ++b) {
      last[b] = 4 + static_cast<int32_t>((step * 7 + b * 3) % (vocab - 4));
    }
  }
  hashes.logits = Fnv1a(memory.data(), sizeof(float) * memory.numel(),
                        hashes.logits);
  return hashes;
}

TEST(PinnedOutputTest, ForcedScalarCleanerIsBitwiseStable) {
  // Pinned from the composition that predates the fused attention path
  // (explicit K^T transpose, unfused scale/bias/softmax). Training and
  // inference both run through the pinned ops, so any change in scalar
  // arithmetic order anywhere in the forward or backward pass moves these.
  const CleanerHashes hashes = TinyCleanerHashes();
  EXPECT_EQ(hashes.predictions, 0x12fa685c29772424ull);
  EXPECT_EQ(hashes.logits, 0x0f3dc89617dcd834ull);
}

// ---- Sharded greedy generation ---------------------------------------------

// Batch sizes around the shard cuts: below, at and just past multiples of
// the 4-row shard minimum, and past the CPU cap.
const int64_t kShardedBatchSizes[] = {1, 3, 4, 7, 8, 31, 32, 33};

// `count` ragged sources of 1..12 tokens, with column and type ids.
struct RaggedSources {
  std::vector<std::vector<int32_t>> ids, cols, types;
  TokenBatch Pack(size_t begin, size_t end) const {
    const auto slice = [begin, end](const auto& v) {
      return std::vector<std::vector<int32_t>>(v.begin() + begin,
                                               v.begin() + end);
    };
    const auto c = slice(cols), t = slice(types);
    return TokenBatch::Pack(slice(ids), 0, &c, &t);
  }
};

RaggedSources MakeRaggedSources(size_t count, Rng* rng) {
  RaggedSources out;
  for (size_t i = 0; i < count; ++i) {
    const int len = 1 + static_cast<int>(rng->UniformInt(12));
    std::vector<int32_t> ids, cols, types;
    for (int t = 0; t < len; ++t) {
      ids.push_back(3 + static_cast<int32_t>(rng->UniformInt(17)));
      cols.push_back(static_cast<int32_t>(rng->UniformInt(6)));
      types.push_back(static_cast<int32_t>(rng->UniformInt(4)));
    }
    out.ids.push_back(std::move(ids));
    out.cols.push_back(std::move(cols));
    out.types.push_back(std::move(types));
  }
  return out;
}

TEST(GenerationTest, BatchedGreedyMatchesPerRowGreedy) {
  // The micro-batch path: decoding many ragged sources together (length
  // sorted, sharded, with finished-row compaction) must produce exactly
  // what one-at-a-time decoding produces. Scalar is the bitwise anchor;
  // avx2 must still pick the same ids.
  Rng rng(303);
  Seq2SeqTransformer model(SmallConfig(20), &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  const RaggedSources sources = MakeRaggedSources(33, &rng);
  for (TensorBackend backend : AttentionBackends()) {
    ScopedTensorBackendOverride pin(backend);
    std::vector<std::vector<int32_t>> singles;
    for (size_t i = 0; i < sources.ids.size(); ++i) {
      singles.push_back(
          model.GenerateGreedy(sources.Pack(i, i + 1), bos, eos, 8, &rng)[0]);
    }
    for (int64_t b : kShardedBatchSizes) {
      const auto batched = model.GenerateGreedy(
          sources.Pack(0, static_cast<size_t>(b)), bos, eos, 8, &rng);
      ASSERT_EQ(static_cast<int64_t>(batched.size()), b);
      for (int64_t i = 0; i < b; ++i) {
        EXPECT_EQ(batched[static_cast<size_t>(i)],
                  singles[static_cast<size_t>(i)])
            << TensorBackendName(backend) << " B=" << b << " row " << i;
      }
    }
  }
}

TEST(ShardedGenerationTest, PredictBatchMatchesPerQueryCalls) {
  const TinyCleaner tiny = BuildTinyCleaner();
  const Table& table = tiny.table;
  std::vector<CellQuery> queries;
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    queries.push_back({table.row(r), 1 + r % 2});
    queries.push_back({table.row(r), r % 3});
  }
  for (TensorBackend backend : AttentionBackends()) {
    ScopedTensorBackendOverride pin(backend);
    std::vector<std::string> singles;
    for (const CellQuery& q : queries) {
      singles.push_back(tiny.cleaner->PredictBatch(table.schema(), {q})[0]);
    }
    for (int64_t b : kShardedBatchSizes) {
      const std::vector<CellQuery> batch(queries.begin(),
                                         queries.begin() + b);
      const auto batched = tiny.cleaner->PredictBatch(table.schema(), batch);
      ASSERT_EQ(static_cast<int64_t>(batched.size()), b);
      for (int64_t i = 0; i < b; ++i) {
        EXPECT_EQ(batched[static_cast<size_t>(i)],
                  singles[static_cast<size_t>(i)])
            << TensorBackendName(backend) << " B=" << b << " query " << i;
      }
    }
  }
}

TEST(ComputePhaseTest, ShardBodiesRunInTheCallersContext) {
  const int64_t shards = OnlineCpuCount();
  std::atomic<int> emitted{0};
  SetStageTimingHook([&emitted](const char*, StageClock::time_point,
                                StageClock::time_point) { ++emitted; });
  for (TensorBackend backend : AttentionBackends()) {
    ScopedTensorBackendOverride pin(backend);
    ASSERT_TRUE(AutogradEnabled());
    std::vector<TensorBackend> seen(static_cast<size_t>(shards));
    std::vector<int> autograd(static_cast<size_t>(shards), -1);
    std::vector<std::thread::id> threads(static_cast<size_t>(shards));
    RunComputePhase(shards, [&](int64_t s) {
      ScopedStageTiming inner("nn.encode");
      seen[static_cast<size_t>(s)] = ActiveTensorBackend();
      autograd[static_cast<size_t>(s)] = AutogradEnabled() ? 1 : 0;
      threads[static_cast<size_t>(s)] = std::this_thread::get_id();
    });
    for (int64_t s = 0; s < shards; ++s) {
      EXPECT_EQ(seen[static_cast<size_t>(s)], backend)
          << TensorBackendName(backend) << " shard " << s;
      EXPECT_EQ(autograd[static_cast<size_t>(s)], 0) << "shard " << s;
      // Shard 0 is the caller's; the others ran on pool workers.
      EXPECT_EQ(threads[static_cast<size_t>(s)] == std::this_thread::get_id(),
                s == 0)
          << "shard " << s;
    }
    EXPECT_TRUE(AutogradEnabled());
    EXPECT_EQ(ActiveTensorBackend(), backend);
  }
  SetStageTimingHook(nullptr);
  EXPECT_EQ(emitted.load(), 0) << "a scope inside a shard body emitted";
}

TEST(ShardedGenerationTest, StageSpansComeOncePerPhaseFromTheCaller) {
  Rng rng(404);
  Seq2SeqTransformer model(SmallConfig(20), &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  const int64_t max_len = 8;
  const RaggedSources sources = MakeRaggedSources(32, &rng);
  struct Span {
    std::string stage;
    std::thread::id thread;
    StageClock::time_point begin, end;
  };
  std::mutex mu;
  std::vector<Span> spans;
  SetStageTimingHook([&](const char* stage, StageClock::time_point b,
                         StageClock::time_point e) {
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back({stage, std::this_thread::get_id(), b, e});
  });
  const auto out =
      model.GenerateGreedy(sources.Pack(0, 32), bos, eos, max_len, &rng);
  SetStageTimingHook(nullptr);

  // A row that stops at EOS was decoded one step past its output.
  int64_t steps = 0;
  for (const auto& ids : out) {
    steps = std::max(steps, std::min<int64_t>(ids.size() + 1, max_len));
  }
  std::map<std::string, int64_t> counts;
  for (const Span& span : spans) {
    ++counts[span.stage];
    EXPECT_EQ(span.thread, std::this_thread::get_id()) << span.stage;
  }
  EXPECT_EQ(counts, (std::map<std::string, int64_t>{
                        {"nn.decode_step", steps},
                        {"nn.encode", 1},
                        {"nn.generate_greedy", 1},
                        {"nn.prefill", 1}}));
  const auto outer =
      std::find_if(spans.begin(), spans.end(), [](const Span& span) {
        return span.stage == "nn.generate_greedy";
      });
  ASSERT_NE(outer, spans.end());
  std::vector<Span> phases;
  for (const Span& span : spans) {
    if (span.stage != "nn.generate_greedy") phases.push_back(span);
  }
  std::sort(phases.begin(), phases.end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  ASSERT_FALSE(phases.empty());
  EXPECT_EQ(phases.front().stage, "nn.encode");
  for (size_t i = 0; i < phases.size(); ++i) {
    EXPECT_GE(phases[i].begin, outer->begin) << phases[i].stage;
    EXPECT_LE(phases[i].end, outer->end) << phases[i].stage;
    if (i > 0) {
      EXPECT_LE(phases[i - 1].end, phases[i].begin) << phases[i].stage;
    }
  }
}

// ---- Ops that skip the zero-fill still write every element ---------------

// Allocates and frees NaN-filled blocks of `floats` floats, so the next
// allocation of that size most likely reuses NaN-poisoned memory.
void PoisonFreedBlocks(size_t floats) {
  std::vector<std::unique_ptr<float[]>> blocks;
  for (int i = 0; i < 8; ++i) {
    blocks.emplace_back(new float[floats]);
    std::fill_n(blocks.back().get(), floats,
                std::numeric_limits<float>::quiet_NaN());
  }
}

TEST(UninitializedOutputTest, OpsWriteEveryElementOfTheirOutput) {
  Rng rng(904);
  Tensor x = Tensor::Randn({4, 6, 8}, 1.0f, &rng);
  Tensor y = Tensor::Randn({4, 6, 8}, 1.0f, &rng);
  Tensor row = Tensor::Randn({8}, 1.0f, &rng);
  Tensor one = Tensor::Randn({1}, 1.0f, &rng);
  Tensor gamma = Tensor::Randn({8}, 1.0f, &rng);
  Tensor beta = Tensor::Randn({8}, 1.0f, &rng);
  Tensor scores = Tensor::Randn({2, 4, 6, 6}, 1.0f, &rng);
  Tensor bias = BuildAttentionBias(2, 4, 6, 6, RaggedValid(2, 6), true);
  Tensor table = Tensor::Randn({10, 8}, 1.0f, &rng);
  MultiHeadAttention mha(8, 2, 0.0f, &rng);
  mha.SetTraining(false);

  const std::vector<std::pair<const char*, std::function<Tensor()>>> ops = {
      {"Add", [&] { return Add(x, y); }},
      {"Add suffix", [&] { return Add(x, row); }},
      {"Add scalar", [&] { return Add(x, one); }},
      {"Sub suffix", [&] { return Sub(x, row); }},
      {"Mul", [&] { return Mul(x, y); }},
      {"Mul suffix", [&] { return Mul(x, row); }},
      {"Scale", [&] { return Scale(x, 0.5f); }},
      {"AddScalar", [&] { return AddScalar(x, 2.0f); }},
      {"Relu", [&] { return Relu(x); }},
      {"Gelu", [&] { return Gelu(x); }},
      {"Tanh", [&] { return Tanh(x); }},
      {"Sigmoid", [&] { return Sigmoid(x); }},
      {"Softmax", [&] { return Softmax(x); }},
      {"LogSoftmax", [&] { return LogSoftmax(x); }},
      {"LayerNorm", [&] { return LayerNorm(x, gamma, beta); }},
      {"Reshape copy", [&] { return Reshape(x, {24, 8}); }},
      {"Reshape handed over", [&] { return Reshape(x.Detach(), {24, 8}); }},
      {"Transpose 0,1", [&] { return Transpose(x, 0, 1); }},
      {"Transpose 1,2", [&] { return Transpose(x, 1, 2); }},
      {"Transpose 0,2", [&] { return Transpose(x, 0, 2); }},
      {"Transpose head split", [&] { return Transpose(scores, 1, 2); }},
      {"Slice", [&] { return Slice(x, 1, 2, 5); }},
      {"Concat", [&] { return Concat({x, y}, 1); }},
      {"EmbeddingLookup", [&] { return EmbeddingLookup(table, {3, 0, 9}); }},
      {"Dropout",
       [&] {
         Rng dropout_rng(5);
         return Dropout(x, 0.3f, /*training=*/true, &dropout_rng);
       }},
      {"MaskedSoftmax", [&] { return MaskedSoftmax(scores, bias, 0.5f); }},
      {"MaskedSoftmax unmasked",
       [&] { return MaskedSoftmax(scores, Tensor(), 0.5f); }},
      {"MaskedSoftmax in place",
       [&] { return MaskedSoftmax(scores.Detach(), bias, 0.5f); }},
      {"Full", [&] { return Tensor::Full({4, 6, 8}, 3.0f); }},
      {"FromVector", [&] { return Tensor::FromVector(x.ToVector(), {48, 4}); }},
      {"Detach", [&] { return x.Detach(); }},
      {"Attention", [&] { return mha.Forward(x, x, x, Tensor(), &rng); }},
  };
  for (bool tracked : {false, true}) {
    x.set_requires_grad(tracked);
    scores.set_requires_grad(tracked);
    for (const auto& [name, op] : ops) {
      const Tensor fresh = op();
      PoisonFreedBlocks(static_cast<size_t>(fresh.numel()));
      const Tensor poisoned = op();
      ASSERT_EQ(poisoned.shape(), fresh.shape()) << name;
      for (int64_t i = 0; i < poisoned.numel(); ++i) {
        ASSERT_FALSE(std::isnan(poisoned.at(i)))
            << name << " (tracked=" << tracked << ") left element " << i
            << " unwritten";
      }
      EXPECT_EQ(std::memcmp(poisoned.data(), fresh.data(),
                            sizeof(float) *
                                static_cast<size_t>(fresh.numel())),
                0)
          << name << " (tracked=" << tracked << ")";
      // A tracked result's graph is released by a backward pass.
      for (const Tensor& t : {fresh, poisoned}) {
        if (t.requires_grad()) Sum(t).Backward();
      }
    }
  }
}

}  // namespace
}  // namespace rpt
