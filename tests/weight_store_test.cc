// Tests for the shared-weight replica machinery: WeightStore freeze/map,
// Module::BindWeights pointer identity across replicas, the memory proxy
// (distinct allocations, not Nx copies), backend exactness tiers (forced
// scalar bitwise, int8 within the analytic bound), concurrent sharded
// inference on replicas of one store, and the guards that keep the shared
// blob immutable.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "nn/backend.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "nn/weight_store.h"
#include "rpt/cleaner.h"
#include "table/table.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
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

TEST(WeightStoreTest, FreezeCapturesEveryParameterAligned) {
  Rng rng(10);
  Seq2SeqTransformer model(SmallConfig(40), &rng);
  auto store = WeightStore::Freeze(model);
  ASSERT_NE(store, nullptr);

  const auto named = model.NamedParameters();
  ASSERT_EQ(store->entries().size(), named.size());
  for (const auto& [name, tensor] : named) {
    const WeightEntry* entry = store->Find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->shape, tensor.shape());
    EXPECT_EQ(static_cast<int64_t>(entry->numel), tensor.numel());
    // 64-byte alignment contract: SIMD kernels may assume aligned rows.
    EXPECT_EQ(entry->offset % 16, 0u) << name;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(store->DataFor(*entry)) % 64, 0u)
        << name;
    // Values are a faithful snapshot.
    const std::vector<float> expected = tensor.ToVector();
    const float* frozen = store->DataFor(*entry);
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(frozen[i], expected[i]) << name << "[" << i << "]";
    }
  }
  EXPECT_FALSE(store->file_backed());
}

TEST(WeightStoreTest, ReplicasShareOnePhysicalCopy) {
  // The tentpole claim: N bound replicas hold views into one blob, so every
  // parameter's data pointer is identical across replicas and equal to the
  // store's own payload pointer.
  Rng rng_src(10);
  Seq2SeqTransformer source(SmallConfig(40), &rng_src);
  auto store = WeightStore::Freeze(source);

  constexpr int kReplicas = 4;
  std::vector<std::unique_ptr<Seq2SeqTransformer>> replicas;
  for (int r = 0; r < kReplicas; ++r) {
    Rng rng(100 + r);  // deliberately different init than the source
    replicas.push_back(
        std::make_unique<Seq2SeqTransformer>(SmallConfig(40), &rng));
    ASSERT_TRUE(replicas.back()->BindWeights(store).ok());
    EXPECT_FALSE(replicas.back()->training());  // binding implies eval mode
  }

  const auto names = source.NamedParameters();
  for (const auto& [name, unused] : names) {
    const WeightEntry* entry = store->Find(name);
    ASSERT_NE(entry, nullptr) << name;
    const float* blob_ptr = store->DataFor(*entry);
    for (auto& replica : replicas) {
      for (const auto& [rname, rtensor] : replica->NamedParameters()) {
        if (rname != name) continue;
        EXPECT_TRUE(rtensor.is_view()) << rname;
        EXPECT_EQ(rtensor.data(), blob_ptr)
            << rname << " is a private copy, not a view into the store";
      }
    }
  }
}

TEST(WeightStoreTest, DistinctAllocationSumIsOneCopyNotN) {
  // RSS proxy: the set of *distinct* parameter buffers across 4 replicas
  // must cover the store blob once, not four private copies. Without
  // sharing, unique bytes would be ~4x the parameter payload.
  Rng rng_src(10);
  Seq2SeqTransformer source(SmallConfig(40), &rng_src);
  auto store = WeightStore::Freeze(source);

  std::vector<std::unique_ptr<Seq2SeqTransformer>> replicas;
  std::set<const float*> distinct;
  size_t total_view_floats = 0;  // sum over all replica params (the Nx view)
  size_t distinct_floats = 0;    // sum over unique buffers (the real cost)
  for (int r = 0; r < 4; ++r) {
    Rng rng(200 + r);
    replicas.push_back(
        std::make_unique<Seq2SeqTransformer>(SmallConfig(40), &rng));
    ASSERT_TRUE(replicas.back()->BindWeights(store).ok());
    for (const Tensor& p : replicas.back()->Parameters()) {
      total_view_floats += static_cast<size_t>(p.numel());
      if (distinct.insert(p.data()).second) {
        distinct_floats += static_cast<size_t>(p.numel());
      }
    }
  }
  // One copy's worth of payload, not four.
  EXPECT_EQ(distinct_floats * 4, total_view_floats);
  EXPECT_LE(distinct_floats, store->total_floats());
  // Every distinct buffer lives inside the store's blob range.
  const float* lo = store->DataFor(store->entries().front());
  for (const float* p : distinct) {
    EXPECT_GE(p, lo);
    EXPECT_LT(p, lo + store->total_floats());
  }
}

TEST(WeightStoreTest, BoundReplicaIsBitwiseEqualToSourceUnderScalar) {
  // Tier-1 exactness: a replica bound to the frozen store, forced onto the
  // cpu-scalar backend, reproduces the source model's outputs bit for bit —
  // even though the replica was initialized from a different seed.
  Rng rng_src(10);
  Seq2SeqTransformer source(SmallConfig(40), &rng_src);
  source.SetTraining(false);
  auto store = WeightStore::Freeze(source);

  Rng rng_rep(77);
  Seq2SeqTransformer replica(SmallConfig(40), &rng_rep);
  ASSERT_TRUE(
      replica.BindWeights(store, ComputeBackend::kCpuScalar).ok());

  TokenBatch src = TokenBatch::Pack({{1, 2, 3, 4}, {5, 6, 7}}, 0);
  TokenBatch tgt = TokenBatch::Pack({{1, 2, 3}, {4, 5, 6}}, 0);
  Rng fwd_rng(1);  // unused at dropout 0 / eval mode, but required by API
  // Inference-only comparison: without this, the source model (whose params
  // require grad) would build an autograd graph that only Backward() frees.
  NoGradGuard no_grad;
  ScopedComputeBackend scalar(ComputeBackend::kCpuScalar);
  const std::vector<float> expected =
      source.Forward(src, tgt, &fwd_rng).ToVector();
  const std::vector<float> got =
      replica.Forward(src, tgt, &fwd_rng).ToVector();
  ASSERT_EQ(expected.size(), got.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], got[i]) << "diverged at flat index " << i;
  }
}

TEST(WeightStoreTest, ConcurrentShardedReplicasMatchSerialOutputs) {
  // The multi-replica RoutedServer shape: two collectors run sharded
  // PredictBatch calls at once on two cleaners bound to one store, so both
  // fork their phases onto the one compute pool.
  Table table{Schema({"item", "brand", "country"})};
  std::unordered_map<std::string, int64_t> counts;
  for (int r = 0; r < 33; ++r) {
    std::string item = "item" + std::to_string(r);
    for (int w = 0; w < r % 5; ++w) item += " part" + std::to_string(w);
    const std::string brand = "brand" + std::to_string(r % 7);
    const std::string country = "country" + std::to_string(r % 3);
    table.AddRow({Value::String(item), Value::String(brand),
                  Value::String(country)});
    for (const std::string& text : {item, brand, country}) {
      Tokenizer::CountTokens(text, &counts);
    }
  }
  for (const auto& name : table.schema().names()) {
    Tokenizer::CountTokens(name, &counts);
  }
  CleanerConfig config;
  config.d_model = 32;
  config.num_heads = 2;
  config.num_layers = 1;
  config.ffn_dim = 64;
  config.max_seq_len = 48;
  config.max_target_len = 6;
  const Vocab vocab = Vocab::Build(counts);
  RptCleaner source(config, vocab);
  auto store = WeightStore::Freeze(source.model());
  std::vector<std::unique_ptr<RptCleaner>> replicas;
  for (uint64_t seed : {7u, 8u}) {
    config.seed = seed;  // a different init, overwritten by the binding
    replicas.push_back(std::make_unique<RptCleaner>(config, vocab));
    ASSERT_TRUE(replicas.back()->model().BindWeights(store).ok());
  }

  std::vector<CellQuery> queries;
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    queries.push_back({table.row(r), r % 3});
  }
  const std::vector<std::string> serial =
      replicas[0]->PredictBatch(table.schema(), queries);
  ASSERT_EQ(replicas[1]->PredictBatch(table.schema(), queries), serial);
  // Distinct answers, so a row landing in the wrong slot would show.
  EXPECT_GT(std::set<std::string>(serial.begin(), serial.end()).size(), 4u);

  std::vector<std::vector<std::string>> got(replicas.size());
  std::vector<std::thread> threads;
  for (size_t r = 0; r < replicas.size(); ++r) {
    threads.emplace_back([&, r] {
      for (int round = 0; round < 3; ++round) {
        got[r] = replicas[r]->PredictBatch(table.schema(), queries);
        if (got[r] != serial) return;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t r = 0; r < replicas.size(); ++r) {
    EXPECT_EQ(got[r], serial) << "replica " << r;
  }
}

TEST(WeightStoreTest, SaveMapRoundTripIsBitwiseIdentical) {
  Rng rng(10);
  Seq2SeqTransformer source(SmallConfig(40), &rng);
  source.SetTraining(false);
  auto store = WeightStore::Freeze(source);

  const std::string path = "/tmp/rpt_test_weight_store.bin";
  ASSERT_TRUE(store->SaveToFile(path).ok());
  auto mapped = WeightStore::MapFromFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  ASSERT_EQ((*mapped)->entries().size(), store->entries().size());
  ASSERT_EQ((*mapped)->total_floats(), store->total_floats());
  for (const WeightEntry& entry : store->entries()) {
    const WeightEntry* other = (*mapped)->Find(entry.name);
    ASSERT_NE(other, nullptr) << entry.name;
    EXPECT_EQ(other->shape, entry.shape);
    EXPECT_EQ(other->offset, entry.offset);
    const float* a = store->DataFor(entry);
    const float* b = (*mapped)->DataFor(*other);
    for (size_t i = 0; i < entry.numel; ++i) {
      ASSERT_EQ(a[i], b[i]) << entry.name << "[" << i << "]";
    }
  }

  // A replica bound to the mapped store serves the same bits.
  Rng rng_rep(55);
  Seq2SeqTransformer replica(SmallConfig(40), &rng_rep);
  ASSERT_TRUE(replica.BindWeights(*mapped).ok());
  TokenBatch src = TokenBatch::Pack({{1, 2, 3}}, 0);
  TokenBatch tgt = TokenBatch::Pack({{1, 2}}, 0);
  Rng fwd_rng(1);
  NoGradGuard no_grad;
  ScopedComputeBackend scalar(ComputeBackend::kCpuScalar);
  EXPECT_EQ(source.Forward(src, tgt, &fwd_rng).ToVector(),
            replica.Forward(src, tgt, &fwd_rng).ToVector());
  std::remove(path.c_str());
}

TEST(WeightStoreTest, MapRejectsTruncatedAndCorruptFiles) {
  Rng rng(10);
  Linear lin(8, 6, &rng);
  auto store = WeightStore::Freeze(lin);
  const std::string path = "/tmp/rpt_test_weight_store_bad.bin";
  ASSERT_TRUE(store->SaveToFile(path).ok());

  // Truncate the blob mid-payload.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto full = in.tellg();
    in.close();
    std::ifstream src(path, std::ios::binary);
    std::vector<char> bytes(static_cast<size_t>(full) - 16);
    src.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::ofstream out(path + ".trunc", std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(WeightStore::MapFromFile(path + ".trunc").ok());

  // Corrupt the magic.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    const char junk[4] = {'J', 'U', 'N', 'K'};
    f.write(junk, 4);
  }
  EXPECT_FALSE(WeightStore::MapFromFile(path).ok());

  EXPECT_FALSE(WeightStore::MapFromFile("/tmp/rpt_no_such_store.bin").ok());
  std::remove(path.c_str());
  std::remove((path + ".trunc").c_str());
}

TEST(WeightStoreTest, Int8BoundLinearStaysWithinAnalyticBound) {
  // Tier-3 exactness: the int8 path's error is bounded per output channel
  // by ErrorBound(j, l1(activation row)) — the rounding half-step.
  Rng rng(42);
  Linear source(16, 12, &rng);
  // Kick weights away from init noise so scales are non-trivial.
  auto store = WeightStore::Freeze(source);

  Rng rng_rep(7);
  Linear replica(16, 12, &rng_rep);
  ASSERT_TRUE(replica.BindWeights(store, ComputeBackend::kCpuInt8).ok());
  EXPECT_TRUE(replica.uses_int8());

  const QuantizedMatrix* q = store->Quantized("weight");
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->k, 16);
  ASSERT_EQ(q->n, 12);

  Rng data_rng(3);
  Tensor x = Tensor::Randn({5, 16}, 1.0f, &data_rng);
  NoGradGuard no_grad;
  const std::vector<float> exact = source.Forward(x).ToVector();
  const std::vector<float> approx = replica.Forward(x).ToVector();
  ASSERT_EQ(exact.size(), approx.size());
  const std::vector<float> xv = x.ToVector();
  for (int64_t i = 0; i < 5; ++i) {
    float l1 = 0.0f;
    for (int64_t p = 0; p < 16; ++p) l1 += std::fabs(xv[i * 16 + p]);
    for (int64_t j = 0; j < 12; ++j) {
      const float err = std::fabs(approx[i * 12 + j] - exact[i * 12 + j]);
      // Small epsilon on top of the analytic bound for fp32 rounding in the
      // bound evaluation itself.
      EXPECT_LE(err, q->ErrorBound(j, l1) + 1e-5f)
          << "row " << i << " col " << j;
    }
  }
}

TEST(WeightStoreTest, Int8ReplicasShareOneQuantizedCopy) {
  Rng rng(42);
  Linear source(16, 12, &rng);
  auto store = WeightStore::Freeze(source);
  // Quantized() is computed once and cached: same pointer on every call,
  // so every int8 replica of a route shares one quantized matrix.
  const QuantizedMatrix* q1 = store->Quantized("weight");
  const QuantizedMatrix* q2 = store->Quantized("weight");
  ASSERT_NE(q1, nullptr);
  EXPECT_EQ(q1, q2);
  // Non-2D and unknown names are refused, not crashed on.
  EXPECT_EQ(store->Quantized("bias"), nullptr);
  EXPECT_EQ(store->Quantized("no_such_param"), nullptr);
}

TEST(WeightStoreTest, BindRejectsMissingEntryAndShapeMismatch) {
  Rng rng(1);
  Linear small(4, 3, &rng);
  auto store = WeightStore::Freeze(small);

  Rng rng2(2);
  Linear wrong_shape(5, 3, &rng2);
  Status s = wrong_shape.BindWeights(store);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  Rng rng3(3);
  Seq2SeqTransformer missing(SmallConfig(20), &rng3);
  s = missing.BindWeights(store);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(WeightStoreTest, LoadStateRefusesBoundModule) {
  // The blob is shared and possibly mmap'd read-only: loading a checkpoint
  // into a bound replica must be refused, not silently corrupt neighbors.
  Rng rng(10);
  Linear source(8, 6, &rng);
  const std::string path = "/tmp/rpt_test_bound_load.bin";
  ASSERT_TRUE(SaveCheckpoint(source, path).ok());

  auto store = WeightStore::Freeze(source);
  Rng rng2(11);
  Linear bound(8, 6, &rng2);
  ASSERT_TRUE(bound.BindWeights(store).ok());
  Status s = LoadCheckpoint(&bound, path);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  std::remove(path.c_str());
}

TEST(WeightStoreTest, ViewsCannotRequireGrad) {
  Rng rng(10);
  Linear source(8, 6, &rng);
  auto store = WeightStore::Freeze(source);
  Rng rng2(11);
  Linear bound(8, 6, &rng2);
  ASSERT_TRUE(bound.BindWeights(store).ok());
  for (const Tensor& p : bound.Parameters()) {
    EXPECT_FALSE(p.requires_grad());
  }
  Tensor view = bound.Parameters()[0];
  EXPECT_DEATH(view.set_requires_grad(true), "view");
}

TEST(WeightStoreTest, StoreOutlivesItsLastReplicaHandle) {
  // The keepalive contract: dropping the caller's store reference must not
  // invalidate bound replicas — the views hold the blob alive.
  Rng rng(10);
  Linear source(8, 6, &rng);
  source.SetTraining(false);
  Rng data_rng(3);
  Tensor x = Tensor::Randn({2, 8}, 1.0f, &data_rng);
  NoGradGuard no_grad;
  const std::vector<float> expected = source.Forward(x).ToVector();

  Rng rng2(11);
  Linear bound(8, 6, &rng2);
  {
    auto store = WeightStore::Freeze(source);
    ASSERT_TRUE(bound.BindWeights(store).ok());
  }  // last external store reference gone
  EXPECT_EQ(bound.Forward(x).ToVector(), expected);
}

}  // namespace
}  // namespace rpt
