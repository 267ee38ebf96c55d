// Data generation, training and WeightStore freeze/map/bind.
//
// The product universe, the training data, the vocabulary and the model
// seed are fixed, so every run trains the same model; the workload seed
// drives the served traffic (held-out renderings, which cells are masked,
// arrivals, the dirty table). Runs on different seeds then serve the same
// model on statistically alike traffic, and a second seed is a held-out
// check of the first. answer_quality is measured on fixed held-out data,
// so it is the same on every seed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "bench.h"
#include "eval/metrics.h"
#include "util/rng.h"
#include "rpt/vocab_builder.h"
#include "synth/universe.h"

namespace e2e {

namespace {

constexpr uint64_t kWorldSeed = 2021;
// The catalog size and the number of renderings per held-out product bound
// the distinct tuples the cleaning workloads can draw from.
constexpr int64_t kUniverseSize = 400;
constexpr int kHeldoutRenderings = 30;
const std::vector<std::string> kCleanColumns = {"title", "manufacturer",
                                                "price"};
// Masked cells of the fixed held-out rendering that clean answer_quality is
// measured on, and the batch size of the quality calls.
constexpr size_t kQualityCells = 1024;
constexpr size_t kQualityBatch = 32;

void Require(const rpt::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "e2e_bench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

std::shared_ptr<const rpt::WeightStore> FreezeSaveMap(
    const rpt::Module& module, const std::string& path) {
  auto frozen = rpt::WeightStore::Freeze(module);
  Require(frozen->SaveToFile(path), "WeightStore::SaveToFile");
  auto mapped = rpt::WeightStore::MapFromFile(path);
  Require(mapped.status(), "WeightStore::MapFromFile");
  return *mapped;
}

// Distinct renderings of the held-out products with no typos, price jitter
// or missing cells, so every cell is a ground truth.
rpt::Table RenderHeldout(const rpt::ProductUniverse& universe,
                         const std::vector<int64_t>& test_ids,
                         uint64_t seed) {
  rpt::RenderProfile clean;
  clean.typo_prob = 0.0;
  clean.price_jitter_prob = 0.0;
  clean.missing_prob = 0.0;
  std::vector<int64_t> ids;
  for (int k = 0; k < kHeldoutRenderings; ++k) {
    ids.insert(ids.end(), test_ids.begin(), test_ids.end());
  }
  rpt::Table rendered =
      rpt::GenerateCleaningTable(universe, ids, kCleanColumns, clean, seed);
  rpt::Table out{rendered.schema()};
  std::set<std::string> seen;
  for (int64_t r = 0; r < rendered.NumRows(); ++r) {
    std::string key;
    for (const auto& v : rendered.row(r)) key += v.text() + "\x1f";
    if (seen.insert(key).second) out.AddRow(rendered.row(r));
  }
  return out;
}

}  // namespace

rpt::Tuple AsServed(const rpt::Tuple& tuple) {
  rpt::Tuple out;
  for (const auto& v : tuple) out.push_back(rpt::Value::Parse(v.text()));
  return out;
}

rpt::ServerConfig RouteConfig() {
  rpt::ServerConfig config;
  config.max_batch_size = 32;
  config.queue_capacity = 1024;
  config.cache_capacity = 1024;
  return config;  // exactness stays kStrict, batching kFixed
}

CleanData GenerateCleanData(uint64_t seed) {
  rpt::ProductUniverse universe(kUniverseSize, kWorldSeed);
  std::vector<int64_t> train_ids, test_ids;
  rpt::SplitProducts(kUniverseSize, /*test_fraction=*/0.35,
                     /*overlap_fraction=*/0.7, kWorldSeed, &train_ids,
                     &test_ids);
  CleanData data;
  // Two training catalogs with different alias noise, as in Table 1.
  rpt::RenderProfile brand_noisy;
  brand_noisy.missing_prob = 0.02;
  brand_noisy.brand_alias_prob = 0.5;
  rpt::RenderProfile model_noisy;
  model_noisy.missing_prob = 0.02;
  model_noisy.model_alias_prob = 0.5;
  data.train = rpt::GenerateCleaningTable(universe, train_ids, kCleanColumns,
                                          brand_noisy, kWorldSeed + 1);
  rpt::Table second = rpt::GenerateCleaningTable(
      universe, train_ids, kCleanColumns, model_noisy, kWorldSeed + 2);
  for (int64_t r = 0; r < second.NumRows(); ++r) {
    data.train.AddRow(second.row(r));
  }
  // The vocabulary covers the training catalogs and one fixed rendering of
  // the held-out products, so it does not depend on the workload seed.
  data.catalog = RenderHeldout(universe, test_ids, kWorldSeed + 3);
  data.heldout = RenderHeldout(universe, test_ids, 1000003 * seed + 17);
  return data;
}

rpt::CleanerConfig CleanerModelConfig() {
  rpt::CleanerConfig config;  // d_model 64, 4 heads, 2+2 layers, ffn 128
  config.dropout = 0.0f;
  config.batch_size = 16;
  config.learning_rate = 2e-3f;
  config.masking = rpt::MaskingStrategy::kValueMasking;
  config.seed = kWorldSeed;
  return config;
}

MatchProbe BuildMatchProbe() {
  rpt::ProductUniverse universe(kUniverseSize, kWorldSeed);
  // Walmart-Amazon (D3): five attributes per side, so pair sequences are
  // several times longer than a cleaning query.
  rpt::BenchmarkSpec spec = rpt::DefaultBenchmarkSuite(0.5)[2];
  spec.seed = kWorldSeed + 4;
  MatchProbe probe;
  probe.bench = rpt::GenerateErBenchmark(universe, spec);
  rpt::MatcherConfig config;  // d_model 64, 4 heads, 2 layers, ffn 128
  config.dropout = 0.0f;
  config.seed = kWorldSeed;
  probe.matcher = std::make_unique<rpt::RptMatcher>(
      config, rpt::BuildVocabFromBenchmarks({&probe.bench}));
  return probe;
}

CleanerModels BuildCleaner(const CleanData& data, const std::string& workdir,
                           SetupTimes* times) {
  Clock::time_point t0 = Clock::now();
  const rpt::CleanerConfig config = CleanerModelConfig();
  rpt::Vocab vocab = rpt::BuildVocabFromTables({&data.train, &data.catalog});
  rpt::RptCleaner trained(config, vocab);
  trained.PretrainOnTables({&data.train}, kCleanerTrainSteps);
  times->train_s = SecondsSince(t0);

  t0 = Clock::now();
  CleanerModels models;
  models.store = FreezeSaveMap(trained.model(), workdir + "/cleaner.rptw");
  models.served = std::make_unique<rpt::RptCleaner>(config, vocab);
  models.checker = std::make_unique<rpt::RptCleaner>(config, vocab);
  Require(models.served->model().BindWeights(models.store), "BindWeights");
  Require(models.checker->model().BindWeights(models.store), "BindWeights");
  times->weights_s = SecondsSince(t0);
  return models;
}

double CleanQuality(const rpt::RptCleaner& checker, const CleanData& data) {
  const rpt::Table& table = data.catalog;
  std::vector<std::pair<int64_t, int64_t>> cells;
  for (int64_t r = 0; r < table.NumRows(); ++r) {
    for (int64_t c = 0; c < table.schema().size(); ++c) cells.push_back({r, c});
  }
  rpt::Rng rng(kWorldSeed + 6);
  rng.Shuffle(&cells);
  if (cells.size() > kQualityCells) cells.resize(kQualityCells);
  double exact = 0;
  for (size_t begin = 0; begin < cells.size(); begin += kQualityBatch) {
    const size_t end = std::min(cells.size(), begin + kQualityBatch);
    std::vector<rpt::CellQuery> queries;
    std::vector<std::string> truth;
    for (size_t i = begin; i < end; ++i) {
      const auto [r, c] = cells[i];
      rpt::CellQuery q{AsServed(table.row(r)), c};
      truth.push_back(q.tuple[static_cast<size_t>(c)].text());
      q.tuple[static_cast<size_t>(c)] = rpt::Value::Null();
      queries.push_back(std::move(q));
    }
    const auto repairs = checker.PredictBatch(table.schema(), queries);
    for (size_t i = 0; i < repairs.size(); ++i) {
      exact += rpt::NormalizedExactMatch(repairs[i], truth[i]);
    }
  }
  return cells.empty() ? 0 : exact / static_cast<double>(cells.size());
}

}  // namespace e2e
