/// Model-store benchmark (not a paper table): the accuracy-vs-size trade of
/// the edge-model.v1 embedding precisions.
///
/// Writes BENCH_model_store.json: Acc@161km / mean error / checkpoint bytes
/// for fp64, fp32, fp16 and int8 embeddings on a trained NYMA world, plus
/// the regression budget CI enforces (int8 may cost at most
/// `int8_budget_acc161_points` Acc@161 points vs fp64).

#include <cstdio>
#include <string>
#include <vector>

#include "edge/common/check.h"
#include "edge/core/edge_model.h"
#include "edge/core/model_store.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/eval/metrics.h"

namespace {

using namespace edge;

struct AccuracyRow {
  std::string precision;
  size_t bytes;
  double acc161;
  double mean_km;
};

}  // namespace

int main() {
  // Accuracy-vs-size sweep on a trained world: quantization error must stay
  // inside the CI budget.
  std::fprintf(stderr, "training the accuracy world...\n");
  data::WorldPresetOptions world_options;
  world_options.num_fine_pois = 12;
  world_options.num_coarse_areas = 2;
  world_options.num_chains = 2;
  world_options.num_topics = 6;
  data::TweetGenerator generator(data::MakeNymaWorld(world_options));
  data::Dataset dataset = generator.Generate(900);
  data::Pipeline pipeline(generator.BuildGazetteer());
  data::ProcessedDataset processed = pipeline.Process(dataset);
  core::EdgeConfig config;
  config.auto_dim = false;
  config.embedding_dim = 16;
  config.gcn_hidden = {16};
  config.epochs = 8;
  config.batch_size = 128;
  config.entity2vec.epochs = 2;
  core::EdgeModel trained(config);
  trained.Fit(processed);

  std::vector<AccuracyRow> accuracy;
  for (core::EmbedPrecision precision :
       {core::EmbedPrecision::kFp64, core::EmbedPrecision::kFp32,
        core::EmbedPrecision::kFp16, core::EmbedPrecision::kInt8}) {
    std::string bytes;
    EDGE_CHECK(core::SerializeModelStore(trained, precision, &bytes).ok());
    AccuracyRow row;
    row.precision = core::EmbedPrecisionName(precision);
    row.bytes = bytes.size();
    auto store = core::MmapModelStore::FromBytes(std::move(bytes),
                                                 core::StoreVerify::kFull);
    EDGE_CHECK(store.ok()) << store.status().ToString();
    auto model = core::EdgeModel::LoadFromStore(std::move(store).value());
    EDGE_CHECK(model.ok()) << model.status().ToString();
    size_t abstained = 0;
    std::vector<double> errors =
        eval::PredictionErrorsKm(model.value().get(), processed, &abstained);
    row.acc161 = eval::RdpSweep(errors, abstained, {161.0})[0];
    row.mean_km =
        eval::SummarizeErrors(row.precision, std::move(errors), abstained).mean_km;
    accuracy.push_back(row);
    std::fprintf(stderr, "  %s: %zu bytes, Acc@161 %.4f, mean %.2f km\n",
                 row.precision.c_str(), row.bytes, row.acc161, row.mean_km);
  }

  std::FILE* out = std::fopen("BENCH_model_store.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_model_store.json for writing\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"int8_budget_acc161_points\": 0.5,\n");
  std::fprintf(out, "  \"accuracy\": [\n");
  for (size_t i = 0; i < accuracy.size(); ++i) {
    const AccuracyRow& r = accuracy[i];
    std::fprintf(out,
                 "    {\"precision\": \"%s\", \"bytes\": %zu, "
                 "\"acc_at_161km\": %.6f, \"mean_km\": %.4f}%s\n",
                 r.precision.c_str(), r.bytes, r.acc161, r.mean_km,
                 i + 1 == accuracy.size() ? "" : ",");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote BENCH_model_store.json\n");
  return 0;
}
