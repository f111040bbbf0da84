/// Quickstart: the minimal end-to-end EDGE workflow.
///
///  1. Simulate a tweet corpus (stand-in for a Twitter crawl; see DESIGN.md).
///  2. Preprocess: tweet NER + tokenization + chronological 75/25 split.
///  3. Train EDGE (entity2vec -> GCN diffusion -> attention -> Gaussian
///     mixture head, end-to-end).
///  4. Predict one held-out tweet: full mixture, per-entity attention and
///     the Eq. 14 point estimate.
///  5. Save the trained model and reload it for inference.
///
/// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>
#include <filesystem>

#include "edge/core/edge_model.h"
#include "edge/core/model_store.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/eval/metrics.h"

int main() {
  using namespace edge;

  // 1. A small New York world: ~50 venues, a handful of boroughs and topics.
  data::WorldPresetOptions world_options;
  world_options.num_fine_pois = 50;
  world_options.num_topics = 25;
  data::TweetGenerator generator(data::MakeNymaWorld(world_options));
  data::Dataset raw = generator.Generate(4000);
  std::printf("generated %zu tweets, e.g.:\n  \"%s\"\n\n", raw.tweets.size(),
              raw.tweets[0].text.c_str());

  // 2. NER + tokenization + split. The gazetteer plays the role of the
  //    Ritter tweet NER's knowledge (DESIGN.md section 1).
  data::Pipeline pipeline(generator.BuildGazetteer());
  data::ProcessedDataset dataset = pipeline.Process(raw);
  std::printf("train %zu / test %zu tweets, %zu distinct training entities\n\n",
              dataset.train.size(), dataset.test.size(),
              dataset.stats.train_distinct_entities);

  // 3. Train EDGE. Defaults follow the paper (M = 4 components, two GCN
  //    layers, Adam lr = 0.01, weight decay = 0.01).
  core::EdgeConfig config;
  config.embedding_dim = 48;
  config.gcn_hidden = {48, 48};
  core::EdgeModel model(config);
  model.Fit(dataset);
  std::printf("trained: NLL %.3f -> %.3f over %zu epochs\n\n",
              model.loss_history().front(), model.loss_history().back(),
              model.loss_history().size());

  // 4. Predict one held-out tweet.
  const data::ProcessedTweet& tweet = dataset.test[0];
  core::EdgePrediction prediction = model.Predict(tweet);
  std::printf("tweet: \"%s\"\n", tweet.text.c_str());
  std::printf("true location:      (%.4f, %.4f)\n", tweet.location.lat,
              tweet.location.lon);
  std::printf("predicted location: (%.4f, %.4f)  [%.2f km off]\n\n",
              prediction.point.lat, prediction.point.lon,
              geo::HaversineKm(tweet.location, prediction.point));
  std::printf("attention over entities (interpretability):\n");
  for (const core::EntityAttention& a : prediction.attention) {
    std::printf("  %-24s %.3f\n", a.entity.c_str(), a.weight);
  }
  std::printf("mixture components:\n");
  for (size_t m = 0; m < prediction.mixture.num_components(); ++m) {
    const geo::Gaussian2d& g = prediction.mixture.component(m);
    geo::LatLon center = model.projection().ToLatLon(g.mean());
    std::printf("  pi=%.3f center=(%.4f, %.4f) sigma=(%.2f, %.2f) km\n",
                prediction.mixture.weight(m), center.lat, center.lon, g.sigma_x(),
                g.sigma_y());
  }

  // 5. Save as an edge-model.v1 store for inference elsewhere, and reload.
  std::string path =
      (std::filesystem::temp_directory_path() / "edge_quickstart.edge").string();
  Status status = core::SaveModelStoreAtomic(model, core::EmbedPrecision::kFp64, path);
  EDGE_CHECK(status.ok()) << status.ToString();
  auto restored = core::LoadModelStore(path);
  EDGE_CHECK(restored.ok()) << restored.status().ToString();
  std::filesystem::remove(path);
  core::EdgePrediction again = restored.value()->Predict(tweet);
  std::printf("\nreloaded model agrees: (%.4f, %.4f)\n", again.point.lat,
              again.point.lon);

  // Bonus: overall test metrics.
  eval::MetricResults results = eval::EvaluateGeolocator(&model, dataset);
  std::printf("\ntest metrics: mean %.2f km, median %.2f km, @3km %.3f, @5km %.3f\n",
              results.mean_km, results.median_km, results.at_3km, results.at_5km);
  return 0;
}
