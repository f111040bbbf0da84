/// edge_cli — command-line front end for the EDGE library.
///
/// Subcommands:
///   simulate  --world nyma|lama|ny2020 [--tweets N] [--covid-filter]
///             [--out tweets.tsv]
///       Generate a synthetic tweet stream and write it as TSV.
///   train     --tweets tweets.tsv --gazetteer gaz.tsv --model model.edge
///             [--epochs N] [--components M] [--threads N]
///             [--checkpoint-dir d/] [--checkpoint-every K] [--max-run-epochs N]
///       Preprocess (NER + split), train EDGE, report test metrics, save the
///       inference model as an fp64 edge-model.v1 store (written, read back
///       and byte-compared). With --checkpoint-dir, training state is saved
///       crash-safely every K epochs and an interrupted run resumes exactly
///       (bitwise loss history) on restart; SIGINT/SIGTERM finish the current
///       epoch, write a final checkpoint and exit 0 (DESIGN.md §12).
///   predict   --model model.edge --gazetteer gaz.tsv --text "..."
///       Load a saved edge-model.v1 store, run the NER on the text and print
///       the predicted mixture, attention weights and Eq. 14 point estimate.
///   convert   --in a --out b [--precision fp64|fp32|fp16|int8]
///       Re-encode a store at --precision (default fp64). At fp64 the tool
///       re-reads the written store and verifies it re-serializes to the
///       same bytes.
///
/// Observability flags (any subcommand):
///   --log-level trace|debug|info|warn|error|off   structured-log threshold
///                                                 (default: EDGE_LOG_LEVEL or info)
///   --metrics-out metrics.json   write a metrics-registry snapshot at exit
///   --trace-out trace.json       record spans; write Chrome trace JSON at exit
///                                (open at chrome://tracing or ui.perfetto.dev)
///
/// Gazetteer TSV: canonical<TAB>category<TAB>surface (see edge/data/io.h).
/// For simulated worlds, `simulate` also writes `<out>.gazetteer.tsv`.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "edge/core/edge_model.h"
#include "edge/core/model_store.h"
#include "edge/data/generator.h"
#include "edge/data/io.h"
#include "edge/data/pipeline.h"
#include "edge/data/worlds.h"
#include "edge/eval/metrics.h"
#include "edge/obs/log.h"
#include "edge/obs/metrics.h"
#include "edge/obs/trace.h"
#include "tool_args.h"

namespace {

using namespace edge;
using tools::Args;
using tools::FlushObservability;
using tools::LoadGazetteer;
using tools::SetupObservability;

/// SIGINT/SIGTERM during `train`: Fit() checks this flag after each epoch,
/// writes a final checkpoint and returns; the tool then exits 0.
std::atomic<bool> g_train_stop{false};

void HandleTrainStop(int) { g_train_stop.store(true, std::memory_order_relaxed); }

void InstallTrainSignalHandlers() {
#ifndef _WIN32
  struct sigaction action = {};
  action.sa_handler = HandleTrainStop;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
#else
  std::signal(SIGINT, HandleTrainStop);
  std::signal(SIGTERM, HandleTrainStop);
#endif
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  edge_cli simulate --world nyma|lama|ny2020 [--tweets N]\n"
               "                    [--covid-filter true] [--out tweets.tsv]\n"
               "  edge_cli train    --tweets t.tsv --gazetteer g.tsv --model m.edge\n"
               "                    [--epochs N] [--components M] [--threads N]\n"
               "                    [--checkpoint-dir d/] [--checkpoint-every K]\n"
               "                    [--max-run-epochs N]\n"
               "  edge_cli predict  --model m.edge --gazetteer g.tsv --text \"...\"\n"
               "  edge_cli convert  --in m.edge --out m2.edge\n"
               "                    [--precision fp64|fp32|fp16|int8]\n"
               "observability (any subcommand):\n"
               "  --log-level trace|debug|info|warn|error|off\n"
               "  --metrics-out metrics.json    --trace-out trace.json\n"
               "  --metrics-export live.json    periodic registry snapshot while\n"
               "                                training (atomic tmp+rename)\n"
               "  --metrics-export-every S      export period, default 10 s\n"
               "                                (env EDGE_METRICS_EXPORT_EVERY wins)\n");
  return 2;
}

/// Writes the generator's gazetteer in the io.h TSV format.
bool WriteWorldGazetteer(const data::WorldConfig& world, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << "# canonical\tcategory\tsurface\n";
  auto canonical_of = [](const std::string& name) { return data::CanonicalName(name); };
  for (const data::PoiSpec& poi : world.pois) {
    std::string canonical = canonical_of(poi.name);
    out << canonical << "\t" << text::EntityCategoryName(poi.category) << "\t"
        << poi.name << "\n";
    for (const std::string& alias : poi.aliases) {
      std::string bare = (alias[0] == '#' || alias[0] == '@') ? alias.substr(1) : alias;
      out << canonical << "\t" << text::EntityCategoryName(poi.category) << "\t" << bare
          << "\n";
    }
  }
  for (const data::TopicSpec& topic : world.topics) {
    std::string bare = (topic.name[0] == '#' || topic.name[0] == '@')
                           ? topic.name.substr(1)
                           : topic.name;
    out << canonical_of(topic.name) << "\t" << text::EntityCategoryName(topic.category)
        << "\t" << bare << "\n";
  }
  return out.good();
}

int RunSimulate(const Args& args) {
  std::string world_name = args.Get("world", "nyma");
  data::WorldConfig world;
  if (world_name == "nyma") {
    world = data::MakeNymaWorld();
  } else if (world_name == "lama") {
    world = data::MakeLamaWorld();
  } else if (world_name == "ny2020") {
    world = data::MakeNy2020World();
  } else {
    std::fprintf(stderr, "unknown world '%s'\n", world_name.c_str());
    return 2;
  }
  size_t tweets = static_cast<size_t>(args.GetInt("tweets", 8000));
  std::string out_path = args.Get("out", "tweets.tsv");
  if (!args.ok()) return Usage();

  data::TweetGenerator generator(world);
  data::Dataset dataset = args.Has("covid-filter")
                              ? generator.GenerateWithKeywords(tweets,
                                                               data::CovidKeywords())
                              : generator.Generate(tweets);
  std::ofstream out(out_path);
  Status status = WriteTweetsTsv(dataset, &out);
  if (!status.ok()) {
    std::fprintf(stderr, "write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::string gaz_path = out_path + ".gazetteer.tsv";
  if (!WriteWorldGazetteer(generator.config(), gaz_path)) {
    std::fprintf(stderr, "gazetteer write failed: %s\n", gaz_path.c_str());
    return 1;
  }
  std::printf("wrote %zu tweets to %s and the entity dictionary to %s\n",
              dataset.tweets.size(), out_path.c_str(), gaz_path.c_str());
  return 0;
}

int RunTrain(const Args& args) {
  std::string tweets_path = args.Get("tweets");
  std::string gaz_path = args.Get("gazetteer");
  std::string model_path = args.Get("model");
  if (tweets_path.empty() || gaz_path.empty() || model_path.empty()) return Usage();

  std::ifstream tweets_in(tweets_path);
  if (!tweets_in.good()) {
    std::fprintf(stderr, "cannot open %s\n", tweets_path.c_str());
    return 1;
  }
  Result<data::Dataset> dataset = data::ReadTweetsTsv(&tweets_in);
  if (!dataset.ok()) {
    std::fprintf(stderr, "bad tweets file: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Result<text::Gazetteer> gazetteer = LoadGazetteer(gaz_path);
  if (!gazetteer.ok()) {
    std::fprintf(stderr, "bad gazetteer: %s\n", gazetteer.status().ToString().c_str());
    return 1;
  }

  data::Pipeline pipeline(gazetteer.value());
  data::ProcessedDataset processed = pipeline.Process(dataset.value());
  std::printf("train %zu / test %zu tweets, %zu entities\n", processed.train.size(),
              processed.test.size(), processed.stats.train_distinct_entities);

  core::EdgeConfig config;
  config.epochs = static_cast<int>(args.GetInt("epochs", config.epochs));
  config.num_components = static_cast<size_t>(
      args.GetInt("components", static_cast<long>(config.num_components)));
  config.num_threads = static_cast<int>(args.GetInt("threads", config.num_threads));
  config.recovery.checkpoint_dir = args.Get("checkpoint-dir");
  if (!config.recovery.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.recovery.checkpoint_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --checkpoint-dir %s: %s\n",
                   config.recovery.checkpoint_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }
  config.recovery.checkpoint_every = static_cast<int>(
      args.GetInt("checkpoint-every", config.recovery.checkpoint_every));
  config.recovery.max_epochs_per_run = static_cast<int>(
      args.GetInt("max-run-epochs", config.recovery.max_epochs_per_run));
  config.recovery.stop_flag = &g_train_stop;
  if (!args.ok()) return Usage();

  InstallTrainSignalHandlers();
  // Live registry exports let an operator watch a long Fit() from outside the
  // process (epoch NLL series, windowed throughput) without waiting for the
  // end-of-run --metrics-out snapshot.
  std::unique_ptr<obs::MetricsExporter> exporter = tools::MakeMetricsExporter(args);
  if (args.Has("metrics-export") && exporter == nullptr) return Usage();
  core::EdgeModel model(config);
  model.Fit(processed);
  if (g_train_stop.load(std::memory_order_relaxed)) {
    std::printf("training interrupted by signal; state checkpointed%s\n",
                config.recovery.checkpoint_dir.empty()
                    ? " (no --checkpoint-dir: progress not persisted)"
                    : "");
  }

  // End-of-run training summary, read back from the metrics registry (the
  // same numbers a --metrics-out snapshot would carry).
  obs::Registry& registry = obs::Registry::Global();
  std::vector<double> nll = registry.GetSeries("edge.core.epoch_nll")->values();
  if (!nll.empty()) {
    std::printf("training summary: %zu epochs, NLL %.4f -> %.4f, wall %.1fs\n",
                nll.size(), nll.front(), nll.back(),
                registry.GetGauge("edge.core.fit_seconds")->value());
  }

  eval::MetricResults metrics = eval::EvaluateGeolocator(&model, processed);
  std::printf("test metrics: mean %.2f km, median %.2f km, @3km %.4f, @5km %.4f\n",
              metrics.mean_km, metrics.median_km, metrics.at_3km, metrics.at_5km);

  Status status = core::SaveModelStoreAtomic(model, core::EmbedPrecision::kFp64, model_path);
  if (!status.ok()) {
    std::fprintf(stderr, "model save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("saved inference model to %s\n", model_path.c_str());
  return 0;
}

int RunPredict(const Args& args) {
  std::string model_path = args.Get("model");
  std::string gaz_path = args.Get("gazetteer");
  std::string tweet_text = args.Get("text");
  if (model_path.empty() || gaz_path.empty() || tweet_text.empty()) return Usage();

  auto model = core::LoadModelStore(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "bad model: %s\n", model.status().ToString().c_str());
    return 1;
  }
  Result<text::Gazetteer> gazetteer = LoadGazetteer(gaz_path);
  if (!gazetteer.ok()) {
    std::fprintf(stderr, "bad gazetteer: %s\n", gazetteer.status().ToString().c_str());
    return 1;
  }

  text::TweetNer ner(gazetteer.value());
  data::ProcessedTweet tweet;
  tweet.text = tweet_text;
  tweet.entities = ner.Extract(tweet_text);
  std::printf("entities:");
  for (const text::Entity& e : tweet.entities) {
    std::printf(" %s(%s)", e.name.c_str(), text::EntityCategoryName(e.category));
  }
  std::printf("\n");

  core::EdgePrediction prediction = model.value()->Predict(tweet);
  if (prediction.used_fallback) {
    std::printf("note: no known entity; answering the training-set prior\n");
  }
  for (const core::EntityAttention& a : prediction.attention) {
    std::printf("attention %-24s %.4f\n", a.entity.c_str(), a.weight);
  }
  const geo::LocalProjection& proj = model.value()->projection();
  for (size_t m = 0; m < prediction.mixture.num_components(); ++m) {
    const geo::Gaussian2d& g = prediction.mixture.component(m);
    geo::LatLon center = proj.ToLatLon(g.mean());
    std::printf("component %zu: pi=%.4f center=(%.5f, %.5f) sigma=(%.2f, %.2f) km "
                "rho=%.3f\n",
                m, prediction.mixture.weight(m), center.lat, center.lon, g.sigma_x(),
                g.sigma_y(), g.rho());
  }
  std::printf("point estimate: (%.5f, %.5f)\n", prediction.point.lat,
              prediction.point.lon);
  return 0;
}

int RunConvert(const Args& args) {
  std::string in_path = args.Get("in");
  std::string out_path = args.Get("out");
  std::string precision_name = args.Get("precision", "fp64");
  if (in_path.empty() || out_path.empty() || !args.ok()) return Usage();
  core::EmbedPrecision precision;
  if (!core::ParseEmbedPrecision(precision_name, &precision)) {
    std::fprintf(stderr, "unknown --precision '%s' (fp64|fp32|fp16|int8)\n",
                 precision_name.c_str());
    return 2;
  }

  auto model = core::LoadModelStore(in_path);
  if (!model.ok()) {
    std::fprintf(stderr, "bad checkpoint %s: %s\n", in_path.c_str(),
                 model.status().ToString().c_str());
    return 1;
  }
  Status status = core::SaveModelStoreAtomic(*model.value(), precision, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "store write failed: %s\n", status.ToString().c_str());
    return 1;
  }
  if (precision == core::EmbedPrecision::kFp64) {
    // Full precision must be lossless: the written store, re-opened, must
    // serialize to exactly the bytes the input model serializes to.
    std::string want, got;
    auto reread = core::LoadModelStore(out_path);
    status = reread.ok() ? core::SerializeModelStore(*reread.value(), precision, &got)
                         : reread.status();
    if (status.ok()) status = core::SerializeModelStore(*model.value(), precision, &want);
    if (!status.ok() || want != got) {
      std::fprintf(stderr, "round-trip verification FAILED for %s\n", out_path.c_str());
      return 1;
    }
    std::printf("round-trip verified: %s re-serializes to the same bytes\n",
                out_path.c_str());
  }
  std::printf("converted %s (%s) -> %s store %s (%zu entities)\n", in_path.c_str(),
              core::EmbedPrecisionName(model.value()->store()->precision()),
              core::EmbedPrecisionName(precision), out_path.c_str(),
              model.value()->num_entities());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args(argc, argv, 2);
  if (!args.ok()) return Usage();
  if (!SetupObservability(args)) return 2;
  std::string command = argv[1];
  int rc = 2;
  if (command == "simulate") {
    rc = RunSimulate(args);
  } else if (command == "train") {
    rc = RunTrain(args);
  } else if (command == "predict") {
    rc = RunPredict(args);
  } else if (command == "convert") {
    rc = RunConvert(args);
  } else {
    return Usage();
  }
  FlushObservability(args);
  return rc;
}
