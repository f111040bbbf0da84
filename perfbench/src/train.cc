// The `train` workload: EdgeModel::Fit on the seeded 4,000-tweet NYMA world,
// then every test-split tweet answered in-process (NER, Predict, render with
// the program's codec), checked and scored. No service, network or router.

#include <sys/resource.h>
#include <time.h>

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "edge/common/thread_pool.h"
#include "edge/core/edge_model.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/nn/matrix.h"
#include "edge/obs/trace.h"
#include "edge/serve/geo_service.h"
#include "edge/text/ner.h"
#include "edge/serve/json_codec.h"
#include "report.h"

namespace perfbench {

namespace {

constexpr size_t kWorldTweets = 4000;
/// The default budget: at 2 threads Fit's wall time spread by 25-42% of its
/// median between runs of identical code on this machine (see README).
constexpr int kFitThreads = 1;
constexpr int kSetupRepeats = 3;

/// CPU time of the calling thread, in microseconds.
double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// Total seconds of spans named `name`.
double SpanSeconds(const std::vector<edge::obs::TraceEvent>& events, const char* name) {
  double us = 0.0;
  for (const auto& e : events) {
    if (std::string_view(e.name) == name) us += static_cast<double>(e.duration_us);
  }
  return us / 1e6;
}

/// Seconds of `child` spans nested inside `parent` spans on the same thread.
double NestedSeconds(const std::vector<edge::obs::TraceEvent>& events, const char* parent,
                     const char* child) {
  std::map<int, std::vector<std::pair<uint64_t, uint64_t>>> parents;
  for (const auto& e : events) {
    if (std::string_view(e.name) == parent) {
      parents[e.thread_id].push_back({e.start_us, e.start_us + e.duration_us});
    }
  }
  double us = 0.0;
  for (const auto& e : events) {
    if (std::string_view(e.name) != child) continue;
    for (const auto& [begin, end] : parents[e.thread_id]) {
      if (e.start_us >= begin && e.start_us + e.duration_us <= end) {
        us += static_cast<double>(e.duration_us);
        break;
      }
    }
  }
  return us / 1e6;
}

/// Median milliseconds of `fn` over `repeats` calls.
template <typename Fn>
double MedianMs(int repeats, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(Ms(t0, Clock::now()));
  }
  return Median(ms);
}

/// The GCN's two kernels at the model's real shapes, at 1 and 2 threads,
/// with their computed work: X W (|V| x d by d x d) and S H (CSR |V| x |V|).
void MeasureKernels(const edge::core::EdgeModel& model, Report* report) {
  edge::nn::CsrMatrix adjacency = model.entity_graph().NormalizedAdjacency();
  size_t n = adjacency.rows();
  size_t d = model.config().embedding_dim;
  edge::nn::Matrix h(n, d);
  edge::nn::Matrix w(d, d);
  for (size_t i = 0; i < n * d; ++i) h.data()[i] = static_cast<double>(i % 17) / 17.0;
  for (size_t i = 0; i < d * d; ++i) w.data()[i] = static_cast<double>(i % 13) / 13.0;
  for (int threads : {1, 2}) {
    edge::ScopedNumThreads scoped(threads);
    std::string suffix = ".t" + std::to_string(threads);
    report->Set("nn.gemm_ms" + suffix, MedianMs(200, [&] { edge::nn::MatMul(h, w); }), "ms");
    report->Set("nn.spmm_ms" + suffix, MedianMs(200, [&] { adjacency.Multiply(h); }), "ms");
  }
  double nd = static_cast<double>(n * d);
  report->Set("nn.gemm_mflop", 2.0 * nd * static_cast<double>(d) / 1e6, "Mflop");
  report->Set("nn.gemm_mbyte", 8.0 * (2.0 * nd + static_cast<double>(d * d)) / 1e6, "MB");
  double nnz = static_cast<double>(adjacency.nnz());
  report->Set("nn.spmm_mflop", 2.0 * nnz * static_cast<double>(d) / 1e6, "Mflop");
  report->Set("nn.spmm_mbyte",
              (nnz * (8.0 + sizeof(size_t)) + 8.0 * 2.0 * nd) / 1e6, "MB");
}

}  // namespace

int RunTrain(const Options& options, Report* report) {
  edge::data::WorldConfig world = MakeWorld(options.seed);
  std::string gaz_path = options.run_dir + "/gazetteer.tsv";
  if (!WriteGazetteerTsv(world, gaz_path)) throw std::runtime_error("gazetteer write");
  edge::text::Gazetteer gazetteer = LoadGazetteer(gaz_path);

  // --- Set-up: generate the world and run the NER pipeline, three times. ---
  std::vector<double> setup_s;
  std::vector<double> pipeline_s;
  edge::data::Dataset dataset;
  edge::data::ProcessedDataset processed;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point t0 = Clock::now();
    dataset = edge::data::TweetGenerator(world).Generate(kWorldTweets);
    Clock::time_point t1 = Clock::now();
    processed = edge::data::Pipeline(gazetteer).Process(dataset);
    Clock::time_point t2 = Clock::now();
    setup_s.push_back(Ms(t0, t2) / 1e3);
    pipeline_s.push_back(Ms(t1, t2) / 1e3);
  }
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("data.pipeline_s", Median(pipeline_s), "s");
  std::printf("world: %zu tweets -> %zu train / %zu test, %zu entities\n",
              dataset.tweets.size(), processed.train.size(), processed.test.size(),
              processed.stats.train_distinct_entities);

  // --- Fit. ---
  edge::core::EdgeConfig config;
  config.num_threads = kFitThreads;
  auto model = std::make_unique<edge::core::EdgeModel>(config);
  if (options.trace) {
    edge::obs::ClearTrace();
    edge::obs::StartTracing();
  }
  double cpu0 = CpuSeconds();
  Clock::time_point fit0 = Clock::now();
  model->Fit(processed);
  double fit_s = Ms(fit0, Clock::now()) / 1e3;
  double fit_cpu_s = CpuSeconds() - cpu0;
  report->Set("fit_s", fit_s, "s");
  report->AddOperations("fit", 1, 0);
  std::printf("fit: %.3f s wall, %.3f s cpu at %d threads\n", fit_s, fit_cpu_s, kFitThreads);
  if (options.trace) {
    edge::obs::StopTracing();
    std::vector<edge::obs::TraceEvent> events = edge::obs::TraceSnapshot();
    edge::obs::ClearTrace();
    report->Set("core.fit_cpu_s", fit_cpu_s, "s");
    report->Set("embedding.entity2vec_s", SpanSeconds(events, "edge.core.fit.entity2vec"), "s");
    report->Set("graph.entity_graph_s", SpanSeconds(events, "edge.core.fit.entity_graph"),
                "s");
    report->Set("graph.gcn_forward_s", SpanSeconds(events, "edge.graph.gcn_forward"), "s");
    report->Set("nn.backward_s", SpanSeconds(events, "edge.nn.backward"), "s");
    report->Set("core.mdn_head_s",
                SpanSeconds(events, "edge.core.fit.mdn_head") -
                    NestedSeconds(events, "edge.core.fit.mdn_head", "edge.nn.backward"),
                "s");
    std::vector<double> epoch_ms;
    for (const auto& e : events) {
      if (std::string_view(e.name) == "edge.core.fit.epoch") {
        epoch_ms.push_back(static_cast<double>(e.duration_us) / 1e3);
      }
    }
    if (!epoch_ms.empty()) report->Set("core.epoch_ms_p50", Median(epoch_ms), "ms");
    MeasureKernels(*model, report);
  }

  const std::vector<double>& loss = model->loss_history();
  if (loss.size() < 2 || !(loss.back() < loss.front())) {
    report->problems.push_back("training loss did not decrease");
  }

  // --- The fitted model's test-split predictions, checked and scored. ---
  std::unordered_set<std::string> vocab;
  for (size_t i = 0; i < model->num_entities(); ++i) {
    vocab.insert(std::string(model->NodeNameOf(i)));
  }
  SurfaceIndex index(world);
  std::unordered_map<int64_t, const edge::data::Tweet*> by_id;
  for (const edge::data::Tweet& tweet : dataset.tweets) by_id[tweet.id] = &tweet;
  double origin_lat = world.region.Center().lat;
  ResponseChecker checker(origin_lat);
  std::vector<double> model_km;
  std::vector<double> prior_km;
  double prior_lat = 0.0;
  double prior_lon = 0.0;
  TrainingCentroid(dataset, &prior_lat, &prior_lon);
  edge::text::TweetNer ner(gazetteer);
  std::vector<double> predict_us;
  std::vector<double> ner_us;
  std::vector<double> answer_cpu_us;
  size_t test_failed = 0;
  for (const edge::data::ProcessedTweet& t : processed.test) {
    const edge::data::Tweet& raw = *by_id.at(t.id);
    Request request;
    request.text = raw.text;
    request.lat = raw.location.lat;
    request.lon = raw.location.lon;
    for (std::string& name : index.Match(raw.text)) {
      if (vocab.count(name) > 0) request.entities.push_back(std::move(name));
    }
    // One answer on the in-process path: NER, Predict, render.
    double cpu0_us = ThreadCpuMicros();
    Clock::time_point n0 = Clock::now();
    edge::data::ProcessedTweet tweet;
    tweet.text = raw.text;
    tweet.entities = ner.Extract(raw.text);
    Clock::time_point p0 = Clock::now();
    edge::serve::ServeResponse response;
    response.prediction = model->Predict(tweet);
    Clock::time_point p1 = Clock::now();
    std::string id = "t" + std::to_string(t.id);
    std::string line = edge::serve::ResponseToJsonLine(response, *model, id, false);
    answer_cpu_us.push_back(ThreadCpuMicros() - cpu0_us);
    ner_us.push_back(Ms(n0, p0) * 1e3);
    predict_us.push_back(Ms(p0, p1) * 1e3);
    AnswerFacts facts;
    std::string error;
    Verdict verdict = checker.Check(request, line, id, &facts, &error);
    if (verdict == Verdict::kFailed) ++test_failed;
    if (verdict == Verdict::kInvalid) report->problems.push_back("test split: " + error);
    if (verdict != Verdict::kOk) continue;
    model_km.push_back(HaversineKm(facts.lat, facts.lon, request.lat, request.lon));
    prior_km.push_back(HaversineKm(prior_lat, prior_lon, request.lat, request.lon));
  }
  report->AddOperations("test-predict", processed.test.size(), test_failed);
  report->Set("peak_rss_mib", static_cast<double>(PeakRssKib("self")) / 1024.0, "MiB");
  if (model_km.empty()) throw std::runtime_error("no test predictions");
  report->Set("mean_error_km", Mean(model_km), "km");
  report->Set("median_error_km", Median(model_km), "km");
  report->Set("core.predict_us", Mean(predict_us), "us");
  report->Set("text.ner_us", Mean(ner_us), "us");
  report->Set("cpu_us_per_answer", Median(answer_cpu_us), "us");
  std::printf("test error: mean %.4f km, median %.4f km (centroid prior median %.4f km) "
              "over %zu tweets\n",
              Mean(model_km), Median(model_km), Median(prior_km), model_km.size());
  if (!(Median(model_km) < Median(prior_km))) {
    report->problems.push_back("model does not beat the training-centroid prior");
  }

  return 0;
}

}  // namespace perfbench
