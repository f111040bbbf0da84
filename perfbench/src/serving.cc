// The serving workloads. Each run fits its model (the shipped default thread
// budget of 1), writes it as an fp64 edge-model.v1 store and serves it:
//   serve_miss        one `edge_serve --listen` at the shipped defaults; one
//                     tweet per distinct entity set, cycled, so the 4,096-entry
//                     LRU misses on every request;
//   serve_hot_routed  `edge_router` over two replicas; tweets in the
//                     generator's natural order (repeat-heavy, so caches hit),
//                     with coordinated reloads of the same store at fixed
//                     request counts during the high-rate phase.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_set>

#include "edge/core/edge_model.h"
#include "edge/core/model_store.h"
#include "edge/data/generator.h"
#include "edge/data/pipeline.h"
#include "edge/serve/geo_service.h"
#include "edge/serve/json_codec.h"
#include "report.h"

namespace perfbench {

namespace {

constexpr size_t kWorldTweets = 4000;
constexpr size_t kRequestTweets = 100000;
constexpr int kFleetStarts = 9;
constexpr double kWarmupSeconds = 0.5;
constexpr size_t kLayerSamples = 5000;
constexpr Rates kMissRates = {1000.0, 4000.0, 16, 0};
constexpr Rates kRoutedRates = {500.0, 2500.0, 16, 2500};

/// The serving processes of one start: one replica, or two replicas behind
/// the router. Destruction stops them all. Each process gets a CPU of its own
/// (`cpus`, in start order; empty = unpinned).
class Fleet {
 public:
  Fleet(const Options& options, const std::string& store, const std::string& gazetteer,
        bool routed, int start, const std::vector<int>& cpus) {
    auto cpu = [&cpus](size_t i) { return cpus.empty() ? -1 : cpus[i % cpus.size()]; };
    Clock::time_point t0 = Clock::now();
    size_t replicas = routed ? 2 : 1;
    std::vector<Clock::time_point> spawned;
    for (size_t i = 0; i < replicas; ++i) {
      std::string tag = "start" + std::to_string(start) + "-replica" + std::to_string(i);
      spawned.push_back(Clock::now());
      children_.push_back(std::make_unique<Child>(
          std::vector<std::string>{options.exe_dir + "/edge_serve", "--model", store,
                                   "--gazetteer", gazetteer, "--listen", "0"},
          options.run_dir + "/" + tag + ".err", TraceEnv(options, tag), cpu(i)));
    }
    std::string replica_list;
    for (size_t i = 0; i < replicas; ++i) {
      uint16_t port = children_[i]->WaitForListen(30.0);
      if (port == 0) throw std::runtime_error("edge_serve did not start");
      std::string health = RoundTrip(port, "{\"health\":true}", 30.0);
      if (health.find("model_generation") == std::string::npos) {
        throw std::runtime_error("edge_serve did not answer health");
      }
      process_ready_ms_.push_back(Ms(spawned[i], Clock::now()));
      replica_ports_.push_back(port);
      replica_list += (i > 0 ? "," : "") + std::string("127.0.0.1:") + std::to_string(port);
    }
    front_port_ = replica_ports_[0];
    if (routed) {
      std::string tag = "start" + std::to_string(start) + "-router";
      Clock::time_point spawn = Clock::now();
      children_.push_back(std::make_unique<Child>(
          std::vector<std::string>{options.exe_dir + "/edge_router", "--gazetteer", gazetteer,
                                   "--replicas", replica_list, "--listen", "0"},
          options.run_dir + "/" + tag + ".err", TraceEnv(options, tag), cpu(replicas)));
      front_port_ = children_.back()->WaitForListen(30.0);
      if (front_port_ == 0) throw std::runtime_error("edge_router did not start");
      Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
      while (!RouterUp(RoundTrip(front_port_, "{\"health\":true}", 30.0), replicas)) {
        if (Clock::now() > deadline) throw std::runtime_error("router fleet never came up");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      process_ready_ms_.push_back(Ms(spawn, Clock::now()));
    }
    ready_s_ = Ms(t0, Clock::now()) / 1e3;
  }

  uint16_t front_port() const { return front_port_; }
  uint16_t replica_port(size_t i) const { return replica_ports_[i]; }
  double ready_s() const { return ready_s_; }
  const std::vector<double>& process_ready_ms() const { return process_ready_ms_; }

  double PeakRssMib() const {
    double kib = 0.0;
    for (const auto& child : children_) kib += static_cast<double>(child->PeakRssKib());
    return kib / 1024.0;
  }
  double CpuSeconds() const {
    double s = 0.0;
    for (const auto& child : children_) s += child->CpuSeconds();
    return s;
  }
  /// Stops the router first, then the replicas; true when all exited cleanly.
  bool Stop() {
    bool clean = true;
    for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
      clean = (*it)->Stop() == 0 && clean;
    }
    return clean;
  }

 private:
  static std::vector<std::string> TraceEnv(const Options& options, const std::string& tag) {
    if (!options.trace) return {};
    return {"EDGE_TRACE_OUT=" + options.run_dir + "/" + tag + ".trace.json"};
  }
  static bool RouterUp(const std::string& line, size_t replicas) {
    Json doc;
    std::string error;
    if (!ParseJson(line, &doc, &error)) return false;
    const Json* health = doc.Find("health");
    const Json* router = health != nullptr ? health->Find("router") : nullptr;
    const Json* up = router != nullptr ? router->Find("up") : nullptr;
    return up != nullptr && up->IsNumber() && up->number == static_cast<double>(replicas);
  }

  std::vector<std::unique_ptr<Child>> children_;
  std::vector<uint16_t> replica_ports_;
  std::vector<double> process_ready_ms_;
  uint16_t front_port_ = 0;
  double ready_s_ = 0.0;
};

/// In-process timings of the layers a request passes, on the workload's own
/// requests: store open (full verify + LoadFromStore), NER, predict, render.
void MeasureLayersInProcess(const std::string& store_path, const edge::text::Gazetteer& gaz,
                            const std::vector<Request>& stream, Report* report) {
  std::vector<double> open_ms;
  std::shared_ptr<const edge::core::EdgeModel> model;
  for (int i = 0; i < 5; ++i) {
    Clock::time_point t0 = Clock::now();
    auto store = edge::core::MmapModelStore::Open(store_path, edge::core::StoreVerify::kFull);
    if (!store.ok()) throw std::runtime_error(store.status().ToString());
    auto loaded = edge::core::EdgeModel::LoadFromStore(std::move(store).value());
    if (!loaded.ok()) throw std::runtime_error(loaded.status().ToString());
    open_ms.push_back(Ms(t0, Clock::now()));
    model = std::move(loaded).value();
  }
  report->Set("core.store_open_ms", Median(open_ms), "ms");

  edge::text::TweetNer ner(gaz);
  std::vector<double> ner_us, predict_us, render_us;
  size_t n = std::min(stream.size(), kLayerSamples);
  for (size_t i = 0; i < n; ++i) {
    Clock::time_point t0 = Clock::now();
    edge::data::ProcessedTweet tweet;
    tweet.text = stream[i].text;
    tweet.entities = ner.Extract(tweet.text);
    Clock::time_point t1 = Clock::now();
    edge::serve::ServeResponse response;
    response.prediction = model->Predict(tweet);
    response.model = model;
    Clock::time_point t2 = Clock::now();
    edge::serve::ResponseToJsonLine(response, *model, "r", true);
    Clock::time_point t3 = Clock::now();
    ner_us.push_back(Ms(t0, t1) * 1e3);
    predict_us.push_back(Ms(t1, t2) * 1e3);
    render_us.push_back(Ms(t2, t3) * 1e3);
  }
  report->Set("text.ner_us", Mean(ner_us), "us");
  report->Set("core.predict_us", Mean(predict_us), "us");
  report->Set("serve.render_us", Mean(render_us), "us");
}

}  // namespace

int RunServing(const Options& options, Report* report) {
  bool routed = options.workload == "serve_hot_routed";
  const Rates& rates = routed ? kRoutedRates : kMissRates;

  // --- The served model: fit, store, and the references the checks use. ---
  edge::data::WorldConfig world = MakeWorld(options.seed);
  std::string gaz_path = options.run_dir + "/gazetteer.tsv";
  std::string store_path =
      std::filesystem::absolute(options.run_dir + "/model.edgebin").string();
  if (!WriteGazetteerTsv(world, gaz_path)) throw std::runtime_error("gazetteer write");
  edge::text::Gazetteer gazetteer = LoadGazetteer(gaz_path);
  edge::data::Dataset dataset = edge::data::TweetGenerator(world).Generate(kWorldTweets);
  edge::data::ProcessedDataset processed = edge::data::Pipeline(gazetteer).Process(dataset);
  edge::core::EdgeModel model{edge::core::EdgeConfig()};
  Clock::time_point fit0 = Clock::now();
  model.Fit(processed);
  report->Set("fit_s", Ms(fit0, Clock::now()) / 1e3, "s");
  report->AddOperations("fit", 1, 0);
  edge::Status saved =
      edge::core::SaveModelStoreAtomic(model, edge::core::EmbedPrecision::kFp64, store_path);
  if (!saved.ok()) throw std::runtime_error(saved.ToString());
  std::unordered_set<std::string> vocab;
  for (size_t i = 0; i < model.num_entities(); ++i) {
    vocab.insert(std::string(model.NodeNameOf(i)));
  }
  double prior_lat = 0.0;
  double prior_lon = 0.0;
  TrainingCentroid(dataset, &prior_lat, &prior_lon);

  // --- The request stream. ---
  SurfaceIndex index(world);
  std::vector<Request> all = GenerateRequests(MakeWorld(options.seed * 1000003 + 17),
                                              kRequestTweets, index, vocab);
  std::vector<Request> stream = routed ? std::move(all) : DistinctEntitySets(all);
  {
    size_t no_entity = 0;
    for (const Request& r : stream) no_entity += r.entities.empty() ? 1 : 0;
    std::printf("stream: %zu requests, %zu distinct entity sets, %.4f without a known "
                "entity\n",
                stream.size(), DistinctEntitySets(stream).size(),
                static_cast<double>(no_entity) / static_cast<double>(stream.size()));
  }
  if (options.trace) MeasureLayersInProcess(store_path, gazetteer, stream, report);

  // Placement: each serving process on a CPU of its own, leaving the first
  // allowed CPU (where this machine's interrupt work lands) to the load
  // generator and the kernel. Left to the scheduler, a server's event loop
  // and batch worker share one core or spread over two from run to run, and
  // its throughput and low-rate latency flip between two modes with it.
  std::vector<int> server_cpus = AllowedCpus();
  if (server_cpus.size() >= 2) {
    server_cpus.erase(server_cpus.begin());
  } else {
    server_cpus.clear();
  }

  // --- Set-up: start the fleet nine times; the last one is measured. ---
  std::vector<double> ready_s;
  std::vector<double> process_ready_ms;
  std::unique_ptr<Fleet> fleet;
  for (int start = 0; start < kFleetStarts; ++start) {
    if (fleet != nullptr && !fleet->Stop()) {
      report->problems.push_back("a serving process exited uncleanly after set-up");
    }
    fleet = std::make_unique<Fleet>(options, store_path, gaz_path, routed, start, server_cpus);
    ready_s.push_back(fleet->ready_s());
    process_ready_ms.insert(process_ready_ms.end(), fleet->process_ready_ms().begin(),
                            fleet->process_ready_ms().end());
  }
  report->Set("setup_s", Median(ready_s), "s");
  report->Set("serve.ready_ms", Median(process_ready_ms), "ms");

  Client client;
  std::string error;
  size_t connections = std::min<size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  if (!client.Connect(fleet->front_port(), connections, &error)) {
    throw std::runtime_error(error);
  }
  ResponseChecker checker(world.region.Center().lat);
  PhaseContext ctx;
  ctx.stream = &stream;
  ctx.checker = &checker;
  ctx.problems = &report->problems;
  double phase_s = 0.3 * options.seconds;
  double closed_s = 0.2 * options.seconds;

  PhaseResult warmup = RunClosedLoop("warmup", &client, &ctx, rates.closed_window,
                                     kWarmupSeconds);
  size_t low_start = ctx.cursor;
  PhaseResult low = RunOpenLoop("low", &client, &ctx, rates.low_per_s,
                                PhaseCount(rates.low_per_s, phase_s), options.seed);
  PhaseResult high =
      RunOpenLoop("high", &client, &ctx, rates.high_per_s,
                  PhaseCount(rates.high_per_s, phase_s), options.seed + 1, rates.reload_every,
                  store_path);
  double cpu0 = fleet->CpuSeconds();
  PhaseResult closed = RunClosedLoop("closed", &client, &ctx, rates.closed_window, closed_s);
  double cpu_s = fleet->CpuSeconds() - cpu0;
  std::vector<const PhaseResult*> phases = {&warmup, &low, &high, &closed};

  // Router hop: the low-rate requests again, straight to a replica.
  PhaseResult direct;
  if (routed && options.trace) {
    Client replica_client;
    if (!replica_client.Connect(fleet->replica_port(0), connections, &error)) {
      throw std::runtime_error(error);
    }
    ctx.cursor = low_start;
    direct = RunOpenLoop("direct", &replica_client, &ctx, rates.low_per_s,
                         PhaseCount(rates.low_per_s, phase_s), options.seed);
    phases.push_back(&direct);
  }
  for (const PhaseResult* phase : phases) report->AddPhase(*phase);

  report->Set("peak_rss_mib", fleet->PeakRssMib(), "MiB");
  if (!fleet->Stop()) report->problems.push_back("a serving process exited uncleanly");

  // --- End-to-end metrics. ---
  SetLatencyMetrics(report, low, "low");
  SetLatencyMetrics(report, high, "high");
  report->Set("max_rps", Throughput(closed), "1/s");
  std::printf("closed loop: %zu connections x %zu in flight, %zu answers in %.1f s = %.1f "
              "answers/s\n",
              connections, rates.closed_window, closed.in_window, closed.elapsed_s,
              Throughput(closed));
  std::vector<double> model_km;
  std::vector<double> prior_km;
  for (const PhaseResult* phase : {&low, &high, &closed}) {
    for (size_t i = 0; i < phase->facts.size(); ++i) {
      const Request& truth = stream[phase->requests[i]];
      model_km.push_back(
          HaversineKm(phase->facts[i].lat, phase->facts[i].lon, truth.lat, truth.lon));
      prior_km.push_back(HaversineKm(prior_lat, prior_lon, truth.lat, truth.lon));
    }
  }
  if (model_km.empty()) throw std::runtime_error("no valid answers");
  report->Set("mean_error_km", Mean(model_km), "km");
  report->Set("median_error_km", Median(model_km), "km");
  std::printf("served error: mean %.4f km, median %.4f km (centroid prior median %.4f km) "
              "over %zu answers\n",
              Mean(model_km), Median(model_km), Median(prior_km), model_km.size());
  if (!(Median(model_km) < Median(prior_km))) {
    report->problems.push_back("model does not beat the training-centroid prior");
  }

  // --- Per-layer figures read off the answers. ---
  std::vector<double> queue_ms, predict_ms, batch;
  size_t hits = 0;
  size_t lookups = 0;
  for (const PhaseResult* phase : {&low, &high, &closed}) {
    for (const AnswerFacts& f : phase->facts) {
      ++lookups;
      if (f.from_cache) {
        ++hits;
        continue;
      }
      if (phase == &low) queue_ms.push_back(f.queue_ms);
      if (phase == &closed) {
        predict_ms.push_back(f.predict_ms);
        batch.push_back(f.batch_size);
      }
    }
  }
  if (!queue_ms.empty()) report->Set("serve.queue_ms_p50", Median(queue_ms), "ms");
  if (!predict_ms.empty()) {
    report->Set("serve.predict_ms_p50", Median(predict_ms), "ms");
    report->Set("serve.batch_size_mean", Mean(batch), "count");
  }
  report->Set("serve.cache_hits", static_cast<double>(hits), "count");
  report->Set("serve.cache_lookups", static_cast<double>(lookups), "count");
  report->Set("serve.cache_hit_ratio",
              static_cast<double>(hits) / static_cast<double>(std::max<size_t>(lookups, 1)),
              "ratio");
  std::printf("cache: %zu hits of %zu lookups\n", hits, lookups);
  report->Set("cpu_us_per_answer",
              cpu_s * 1e6 / static_cast<double>(std::max<size_t>(closed.answered, 1)), "us");
  report->Set("net.wire_ms_p50", Median(low.wire_ms), "ms");
  if (!direct.wire_ms.empty()) {
    report->Set("router.hop_ms_p50", Median(low.wire_ms) - Median(direct.wire_ms), "ms");
  }
  if (!high.reload_ms.empty()) {
    report->Set("serve.reload_ms_p50", Median(high.reload_ms), "ms");
    std::printf("reloads: %zu, median %.3f ms\n", high.reload_ms.size(),
                Median(high.reload_ms));
  }
  std::vector<double> late(low.late_ms);
  late.insert(late.end(), high.late_ms.begin(), high.late_ms.end());
  report->Set("loadgen.late_ms_p99", Percentile(late, 99.0), "ms");
  return 0;
}

}  // namespace perfbench
