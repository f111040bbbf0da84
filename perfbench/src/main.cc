/// perfbench — the EDGE end-to-end benchmark driver.
///
///   perfbench --workload train|serve_miss|serve_hot_routed --seed N
///             --seconds S --trace 0|1
///
/// Prints one summary line per phase (operations attempted and failed, sample
/// counts) and, as its last line, one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// per-layer ones, measured in a run with span recording on (a layer the
/// workload does not run reads 0). See perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "report.h"

namespace perfbench {

namespace {

/// End-to-end metrics: every workload reports all of them. Open-loop latency,
/// closed-loop throughput and CPU time per answer are printed per phase and
/// reported by traced runs, but not gated: on this machine's shared virtual
/// CPUs they spread by more than any usable bound between runs of identical
/// code (see README).
const char* const kEndToEnd[] = {
    "setup_s", "peak_rss_mib", "fit_s", "mean_error_km", "median_error_km",
};

/// Per-layer metrics of a traced run, with their units.
const char* const kPerLayer[][2] = {
    {"data.pipeline_s", "s"},          {"embedding.entity2vec_s", "s"},
    {"graph.entity_graph_s", "s"},     {"graph.gcn_forward_s", "s"},
    {"core.mdn_head_s", "s"},          {"nn.backward_s", "s"},
    {"core.epoch_ms_p50", "ms"},       {"core.fit_cpu_s", "s"},
    {"nn.gemm_ms.t1", "ms"},           {"nn.gemm_ms.t2", "ms"},
    {"nn.spmm_ms.t1", "ms"},           {"nn.spmm_ms.t2", "ms"},
    {"nn.gemm_mflop", "Mflop"},        {"nn.gemm_mbyte", "MB"},
    {"nn.spmm_mflop", "Mflop"},        {"nn.spmm_mbyte", "MB"},
    {"core.store_open_ms", "ms"},      {"serve.ready_ms", "ms"},
    {"text.ner_us", "us"},             {"core.predict_us", "us"},
    {"serve.render_us", "us"},         {"cpu_us_per_answer", "us"},
    {"traced.p90_ms_low", "ms"},
    {"net.wire_ms_p50", "ms"},         {"serve.queue_ms_p50", "ms"},
    {"serve.predict_ms_p50", "ms"},    {"serve.batch_size_mean", "count"},
    {"serve.cache_hit_ratio", "ratio"}, {"serve.cache_hits", "count"},
    {"serve.cache_lookups", "count"},  {"router.hop_ms_p50", "ms"},
    {"serve.reload_ms_p50", "ms"},     {"loadgen.late_ms_p99", "ms"},
    {"traced.fit_s", "s"},             {"traced.p50_ms_low", "ms"},
    {"traced.p50_ms_high", "ms"},      {"traced.p90_ms_high", "ms"},
    {"traced.max_rps", "1/s"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|serve_miss|serve_hot_routed "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::AddPhase(const PhaseResult& phase) {
  attempted += phase.attempted;
  failed += phase.failed;
  std::printf("phase %-14s attempted %7zu  failed %zu  answered %7zu  reloads %zu  "
              "%.2f s\n",
              phase.name.c_str(), phase.attempted, phase.failed, phase.answered,
              phase.reload_ms.size(), phase.elapsed_s);
}

void Report::AddOperations(const std::string& name, size_t op_attempted, size_t op_failed) {
  attempted += op_attempted;
  failed += op_failed;
  std::printf("phase %-14s attempted %7zu  failed %zu\n", name.c_str(), op_attempted,
              op_failed);
}

void SetLatencyMetrics(Report* report, const PhaseResult& phase, const std::string& suffix) {
  size_t n = phase.latency_ms.size();
  if (n == 0 || !TailSupported(n, 90.0)) {
    report->problems.push_back(phase.name + ": " + std::to_string(n) +
                               " latency samples cannot support a p90");
    return;
  }
  double p50 = Percentile(phase.latency_ms, 50.0);
  double p90 = Percentile(phase.latency_ms, 90.0);
  report->Set("p50_ms_" + suffix, p50, "ms");
  report->Set("p90_ms_" + suffix, p90, "ms");
  std::printf("latency %-12s n=%zu  p50 %.4f  p90 %.4f (%zu beyond)  p95 %.4f", phase.name.c_str(),
              n, p50, p90, SamplesBeyond(n, 90.0), Percentile(phase.latency_ms, 95.0));
  if (TailSupported(n, 99.0)) {
    std::printf("  p99 %.4f (%zu beyond)", Percentile(phase.latency_ms, 99.0),
                SamplesBeyond(n, 99.0));
  }
  std::printf("  max %.4f ms\n", Percentile(phase.latency_ms, 100.0));
}

size_t PhaseCount(double rate, double phase_s) {
  return static_cast<size_t>(rate * phase_s + 0.5);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage();
        options.trace = value == "1";
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !(options.seconds >= 5.0)) return Usage();

  std::filesystem::path exe = std::filesystem::read_symlink("/proc/self/exe");
  options.exe_dir = exe.parent_path().string();
  options.run_dir = (exe.parent_path() / ("run-" + options.workload + "-" +
                                          std::to_string(getpid())))
                        .string();
  std::filesystem::remove_all(options.run_dir);
  std::filesystem::create_directories(options.run_dir);

  Report report;
  int rc = 0;
  try {
    if (options.workload == "train") {
      rc = RunTrain(options, &report);
    } else if (options.workload == "serve_miss" || options.workload == "serve_hot_routed") {
      rc = RunServing(options, &report);
    } else {
      rc = Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.run_dir, ec);
  if (rc != 0) return rc;

  for (const std::string& problem : report.problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::string out = "{\"correct\": ";
  out += report.problems.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + FormatNumber(value) + ", \"unit\": \"" + unit +
           "\"}";
  };
  if (options.trace) {
    // The end-to-end figures of a traced run, for the tracing overhead.
    for (const char* name :
         {"fit_s", "p50_ms_low", "p90_ms_low", "p50_ms_high", "p90_ms_high", "max_rps"}) {
      auto it = report.metrics.find(name);
      if (it != report.metrics.end()) report.metrics["traced." + std::string(name)] = it->second;
    }
    for (const auto& [name, unit] : kPerLayer) {
      auto it = report.metrics.find(name);
      emit(name, it == report.metrics.end() ? 0.0 : it->second.first, unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      auto it = report.metrics.find(name);
      if (it == report.metrics.end()) {
        std::fprintf(stderr, "perfbench: workload did not measure %s\n", name);
        return 1;
      }
      emit(name, it->second.first, it->second.second);
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}
