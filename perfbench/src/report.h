#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "phases.h"

namespace perfbench {

/// Command-line settings of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string exe_dir;  ///< Where edge_serve and edge_router were built.
  std::string run_dir;  ///< Scratch directory of this run (removed at exit).
};

/// What a workload hands back: metrics by name, operation counts and every
/// output-check violation.
struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> problems;
  size_t attempted = 0;
  size_t failed = 0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Books a phase's operation counts and prints its summary line.
  void AddPhase(const PhaseResult& phase);
  /// Books `count` operations of a non-serving phase (a Fit, test predictions).
  void AddOperations(const std::string& name, size_t attempted, size_t failed);
};

/// Median and, where at least ten samples lie beyond it, p99 of a phase's
/// latencies; records a problem when the sample cannot support p99.
void SetLatencyMetrics(Report* report, const PhaseResult& phase, const std::string& suffix);

/// The load rates each workload runs at: fixed numbers, never derived from a
/// capacity measured in the same run.
struct Rates {
  double low_per_s;
  double high_per_s;
  size_t closed_window;  ///< In-flight requests per connection, closed loop.
  size_t reload_every;   ///< 0 = no reloads.
};

/// The open-loop requests of one phase of `phase_s` seconds at `rate`.
size_t PhaseCount(double rate, double phase_s);

int RunTrain(const Options& options, Report* report);
int RunServing(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
