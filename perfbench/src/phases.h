#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <string>
#include <vector>

#include "checker.h"
#include "loadgen.h"
#include "stats.h"
#include "world.h"

namespace perfbench {

/// An answer as it arrived; checked after the phase so that checking costs
/// the load generator no time while the clock runs.
struct Arrival {
  Slot slot;
  std::string line;
  Clock::time_point at;
};

/// Everything one phase measured.
struct PhaseResult {
  std::string name;
  size_t attempted = 0;  ///< Operations sent (predictions and reloads).
  size_t failed = 0;     ///< Error or degraded answers, or no answer at all.
  size_t answered = 0;   ///< Checked, valid prediction answers.
  double elapsed_s = 0.0;
  size_t in_window = 0;  ///< Closed loop: answers inside the timed window.
  std::vector<double> latency_ms;  ///< From due time, per valid answer.
  std::vector<double> late_ms;     ///< Open loop: send lateness per request.
  std::vector<double> wire_ms;     ///< From send, minus the server's total_ms.
  std::vector<double> reload_ms;   ///< Reload acknowledgement times.
  std::vector<AnswerFacts> facts;  ///< Per valid answer.
  std::vector<size_t> requests;    ///< Request index per valid answer.
  std::vector<Arrival> arrivals;   ///< Unchecked answers (empty once checked).
};

/// Shared state of one workload's phases: the request stream, its cursor and
/// the checker that every answer of the run passes through.
struct PhaseContext {
  const std::vector<Request>* stream = nullptr;
  size_t cursor = 0;      ///< Next stream position (wraps).
  size_t next_id = 0;     ///< Next request id number.
  ResponseChecker* checker = nullptr;
  std::vector<std::string>* problems = nullptr;  ///< Output-check violations.
};

/// Open loop: `count` Poisson arrivals at mean `rate` per second (drawn from
/// `seed`), spread round-robin over the client's connections. `reload_every`
/// > 0 sends {"reload": reload_path} in place of every reload_every-th request.
PhaseResult RunOpenLoop(const std::string& name, Client* client, PhaseContext* ctx,
                        double rate, size_t count, uint64_t seed, size_t reload_every = 0,
                        const std::string& reload_path = "");

/// Closed loop: every connection keeps `window` requests in flight for
/// `seconds`; answers per second over that time is the phase's throughput.
PhaseResult RunClosedLoop(const std::string& name, Client* client, PhaseContext* ctx,
                          size_t window, double seconds);

/// Answers per second of a closed-loop phase.
double Throughput(const PhaseResult& phase);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
