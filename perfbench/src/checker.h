#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "json.h"
#include "world.h"

namespace perfbench {

/// What the benchmark reads off one checked prediction answer.
struct AnswerFacts {
  double lat = 0.0;  ///< The Eq. 14 point.
  double lon = 0.0;
  bool from_cache = false;
  bool used_fallback = false;
  /// telemetry.stages and batch size; present when the server renders
  /// latency fields (has_telemetry).
  bool has_telemetry = false;
  double ner_ms = 0.0;
  double queue_ms = 0.0;
  double predict_ms = 0.0;
  double total_ms = 0.0;
  double batch_size = 0.0;
};

/// Outcome of one answer line.
enum class Verdict {
  kOk,       ///< A valid answer.
  kFailed,   ///< The operation failed: an error line or a degraded answer.
  kInvalid,  ///< An answer that breaks an output check.
};

/// Checks prediction answers against the request that produced them, using
/// only the benchmark's own references:
///   - the mixture is valid: weights >= 0 summing to 1 within 1e-9, every
///     sigma > 0 and |rho| < 1, and the density at `point` is at least the
///     density at every component centre (the Eq. 14 mode property);
///   - attention weights sum to 1 and name exactly the in-vocabulary entities
///     whose surface forms the text contains; used_fallback is set exactly
///     when there is none;
///   - one entity set always gets a byte-identical answer body, whichever
///     replica, cache, batch or model reload produced it.
class ResponseChecker {
 public:
  /// `origin_lat` is the latitude of the model's plane projection origin (the
  /// region centre), which fixes the km scale of the east-west axis.
  explicit ResponseChecker(double origin_lat);

  Verdict Check(const Request& request, std::string_view line,
                const std::string& expected_id, AnswerFacts* facts,
                std::string* error);

 private:
  double km_per_deg_lat_;
  double km_per_deg_lon_;
  std::unordered_map<std::string, std::string> bodies_;  // Entity key -> body.
};

/// Checks one recorded ordered stream the way the load generator checks each
/// connection: answer k must carry the id "r<k>" of the k-th request sent and
/// pass ResponseChecker against requests[k]. Returns the number of problems
/// (0 = clean): answers out of order, extra or missing, failed or invalid.
size_t CheckRecordedStream(const std::vector<Request>& requests,
                           const std::vector<std::string>& lines, double origin_lat,
                           std::vector<std::string>* errors);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
