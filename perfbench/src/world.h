#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "edge/data/tweet.h"
#include "edge/data/world.h"
#include "edge/text/ner.h"

namespace perfbench {

/// Great-circle distance in km (mean Earth radius), the benchmark's own
/// accuracy reference: it does not call the program's geo or eval code.
double HaversineKm(double lat1, double lon1, double lat2, double lon2);

/// The seeded NYMA world: the preset's fixed city layout with tweets sampled
/// from `tweet_seed`, so seeds vary the tweets and never the entity inventory.
edge::data::WorldConfig MakeWorld(uint64_t tweet_seed);

/// Writes the world's entity dictionary in the program's gazetteer TSV format
/// (canonical, category, surface form per line). Returns false on I/O error.
bool WriteGazetteerTsv(const edge::data::WorldConfig& world, const std::string& path);

/// Reads a gazetteer TSV back through the program's reader; throws on error.
edge::text::Gazetteer LoadGazetteer(const std::string& path);

/// The benchmark's own reading of which gazetteer entities a tweet names:
/// lowercase word tokens, #/@ mentions linked through their bare form, and
/// greedy longest-match over the surface forms the world registers. The
/// output checks compare the program's attention lists against it.
class SurfaceIndex {
 public:
  explicit SurfaceIndex(const edge::data::WorldConfig& world);
  /// Registers one surface form of `canonical` (for tests).
  void Add(std::string_view surface, const std::string& canonical);
  /// Canonical names named by `text`, sorted and deduplicated.
  std::vector<std::string> Match(std::string_view text) const;

 private:
  std::unordered_map<std::string, std::string> phrases_;  // "a_b" -> canonical.
  size_t max_words_ = 1;
};

/// Canonical entity name of a surface form: sigiled forms pass through,
/// others are lowercased with words joined by '_'.
std::string Canonical(std::string_view surface);

/// One request of a serving stream with the generator's ground truth.
struct Request {
  std::string text;
  double lat = 0.0;
  double lon = 0.0;
  /// Sorted in-vocabulary canonical entity names the text names (by
  /// SurfaceIndex); empty when the model knows none of them.
  std::vector<std::string> entities;
};

/// Sorted entity names joined with ',' ("" for the empty set).
std::string EntityKey(const std::vector<std::string>& entities);

/// Generates `n` tweets from the seeded world and annotates each with its
/// in-vocabulary entity set.
std::vector<Request> GenerateRequests(const edge::data::WorldConfig& world, size_t n,
                                      const SurfaceIndex& index,
                                      const std::unordered_set<std::string>& vocab);

/// Keeps the first request of each distinct entity set, in generation order.
std::vector<Request> DistinctEntitySets(const std::vector<Request>& requests);

/// Mean location of the chronological training share (first 75%) of a
/// dataset: the benchmark's own centroid prior.
void TrainingCentroid(const edge::data::Dataset& dataset, double* lat, double* lon);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
