#include "world.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "edge/data/generator.h"
#include "edge/data/io.h"
#include "edge/data/worlds.h"
#include "edge/text/ner.h"

namespace perfbench {

double HaversineKm(double lat1, double lon1, double lat2, double lon2) {
  constexpr double kRadiusKm = 6371.0088;
  constexpr double kRad = 3.14159265358979323846 / 180.0;
  double dlat = (lat2 - lat1) * kRad;
  double dlon = (lon2 - lon1) * kRad;
  double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
             std::cos(lat1 * kRad) * std::cos(lat2 * kRad) * std::sin(dlon / 2) *
                 std::sin(dlon / 2);
  return 2.0 * kRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

edge::data::WorldConfig MakeWorld(uint64_t tweet_seed) {
  edge::data::WorldConfig world = edge::data::MakeNymaWorld();
  world.seed = tweet_seed;
  return world;
}

namespace {

bool HasSigil(std::string_view s) { return !s.empty() && (s[0] == '#' || s[0] == '@'); }

std::string Bare(std::string_view s) {
  return std::string(HasSigil(s) ? s.substr(1) : s);
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '\'' || c == '_';
}

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

/// Lowercase words of a phrase, split on spaces and underscores.
std::vector<std::string> PhraseWords(std::string_view phrase) {
  std::vector<std::string> words;
  std::string current;
  for (char c : Lower(phrase)) {
    if (c == ' ' || c == '_') {
      if (!current.empty()) words.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) words.push_back(std::move(current));
  return words;
}

std::string JoinWords(const std::vector<std::string>& words, size_t begin, size_t count) {
  std::string key;
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) key.push_back('_');
    key += words[begin + i];
  }
  return key;
}

}  // namespace

std::string Canonical(std::string_view surface) {
  if (HasSigil(surface)) return std::string(surface);
  std::vector<std::string> words = PhraseWords(surface);
  return JoinWords(words, 0, words.size());
}

bool WriteGazetteerTsv(const edge::data::WorldConfig& world, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << "# canonical\tcategory\tsurface\n";
  for (const edge::data::PoiSpec& poi : world.pois) {
    const char* category = edge::text::EntityCategoryName(poi.category);
    std::string canonical = Canonical(poi.name);
    out << canonical << "\t" << category << "\t" << poi.name << "\n";
    for (const std::string& alias : poi.aliases) {
      out << canonical << "\t" << category << "\t" << Bare(alias) << "\n";
    }
  }
  for (const edge::data::TopicSpec& topic : world.topics) {
    out << Canonical(topic.name) << "\t"
        << edge::text::EntityCategoryName(topic.category) << "\t" << Bare(topic.name)
        << "\n";
  }
  out.flush();
  return out.good();
}

edge::text::Gazetteer LoadGazetteer(const std::string& path) {
  std::ifstream in(path);
  auto gazetteer = edge::data::ReadGazetteerTsv(&in);
  if (!gazetteer.ok()) throw std::runtime_error(gazetteer.status().ToString());
  return std::move(gazetteer).value();
}

SurfaceIndex::SurfaceIndex(const edge::data::WorldConfig& world) {
  for (const edge::data::PoiSpec& poi : world.pois) {
    std::string canonical = Canonical(poi.name);
    Add(poi.name, canonical);
    for (const std::string& alias : poi.aliases) Add(Bare(alias), canonical);
  }
  for (const edge::data::TopicSpec& topic : world.topics) {
    Add(Bare(topic.name), Canonical(topic.name));
  }
}

void SurfaceIndex::Add(std::string_view surface, const std::string& canonical) {
  std::vector<std::string> words = PhraseWords(surface);
  if (words.empty()) return;
  max_words_ = std::max(max_words_, words.size());
  phrases_[JoinWords(words, 0, words.size())] = canonical;
}

std::vector<std::string> SurfaceIndex::Match(std::string_view text) const {
  // Tokens: runs of word characters, each optionally led by one # or @.
  std::vector<std::string> tokens;
  std::string lower = Lower(text);
  size_t i = 0;
  while (i < lower.size()) {
    char c = lower[i];
    if (c == '#' || c == '@') {
      size_t j = i + 1;
      while (j < lower.size() && IsWordChar(lower[j])) ++j;
      if (j > i + 1) tokens.push_back(lower.substr(i, j - i));
      i = std::max(j, i + 1);
    } else if (IsWordChar(c)) {
      size_t j = i;
      while (j < lower.size() && IsWordChar(lower[j])) ++j;
      std::string word = lower.substr(i, j - i);
      while (!word.empty() && word.front() == '\'') word.erase(word.begin());
      while (!word.empty() && word.back() == '\'') word.pop_back();
      if (!word.empty()) tokens.push_back(std::move(word));
      i = j;
    } else {
      ++i;
    }
  }

  std::vector<std::string> found;
  size_t t = 0;
  while (t < tokens.size()) {
    if (HasSigil(tokens[t])) {
      auto it = phrases_.find(tokens[t].substr(1));
      found.push_back(it != phrases_.end() ? it->second : tokens[t]);
      ++t;
      continue;
    }
    size_t matched = 0;
    for (size_t len = std::min(max_words_, tokens.size() - t); len >= 1; --len) {
      bool sigil_inside = false;
      for (size_t k = t; k < t + len; ++k) sigil_inside |= HasSigil(tokens[k]);
      if (sigil_inside) continue;
      auto it = phrases_.find(JoinWords(tokens, t, len));
      if (it != phrases_.end()) {
        found.push_back(it->second);
        matched = len;
        break;
      }
    }
    t += matched > 0 ? matched : 1;
  }
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());
  return found;
}

std::string EntityKey(const std::vector<std::string>& entities) {
  std::string key;
  for (size_t i = 0; i < entities.size(); ++i) {
    if (i > 0) key.push_back(',');
    key += entities[i];
  }
  return key;
}

std::vector<Request> GenerateRequests(const edge::data::WorldConfig& world, size_t n,
                                      const SurfaceIndex& index,
                                      const std::unordered_set<std::string>& vocab) {
  edge::data::TweetGenerator generator(world);
  edge::data::Dataset dataset = generator.Generate(n);
  std::vector<Request> out;
  out.reserve(dataset.tweets.size());
  for (edge::data::Tweet& tweet : dataset.tweets) {
    Request request;
    request.lat = tweet.location.lat;
    request.lon = tweet.location.lon;
    for (std::string& name : index.Match(tweet.text)) {
      if (vocab.count(name) > 0) request.entities.push_back(std::move(name));
    }
    request.text = std::move(tweet.text);
    out.push_back(std::move(request));
  }
  return out;
}

std::vector<Request> DistinctEntitySets(const std::vector<Request>& requests) {
  std::unordered_set<std::string> seen;
  std::vector<Request> out;
  for (const Request& request : requests) {
    if (seen.insert(EntityKey(request.entities)).second) out.push_back(request);
  }
  return out;
}

void TrainingCentroid(const edge::data::Dataset& dataset, double* lat, double* lon) {
  size_t n = dataset.TrainCount();
  double sum_lat = 0.0;
  double sum_lon = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum_lat += dataset.tweets[i].location.lat;
    sum_lon += dataset.tweets[i].location.lon;
  }
  *lat = sum_lat / static_cast<double>(n);
  *lon = sum_lon / static_cast<double>(n);
}

}  // namespace perfbench
