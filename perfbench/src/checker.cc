#include "checker.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kKmPerDegLat = 2.0 * kPi * 6371.0088 / 360.0;

struct Component {
  double weight, lat, lon, sx, sy, rho;
};

bool Num(const Json& object, std::string_view key, double* out) {
  const Json* v = object.Find(key);
  if (v == nullptr || !v->IsNumber() || !std::isfinite(v->number)) return false;
  *out = v->number;
  return true;
}

bool LatLon(const Json& object, std::string_view key, double* lat, double* lon) {
  const Json* v = object.Find(key);
  return v != nullptr && Num(*v, "lat", lat) && Num(*v, "lon", lon);
}

bool Flag(const Json& object, std::string_view key, bool* out) {
  const Json* v = object.Find(key);
  if (v == nullptr || !v->IsBool()) return false;
  *out = v->boolean;
  return true;
}

}  // namespace

ResponseChecker::ResponseChecker(double origin_lat)
    : km_per_deg_lat_(kKmPerDegLat),
      km_per_deg_lon_(kKmPerDegLat * std::cos(origin_lat * kPi / 180.0)) {}

Verdict ResponseChecker::Check(const Request& request, std::string_view line,
                               const std::string& expected_id, AnswerFacts* facts,
                               std::string* error) {
  auto invalid = [error](std::string what) {
    *error = std::move(what);
    return Verdict::kInvalid;
  };
  Json doc;
  std::string parse_error;
  if (!ParseJson(line, &doc, &parse_error)) return invalid("unparseable: " + parse_error);
  if (!doc.IsObject()) return invalid("answer is not an object");
  if (doc.Find("error") != nullptr) {
    *error = "error answer: " + std::string(line.substr(0, 200));
    return Verdict::kFailed;
  }
  const Json* id = doc.Find("id");
  if (id == nullptr || !id->IsString() || id->string != expected_id) {
    return invalid("answer id does not match request " + expected_id);
  }
  bool degraded = false;
  if (!Flag(doc, "degraded", &degraded)) return invalid("no degraded flag");
  if (degraded) {
    *error = "degraded answer to " + expected_id;
    return Verdict::kFailed;
  }

  AnswerFacts f;
  if (!LatLon(doc, "point", &f.lat, &f.lon)) return invalid("bad point");
  if (!Flag(doc, "from_cache", &f.from_cache) ||
      !Flag(doc, "used_fallback", &f.used_fallback)) {
    return invalid("missing flags");
  }

  // --- The mixture. ---
  const Json* components = doc.Find("components");
  if (components == nullptr || !components->IsArray() || components->array.empty()) {
    return invalid("no components");
  }
  std::vector<Component> mix;
  double weight_sum = 0.0;
  for (const Json& c : components->array) {
    Component m{};
    if (!Num(c, "weight", &m.weight) || !LatLon(c, "center", &m.lat, &m.lon) ||
        !Num(c, "sigma_x_km", &m.sx) || !Num(c, "sigma_y_km", &m.sy) ||
        !Num(c, "rho", &m.rho)) {
      return invalid("malformed component");
    }
    if (m.weight < 0.0) return invalid("negative mixture weight");
    if (!(m.sx > 0.0 && m.sy > 0.0)) return invalid("non-positive sigma");
    if (!(std::fabs(m.rho) < 1.0)) return invalid("|rho| >= 1");
    weight_sum += m.weight;
    mix.push_back(m);
  }
  if (std::fabs(weight_sum - 1.0) > 1e-9) return invalid("mixture weights do not sum to 1");

  // Log density in the local km plane around the point.
  auto log_density = [&](double lat, double lon) {
    double best = -std::numeric_limits<double>::infinity();
    std::vector<double> terms;
    terms.reserve(mix.size());
    for (const Component& m : mix) {
      if (m.weight == 0.0) continue;
      double dx = (lon - m.lon) * km_per_deg_lon_ / m.sx;
      double dy = (lat - m.lat) * km_per_deg_lat_ / m.sy;
      double one_minus = 1.0 - m.rho * m.rho;
      double q = (dx * dx - 2.0 * m.rho * dx * dy + dy * dy) / one_minus;
      double t = std::log(m.weight) - std::log(2.0 * kPi * m.sx * m.sy * std::sqrt(one_minus)) -
                 0.5 * q;
      terms.push_back(t);
      best = std::max(best, t);
    }
    double sum = 0.0;
    for (double t : terms) sum += std::exp(t - best);
    return best + std::log(sum);
  };
  double at_point = log_density(f.lat, f.lon);
  for (const Component& m : mix) {
    if (log_density(m.lat, m.lon) > at_point + 1e-9) {
      return invalid("point is not the mixture mode (a component centre is denser)");
    }
  }

  // --- Attention against the text. ---
  const Json* attention = doc.Find("attention");
  if (attention == nullptr || !attention->IsArray()) return invalid("no attention");
  std::vector<std::string> named;
  double attention_sum = 0.0;
  for (const Json& a : attention->array) {
    const Json* entity = a.Find("entity");
    double w = 0.0;
    if (entity == nullptr || !entity->IsString() || !Num(a, "weight", &w)) {
      return invalid("malformed attention entry");
    }
    if (w < 0.0) return invalid("negative attention weight");
    attention_sum += w;
    named.push_back(entity->string);
  }
  std::sort(named.begin(), named.end());
  if (std::adjacent_find(named.begin(), named.end()) != named.end()) {
    return invalid("attention names an entity twice");
  }
  if (named != request.entities) {
    return invalid("attention names {" + EntityKey(named) + "} but the text names {" +
                   EntityKey(request.entities) + "}");
  }
  if (f.used_fallback != request.entities.empty()) {
    return invalid("used_fallback disagrees with the entities in the text");
  }
  if (!named.empty() && std::fabs(attention_sum - 1.0) > 1e-9) {
    return invalid("attention weights do not sum to 1");
  }

  // --- One entity set, one answer body. ---
  size_t body_begin = line.find("\"point\":");
  size_t body_end = line.find(",\"from_cache\":");
  if (body_begin == std::string_view::npos || body_end == std::string_view::npos ||
      body_end < body_begin) {
    return invalid("answer body not found");
  }
  std::string_view body = line.substr(body_begin, body_end - body_begin);
  auto [it, inserted] = bodies_.try_emplace(EntityKey(request.entities), body);
  if (!inserted && it->second != body) {
    return invalid("entity set {" + it->first + "} got two different answer bodies");
  }

  // --- Serving telemetry (absent in canonical renderings). ---
  if (const Json* telemetry = doc.Find("telemetry")) {
    const Json* stages = telemetry->Find("stages");
    if (stages == nullptr || !Num(*stages, "ner_ms", &f.ner_ms) ||
        !Num(*stages, "queue_ms", &f.queue_ms) ||
        !Num(*stages, "predict_ms", &f.predict_ms) ||
        !Num(*stages, "total_ms", &f.total_ms) ||
        !Num(*telemetry, "batch_size", &f.batch_size)) {
      return invalid("malformed telemetry");
    }
    f.has_telemetry = true;
  }
  *facts = f;
  return Verdict::kOk;
}

size_t CheckRecordedStream(const std::vector<Request>& requests,
                           const std::vector<std::string>& lines, double origin_lat,
                           std::vector<std::string>* errors) {
  ResponseChecker checker(origin_lat);
  size_t problems = 0;
  for (size_t k = 0; k < lines.size(); ++k) {
    std::string error;
    AnswerFacts facts;
    if (k >= requests.size()) {
      error = "answer with no request outstanding";
    } else if (checker.Check(requests[k], lines[k], "r" + std::to_string(k), &facts,
                             &error) == Verdict::kOk) {
      continue;
    }
    ++problems;
    errors->push_back(error);
  }
  if (lines.size() < requests.size()) {
    problems += requests.size() - lines.size();
    errors->push_back(std::to_string(requests.size() - lines.size()) +
                      " requests never answered");
  }
  return problems;
}

}  // namespace perfbench
