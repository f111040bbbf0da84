#include "edge/fault/fault.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "edge/common/hash.h"
#include "edge/obs/metrics.h"

namespace edge::fault {

namespace {

enum class Mode { kError, kLatency, kShortWrite };

/// One configured point: the parsed clause plus its private RNG and budget
/// counters. Guarded by g_mu.
struct PointConfig {
  Mode mode = Mode::kError;
  double p = 1.0;
  long long times = -1;  ///< -1 = unlimited.
  long long after = 0;
  double ms = 1.0;
  double frac = 0.5;
  uint64_t rng = 0;
  long long hits = 0;
  long long injected = 0;
};

std::mutex g_mu;
std::map<std::string, PointConfig>& Points() {
  static std::map<std::string, PointConfig>* points =
      new std::map<std::string, PointConfig>();
  return *points;
}

/// xorshift64* — tiny self-contained generator; the fault layer sits below
/// edge_common, so it cannot reuse edge::Rng.
double NextUniform(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return static_cast<double>((x * 0x2545F4914F6CDD1DULL) >> 11) *
         (1.0 / 9007199254740992.0);
}

bool ParseDouble(const std::string& text, double* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseInt(const std::string& text, long long* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseU64(const std::string& text, uint64_t* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

bool ParseClause(const std::string& clause, std::string* point, PointConfig* config,
                 std::string* error) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= clause.size()) {
    size_t comma = clause.find(',', start);
    if (comma == std::string::npos) comma = clause.size();
    parts.push_back(Trim(clause.substr(start, comma - start)));
    start = comma + 1;
  }
  size_t eq = parts[0].find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == parts[0].size()) {
    *error = "clause must start with <point>=<mode>: '" + clause + "'";
    return false;
  }
  *point = parts[0].substr(0, eq);
  std::string mode = parts[0].substr(eq + 1);
  if (mode == "error") {
    config->mode = Mode::kError;
  } else if (mode == "latency") {
    config->mode = Mode::kLatency;
  } else if (mode == "short_write") {
    config->mode = Mode::kShortWrite;
  } else {
    *error = "unknown fault mode '" + mode + "'";
    return false;
  }
  // FNV-1a of the point name: distinct points get distinct deterministic
  // streams without any spec plumbing.
  config->rng = Fnv1a64(*point) | 1ULL;
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].empty()) continue;
    size_t kv = parts[i].find('=');
    if (kv == std::string::npos) {
      *error = "expected key=value, got '" + parts[i] + "'";
      return false;
    }
    std::string key = parts[i].substr(0, kv);
    std::string value = parts[i].substr(kv + 1);
    bool ok = true;
    if (key == "p") {
      ok = ParseDouble(value, &config->p) && config->p >= 0.0 && config->p <= 1.0;
    } else if (key == "times") {
      ok = ParseInt(value, &config->times) && config->times >= 0;
    } else if (key == "after") {
      ok = ParseInt(value, &config->after) && config->after >= 0;
    } else if (key == "ms") {
      ok = ParseDouble(value, &config->ms) && config->ms >= 0.0;
    } else if (key == "frac") {
      ok = ParseDouble(value, &config->frac) && config->frac >= 0.0 &&
           config->frac <= 1.0;
    } else if (key == "seed") {
      uint64_t seed = 0;
      ok = ParseU64(value, &seed);
      config->rng = seed | 1ULL;
    } else {
      *error = "unknown fault spec key '" + key + "'";
      return false;
    }
    if (!ok) {
      *error = "bad value for '" + key + "': '" + value + "'";
      return false;
    }
  }
  return true;
}

/// Reads EDGE_FAULT_SPEC once at process start; a malformed env spec is
/// reported to stderr and ignored (the process runs un-faulted rather than
/// silently mis-faulted — CI asserts on injection counters either way).
struct EnvInitializer {
  EnvInitializer() {
    const char* spec = std::getenv("EDGE_FAULT_SPEC");
    if (spec == nullptr || spec[0] == '\0') return;
    std::string error;
    if (!Configure(spec, &error)) {
      std::fprintf(stderr, "EDGE_FAULT_SPEC rejected: %s\n", error.c_str());
    }
  }
};
EnvInitializer g_env_initializer;

}  // namespace

namespace internal {

std::atomic<bool> g_armed{false};

Injection ProbeSlow(const char* point) {
  obs::Registry& registry = obs::Registry::Global();
  double sleep_ms = -1.0;
  Injection result;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    auto it = Points().find(point);
    if (it == Points().end()) return result;
    PointConfig& config = it->second;
    ++config.hits;
    registry.GetCounter(std::string("edge.fault.hits.") + point)->Increment();
    if (config.hits <= config.after) return result;
    if (config.times >= 0 && config.injected >= config.times) return result;
    if (config.p < 1.0 && NextUniform(&config.rng) >= config.p) return result;
    ++config.injected;
    registry.GetCounter("edge.fault.injected")->Increment();
    registry.GetCounter(std::string("edge.fault.injected.") + point)->Increment();
    switch (config.mode) {
      case Mode::kError:
        result.action = Action::kError;
        break;
      case Mode::kShortWrite:
        result.action = Action::kShortWrite;
        result.keep_fraction = config.frac;
        break;
      case Mode::kLatency:
        sleep_ms = config.ms;  // Sleep outside the lock.
        break;
    }
  }
  if (sleep_ms >= 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms));
  }
  return result;
}

}  // namespace internal

size_t ShortWriteBytes(const Injection& injection, size_t full_bytes) {
  if (injection.action != Action::kShortWrite) return full_bytes;
  double frac = std::clamp(injection.keep_fraction, 0.0, 1.0);
  return static_cast<size_t>(static_cast<double>(full_bytes) * frac);
}

bool Configure(const std::string& spec, std::string* error) {
  std::map<std::string, PointConfig> parsed;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t semi = spec.find(';', start);
    if (semi == std::string::npos) semi = spec.size();
    std::string clause = Trim(spec.substr(start, semi - start));
    start = semi + 1;
    if (clause.empty()) continue;
    std::string point;
    PointConfig config;
    std::string local_error;
    if (!ParseClause(clause, &point, &config, &local_error)) {
      if (error != nullptr) *error = local_error;
      return false;
    }
    parsed[point] = config;
  }
  {
    std::lock_guard<std::mutex> lock(g_mu);
    Points() = std::move(parsed);
    internal::g_armed.store(!Points().empty(), std::memory_order_relaxed);
    obs::Registry::Global().GetGauge("edge.fault.armed")->Set(Points().empty() ? 0.0
                                                                               : 1.0);
  }
  return true;
}

void Disarm() {
  std::lock_guard<std::mutex> lock(g_mu);
  Points().clear();
  internal::g_armed.store(false, std::memory_order_relaxed);
  obs::Registry::Global().GetGauge("edge.fault.armed")->Set(0.0);
}

long long InjectedCount(const std::string& point) {
  std::lock_guard<std::mutex> lock(g_mu);
  auto it = Points().find(point);
  return it == Points().end() ? 0 : it->second.injected;
}

}  // namespace edge::fault
