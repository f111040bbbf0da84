#include "phases.h"

#include <cstdio>

namespace perfbench {

namespace {

void SendPredict(Client* client, size_t conn, Slot slot, const std::string& text) {
  std::string line = "{\"id\":";
  AppendJsonString(&line, slot.id);
  line += ",\"text\":";
  AppendJsonString(&line, text);
  line.push_back('}');
  client->Send(conn, line, std::move(slot));
}

void SendReload(Client* client, size_t conn, Slot slot, const std::string& path) {
  std::string line = "{\"id\":";
  AppendJsonString(&line, slot.id);
  line += ",\"reload\":";
  AppendJsonString(&line, path);
  line.push_back('}');
  client->Send(conn, line, std::move(slot));
}

/// How long a phase waits for its last answers before counting them failed.
constexpr auto kDrainTimeout = std::chrono::seconds(20);

/// Checks one answer and books it into `phase`.
void BookAnswer(PhaseContext* ctx, PhaseResult* phase, const Slot& slot,
                const std::string& line, Clock::time_point at) {
  if (slot.control) {
    Json doc;
    std::string error;
    const Json* reload = nullptr;
    if (ParseJson(line, &doc, &error)) reload = doc.Find("reload");
    if (reload != nullptr && reload->IsString() && reload->string == "ok") {
      phase->reload_ms.push_back(Ms(slot.sent, at));
    } else {
      ++phase->failed;
      std::printf("%s: reload failed: %s\n", phase->name.c_str(), line.substr(0, 300).c_str());
    }
    return;
  }
  AnswerFacts facts;
  std::string error;
  Verdict verdict =
      ctx->checker->Check((*ctx->stream)[slot.request], line, slot.id, &facts, &error);
  if (verdict == Verdict::kFailed) {
    ++phase->failed;
    return;
  }
  if (verdict == Verdict::kInvalid) {
    ctx->problems->push_back(phase->name + ": " + error);
    return;
  }
  ++phase->answered;
  phase->latency_ms.push_back(Ms(slot.due, at));
  if (facts.has_telemetry) phase->wire_ms.push_back(Ms(slot.sent, at) - facts.total_ms);
  phase->facts.push_back(facts);
  phase->requests.push_back(slot.request);
}

Slot NextSlot(PhaseContext* ctx, Clock::time_point due) {
  Slot slot;
  slot.id = "r" + std::to_string(ctx->next_id++);
  slot.request = ctx->cursor;
  ctx->cursor = (ctx->cursor + 1) % ctx->stream->size();
  slot.due = due;
  slot.sent = Clock::now();
  return slot;
}

/// Waits for every outstanding answer (whatever does not come counts failed),
/// then checks every answer of the phase.
void Drain(Client* client, PhaseContext* ctx, PhaseResult* phase,
           const Client::OnLine& on_line) {
  Clock::time_point deadline = Clock::now() + kDrainTimeout;
  while (client->outstanding() > 0 && Clock::now() < deadline) {
    if (!client->Pump(std::min(deadline, Clock::now() + std::chrono::milliseconds(50)),
                      on_line)) {
      break;
    }
  }
  if (client->outstanding() > 0) {
    phase->failed += client->outstanding();
    std::printf("%s: %zu requests never answered\n", phase->name.c_str(),
                client->outstanding());
  }
  for (const Arrival& arrival : phase->arrivals) {
    BookAnswer(ctx, phase, arrival.slot, arrival.line, arrival.at);
  }
  phase->arrivals = {};
}

void Record(PhaseResult* phase, const Slot& slot, std::string_view line,
            Clock::time_point at) {
  phase->arrivals.push_back({slot, std::string(line), at});
}

}  // namespace

PhaseResult RunOpenLoop(const std::string& name, Client* client, PhaseContext* ctx,
                        double rate, size_t count, uint64_t seed, size_t reload_every,
                        const std::string& reload_path) {
  PhaseResult phase;
  phase.name = name;
  auto on_line = [&](size_t, const Slot& slot, std::string_view line, Clock::time_point at) {
    Record(&phase, slot, line, at);
  };
  Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  Pacer pacer(start, PoissonOffsets(rate, count, seed));
  bool healthy = true;
  size_t next = 0;
  while (next < count && healthy) {
    Clock::time_point now = Clock::now();
    while (next < count && pacer.Due(next) <= now) {
      Slot slot = NextSlot(ctx, pacer.Due(next));
      size_t request = slot.request;
      pacer.RecordSend(next, slot.sent);
      size_t conn = next % client->connections();
      ++phase.attempted;
      if (reload_every > 0 && (next + 1) % reload_every == 0) {
        slot.control = true;
        SendReload(client, conn, std::move(slot), reload_path);
      } else {
        SendPredict(client, conn, std::move(slot), (*ctx->stream)[request].text);
      }
      ++next;
      now = Clock::now();
    }
    if (next < count) healthy = client->Pump(pacer.Due(next), on_line);
  }
  phase.elapsed_s = Ms(start, Clock::now()) / 1e3;
  if (!healthy) ctx->problems->push_back(name + ": a connection broke");
  Drain(client, ctx, &phase, on_line);
  phase.late_ms = pacer.lateness_ms();
  return phase;
}

PhaseResult RunClosedLoop(const std::string& name, Client* client, PhaseContext* ctx,
                          size_t window, double seconds) {
  PhaseResult phase;
  phase.name = name;
  Clock::time_point start = Clock::now();
  Clock::time_point stop =
      start + std::chrono::microseconds(static_cast<long>(seconds * 1e6));
  std::vector<size_t> refill;
  auto send = [&](size_t conn) {
    Slot slot = NextSlot(ctx, Clock::now());
    size_t request = slot.request;
    ++phase.attempted;
    SendPredict(client, conn, std::move(slot), (*ctx->stream)[request].text);
  };
  auto on_line = [&](size_t conn, const Slot& slot, std::string_view line,
                     Clock::time_point at) {
    Record(&phase, slot, line, at);
    if (at <= stop) {
      ++phase.in_window;
      refill.push_back(conn);
    }
  };
  for (size_t c = 0; c < client->connections(); ++c) {
    for (size_t w = 0; w < window; ++w) send(c);
  }
  bool healthy = true;
  while (Clock::now() < stop && healthy) {
    healthy = client->Pump(stop, on_line);
    if (Clock::now() >= stop) break;
    for (size_t conn : refill) send(conn);
    refill.clear();
  }
  if (!healthy) ctx->problems->push_back(name + ": a connection broke");
  phase.elapsed_s = seconds;
  Drain(client, ctx, &phase, on_line);
  return phase;
}

double Throughput(const PhaseResult& phase) {
  return static_cast<double>(phase.in_window) / phase.elapsed_s;
}

}  // namespace perfbench
