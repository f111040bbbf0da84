#include "edge/common/file_util.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "edge/common/check.h"
#include "edge/fault/fault.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace edge {

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

Status ReadFileToString(const std::string& path, std::string* out,
                        const char* fault_point) {
  EDGE_CHECK(out != nullptr);
  if (fault::Probe(fault_point).action == fault::Action::kError) {
    return Status::Internal("injected fault at '" + std::string(fault_point) +
                            "' reading " + path);
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path + " for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::Internal("read error on " + path);
  *out = buffer.str();
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::string& content,
                       const char* fault_point) {
  fault::Injection injection = fault::Probe(fault_point);
  if (injection.action == fault::Action::kError) {
    return Status::Internal("injected fault at '" + std::string(fault_point) +
                            "' writing " + path);
  }
  size_t bytes = fault::ShortWriteBytes(injection, content.size());

  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp_path + " for writing");
  }
  size_t written = bytes == 0 ? 0 : std::fwrite(content.data(), 1, bytes, f);
  bool flush_ok = std::fflush(f) == 0;
#ifndef _WIN32
  bool sync_ok = fsync(fileno(f)) == 0;
#else
  bool sync_ok = true;
#endif
  bool close_ok = std::fclose(f) == 0;
  if (written != bytes || !flush_ok || !sync_ok || !close_ok) {
    std::remove(tmp_path.c_str());
    return Status::Internal("failed writing " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::Internal("cannot rename " + tmp_path + " -> " + path);
  }
  // A short write deliberately returns Ok: it models a crash-torn file the
  // syscalls reported as durable. Crash-safe callers verify by readback.
  return Status::Ok();
}

Status WriteFileVerified(const std::string& path, const std::string& content,
                         const char* write_point, const char* verify_point) {
  // Byte equality on the readback is strictly stronger than re-parsing.
  return RetryWithBackoff(/*attempts=*/4, /*base_backoff_ms=*/1.0, [&]() {
    Status status = WriteFileAtomic(path, content, write_point);
    if (!status.ok()) return status;
    std::string readback;
    status = ReadFileToString(path, &readback, verify_point);
    if (!status.ok()) return status;
    if (readback != content) {
      return Status::Internal("write verification mismatch (torn write) at " + path);
    }
    return Status::Ok();
  });
}

Status RetryWithBackoff(int attempts, double base_backoff_ms,
                        const std::function<Status()>& fn) {
  EDGE_CHECK_GE(attempts, 1);
  Status status;
  double backoff_ms = base_backoff_ms;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
      backoff_ms *= 2.0;
    }
    status = fn();
    if (status.ok()) return status;
  }
  return status;
}

}  // namespace edge
