#ifndef EDGE_COMMON_FILE_UTIL_H_
#define EDGE_COMMON_FILE_UTIL_H_

#include <functional>
#include <string>

#include "edge/common/status.h"

/// \file
/// Crash-safe file primitives for checkpoint I/O, with named fault points
/// (edge/fault/fault.h) on every operation so chaos tests can exercise the
/// recovery paths deterministically. DESIGN.md §12.

namespace edge {

/// True when `path` exists and is openable for reading.
bool FileExists(const std::string& path);

/// Reads the whole file into *out. Fault point `fault_point` (default
/// "io.file.read") can inject an error or latency.
Status ReadFileToString(const std::string& path, std::string* out,
                        const char* fault_point = "io.file.read");

/// Atomic replace: writes `content` to `path + ".tmp"`, flushes and fsyncs,
/// then rename(2)s over `path` — a reader never observes a half-written
/// final file from a *real* crash.
///
/// Fault semantics: an injected kError fails before touching the filesystem
/// (the old file survives untouched). An injected kShortWrite persists only
/// a prefix AND STILL RETURNS OK — it simulates a torn write that the
/// syscall layer reported as successful (power loss between write-back and
/// rename), which is exactly the failure a verify-after-write or a
/// checksummed loader must catch. Callers that must be crash-safe use
/// WriteFileVerified.
Status WriteFileAtomic(const std::string& path, const std::string& content,
                       const char* fault_point = "io.file.write");

/// The crash-safe write: WriteFileAtomic (fault point `write_point`), then
/// read the file back (fault point `verify_point`) and byte-compare, retried
/// with backoff up to 4 times. A torn write reported as durable therefore
/// comes back as a retry and, if it persists, an error — never as Ok with a
/// truncated file at `path`.
Status WriteFileVerified(const std::string& path, const std::string& content,
                         const char* write_point, const char* verify_point);

/// Runs `fn` up to `attempts` times, sleeping base_backoff_ms * 2^k between
/// tries; returns the first Ok or the last error. attempts must be >= 1.
Status RetryWithBackoff(int attempts, double base_backoff_ms,
                        const std::function<Status()>& fn);

}  // namespace edge

#endif  // EDGE_COMMON_FILE_UTIL_H_
