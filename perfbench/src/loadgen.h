#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"

namespace perfbench {

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();

/// Confines the calling thread, and the threads it starts from now on, to
/// `cpus`.
void PinCallingThread(const std::vector<int>& cpus);

/// Peak resident set (VmHWM) in KiB of process `pid` ("self" for this one).
long PeakRssKib(const std::string& pid);

/// A child process of the benchmark (a replica or the router). The
/// destructor terminates it and waits for it, so no path leaves one running.
class Child {
 public:
  /// Starts `argv` with stderr sent to `stderr_path`; `env` entries
  /// ("NAME=value") are added to the inherited environment. `cpu` >= 0
  /// confines the child and every thread it starts to that CPU.
  Child(const std::vector<std::string>& argv, const std::string& stderr_path,
        const std::vector<std::string>& env, int cpu);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  /// Waits until the child announces "listening on HOST:PORT" on stderr and
  /// returns the port, or 0 on timeout or early exit.
  uint16_t WaitForListen(double timeout_s);
  /// Peak resident set (VmHWM) in KiB, read before the child exits.
  long PeakRssKib() const;
  /// User + system CPU seconds the child has used so far.
  double CpuSeconds() const;
  /// SIGTERM, then wait (SIGKILL after `grace_s`). Returns the exit status
  /// (0 = clean exit); idempotent.
  int Stop(double grace_s = 10.0);

 private:
  pid_t pid_ = -1;
  std::string stderr_path_;
  int status_ = 0;
};

/// Sends one line on a fresh connection and returns the one-line answer
/// ("" on failure or timeout).
std::string RoundTrip(uint16_t port, const std::string& line, double timeout_s);

/// One request in flight on a connection.
struct Slot {
  std::string id;
  size_t request = 0;     ///< Index into the workload's request stream.
  bool control = false;   ///< A control verb (reload), not a prediction.
  Clock::time_point due;  ///< When it was due (open loop) or sent (closed).
  Clock::time_point sent;
};

/// Ordered LDJSON streams over several TCP connections, driven from one
/// thread: each connection answers in the order it was sent, so the oldest
/// unanswered slot is the one every arriving line must answer.
class Client {
 public:
  using OnLine = std::function<void(size_t conn, const Slot& slot, std::string_view line,
                                    Clock::time_point at)>;

  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens `connections` connections to 127.0.0.1:port.
  bool Connect(uint16_t port, size_t connections, std::string* error);
  size_t connections() const { return conns_.size(); }
  /// Queues `line` (without newline) on connection `conn` and writes what
  /// the socket takes now.
  void Send(size_t conn, std::string_view line, Slot slot);
  /// Reads and writes until `until` or until some answer arrived, calling
  /// `on_line` for every complete answer line. False when a connection was
  /// closed or broke.
  bool Pump(Clock::time_point until, const OnLine& on_line);
  size_t outstanding() const;

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_offset = 0;
    std::string in;
    std::deque<Slot> slots;
  };
  bool Flush(Conn* conn);
  std::vector<Conn> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
