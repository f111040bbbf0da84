#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinCallingThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

Child::Child(const std::vector<std::string>& argv, const std::string& stderr_path,
             const std::vector<std::string>& env, int cpu)
    : stderr_path_(stderr_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  for (const std::string& e : env) env_strings.push_back(e);
  std::vector<char*> envp;
  for (std::string& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  // A spawned process inherits the spawning thread's CPU mask, so the child
  // is confined from its first instruction, before it starts any thread.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  bool pinned = cpu >= 0 && sched_getaffinity(0, sizeof(saved), &saved) == 0;
  if (pinned) PinCallingThread({cpu});
  int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), envp.data());
  if (pinned) sched_setaffinity(0, sizeof(saved), &saved);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
}

Child::~Child() { Stop(5.0); }

uint16_t Child::WaitForListen(double timeout_s) {
  static const std::regex kListen("listening on [^ :]+:([0-9]+)");
  Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(static_cast<long>(timeout_s * 1e6));
  while (Clock::now() < deadline) {
    std::ifstream in(stderr_path_);
    std::stringstream text;
    text << in.rdbuf();
    std::smatch match;
    std::string s = text.str();
    if (std::regex_search(s, match, kListen)) {
      return static_cast<uint16_t>(std::stoul(match[1].str()));
    }
    int status = 0;
    if (pid_ > 0 && waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      status_ = status;
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return 0;
}

long Child::PeakRssKib() const { return perfbench::PeakRssKib(std::to_string(pid_)); }

long PeakRssKib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

double Child::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // After the command name: state is field 3; utime and stime are 14 and 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14 || index == 15) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int Child::Stop(double grace_s) {
  if (pid_ <= 0) return status_;
  kill(pid_, SIGTERM);
  Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(static_cast<long>(grace_s * 1e6));
  int status = 0;
  while (true) {
    pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (Clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      status = -1;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  status_ = status;
  return status_;
}

namespace {

int Dial(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

std::string RoundTrip(uint16_t port, const std::string& line, double timeout_s) {
  int fd = Dial(port);
  if (fd < 0) return "";
  std::string out = line + "\n";
  std::string in;
  Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(static_cast<long>(timeout_s * 1e6));
  size_t written = 0;
  while (written < out.size()) {
    ssize_t n = write(fd, out.data() + written, out.size() - written);
    if (n <= 0) {
      close(fd);
      return "";
    }
    written += static_cast<size_t>(n);
  }
  while (in.find('\n') == std::string::npos && Clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (poll(&p, 1, 5) <= 0) continue;
    char buf[4096];
    ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    in.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  size_t newline = in.find('\n');
  return newline == std::string::npos ? "" : in.substr(0, newline);
}

Client::~Client() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
  }
}

bool Client::Connect(uint16_t port, size_t connections, std::string* error) {
  for (size_t i = 0; i < connections; ++i) {
    Conn conn;
    conn.fd = Dial(port);
    if (conn.fd < 0) {
      *error = "cannot connect to port " + std::to_string(port);
      return false;
    }
    fcntl(conn.fd, F_SETFL, fcntl(conn.fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
  return true;
}

bool Client::Flush(Conn* conn) {
  while (conn->out_offset < conn->out.size()) {
    ssize_t n = write(conn->fd, conn->out.data() + conn->out_offset,
                      conn->out.size() - conn->out_offset);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    conn->out_offset += static_cast<size_t>(n);
  }
  conn->out.clear();
  conn->out_offset = 0;
  return true;
}

void Client::Send(size_t conn, std::string_view line, Slot slot) {
  Conn& c = conns_[conn];
  c.out.append(line);
  c.out.push_back('\n');
  c.slots.push_back(std::move(slot));
  Flush(&c);
}

size_t Client::outstanding() const {
  size_t total = 0;
  for (const Conn& conn : conns_) total += conn.slots.size();
  return total;
}

bool Client::Pump(Clock::time_point until, const OnLine& on_line) {
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) {
    fds[i].fd = conns_[i].fd;
    fds[i].events = POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT);
    fds[i].revents = 0;
  }
  auto wait = until - Clock::now();
  if (wait < Clock::duration::zero()) wait = Clock::duration::zero();
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
  timespec timeout{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
  int ready = ppoll(fds.data(), fds.size(), &timeout, nullptr);
  if (ready < 0) return errno == EINTR;
  bool healthy = true;
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    if ((fds[i].revents & POLLOUT) != 0 && !Flush(&conn)) healthy = false;
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char buf[65536];
    ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      healthy = false;
      continue;
    }
    Clock::time_point at = Clock::now();
    conn.in.append(buf, static_cast<size_t>(n));
    size_t start = 0;
    size_t newline;
    while ((newline = conn.in.find('\n', start)) != std::string::npos) {
      std::string_view line(conn.in.data() + start, newline - start);
      if (conn.slots.empty()) {
        healthy = false;  // An answer nobody asked for.
      } else {
        Slot slot = std::move(conn.slots.front());
        conn.slots.pop_front();
        on_line(i, slot, line, at);
      }
      start = newline + 1;
    }
    conn.in.erase(0, start);
  }
  return healthy;
}

}  // namespace perfbench
