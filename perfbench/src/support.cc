#include "support.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SelfMaxRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

void Result::Fail(const std::string& why) {
  ++failed;
  // Log the first few causes; a systematic fault would flood stderr.
  if (failed <= 5) std::cerr << "perfbench: failed op: " << why << "\n";
}

// ---------------------------------------------------------------------------

Child::~Child() {
  if (pid_ > 0) Stop();
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::Spawn(const std::vector<std::string>& argv, bool capture_stdout) {
  Stop();
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  pending_.clear();
  int pipe_fds[2] = {-1, -1};
  if (capture_stdout && ::pipe(pipe_fds) != 0) return false;
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  started_ = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (capture_stdout) {
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
    } else {
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) ::dup2(null_fd, STDOUT_FILENO);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  if (capture_stdout) {
    ::close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
  }
  return true;
}

ChildExit Child::Wait() {
  ChildExit exit;
  if (pid_ <= 0) return exit;
  int status = 0;
  rusage usage{};
  while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  exit.wall_s = SecondsSince(started_);
  exit.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  exit.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  pid_ = -1;
  return exit;
}

std::string Child::ReadLineContaining(const std::string& needle,
                                      double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  while (out_fd_ >= 0) {
    std::size_t newline;
    while ((newline = pending_.find('\n')) != std::string::npos) {
      std::string line = pending_.substr(0, newline);
      pending_.erase(0, newline + 1);
      if (line.find(needle) != std::string::npos) return line;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return "";
    pollfd pfd{out_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left)) <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n <= 0) return "";
    pending_.append(chunk, static_cast<std::size_t>(n));
  }
  return "";
}

double Child::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

ChildExit Child::Stop() {
  if (pid_ <= 0) return {};
  ::kill(pid_, SIGTERM);
  // Poll without reaping so Wait() still collects the rusage.
  const auto exited = [this] {
    siginfo_t info{};
    return ::waitid(P_PID, static_cast<id_t>(pid_), &info,
                    WEXITED | WNOHANG | WNOWAIT) == 0 &&
           info.si_pid == pid_;
  };
  for (int i = 0; i < 500 && !exited(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!exited()) ::kill(pid_, SIGKILL);
  return Wait();
}

ChildExit RunChild(const std::vector<std::string>& argv) {
  Child child;
  if (!child.Spawn(argv, /*capture_stdout=*/false)) return {};
  return child.Wait();
}

// ---------------------------------------------------------------------------

HttpClient::~HttpClient() { Close(); }

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::Connect(int port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return true;
}

bool HttpClient::Get(const std::string& target, int* status,
                     std::string* body) {
  if (fd_ < 0 && !Connect(port_)) return false;
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::size_t header_end = std::string::npos;
  std::size_t content_length = 0;
  bool keep_alive = true;
  while (true) {
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        header_end += 4;
        const std::string head = buffer_.substr(0, header_end);
        if (head.rfind("HTTP/1.", 0) != 0 || head.size() < 12) {
          Close();
          return false;
        }
        *status = std::atoi(head.c_str() + 9);
        std::string lower = head;
        std::transform(lower.begin(), lower.end(), lower.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        const std::size_t length_at = lower.find("\r\ncontent-length:");
        if (length_at == std::string::npos) {
          Close();
          return false;
        }
        content_length = std::strtoull(lower.c_str() + length_at + 17,
                                       nullptr, 10);
        keep_alive = lower.find("\r\nconnection: close") == std::string::npos;
      }
    }
    if (header_end != std::string::npos &&
        buffer_.size() >= header_end + content_length) {
      body->assign(buffer_, header_end, content_length);
      buffer_.erase(0, header_end + content_length);
      if (!keep_alive) Close();
      return true;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string UrlEncode(const std::string& text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const unsigned char c : text) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~' ||
        c == ':' || c == ',') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

double JsonNumber(const std::string& json, const std::string& name,
                  const std::string& key) {
  std::size_t at = json.find("\"" + name + "\":");
  if (at == std::string::npos) return 0.0;
  at += name.size() + 3;
  if (!key.empty()) {
    const std::size_t end = json.find('}', at);
    at = json.find("\"" + key + "\":", at);
    if (at == std::string::npos || at > end) return 0.0;
    at += key.size() + 3;
  }
  return std::strtod(json.c_str() + at, nullptr);
}

// ---------------------------------------------------------------------------

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  out << "{\"traceEvents\":[";
  char line[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name, s.thread,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

double HostCalibrationMs() {
  std::vector<double> data(8 << 20, 1.0);  // 64 MB
  std::vector<double> times;
  double sink = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    double acc = 0.0;
    for (int pass = 0; pass < 4; ++pass) {
      for (double& x : data) {
        x = x * 1.0000001 + 1e-9;
        acc += x;
      }
    }
    sink += acc;
    times.push_back(MicrosSince(start) / 1e3);
  }
  return sink > 0.0 ? Median(times) : 0.0;
}

std::uint64_t FileSize(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

bool FilesEqual(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::vector<char> ba(1 << 20);
  std::vector<char> bb(1 << 20);
  while (true) {
    fa.read(ba.data(), static_cast<std::streamsize>(ba.size()));
    fb.read(bb.data(), static_cast<std::streamsize>(bb.size()));
    const std::streamsize na = fa.gcount();
    if (na != fb.gcount()) return false;
    if (std::memcmp(ba.data(), bb.data(), static_cast<std::size_t>(na)) != 0) {
      return false;
    }
    if (na == 0 || !fa || !fb) return fa.eof() && fb.eof();
  }
}

}  // namespace perfbench
