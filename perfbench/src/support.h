// Shared plumbing for the benchmark runner: child processes, a minimal
// keep-alive HTTP client, span recording, statistics and the result
// record every workload fills in.
#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MicrosSince(Clock::time_point start);
std::int64_t NowNs();

/// Peak resident set of this process so far (getrusage ru_maxrss), MB.
double SelfMaxRssMb();

/// Command-line settings shared by every workload.
struct Settings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string tsctool;  ///< the tsctool binary built from this checkout
  std::string workdir;  ///< scratch directory inside the checkout
  std::size_t threads = 1;  ///< hardware threads = client/build threads
};

/// What one run reports. `metrics` keeps insertion order for printing.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::map<std::string, std::string> context;  ///< machine/input facts
  std::string spans_path;

  void Metric(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& why);  ///< counts one failed op and logs it
};

// ---------------------------------------------------------------------------
// Child processes. Every child is killed when the runner dies
// (PR_SET_PDEATHSIG) and reaped by Wait/Stop.

struct ChildExit {
  bool ok = false;       ///< exited with status 0
  double wall_s = 0.0;   ///< spawn to reap
  double maxrss_mb = 0.0;  ///< the child's own ru_maxrss
};

class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts argv[0] with the given arguments. stdout goes to a pipe when
  /// `capture_stdout`, else to /dev/null; stderr is inherited.
  bool Spawn(const std::vector<std::string>& argv, bool capture_stdout);
  /// Waits for exit and reports wall time and peak RSS.
  ChildExit Wait();
  /// Reads stdout lines until one contains `needle` or `timeout_s`
  /// passes; returns that line ("" on timeout or EOF).
  std::string ReadLineContaining(const std::string& needle, double timeout_s);
  /// VmHWM of the live child from /proc, MB (0 when unreadable).
  double PeakRssMb() const;
  /// SIGTERM, then Wait (SIGKILL after 5 s).
  ChildExit Stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;
  Clock::time_point started_{};
};

/// Runs a child to completion with stdout discarded.
ChildExit RunChild(const std::vector<std::string>& argv);

// ---------------------------------------------------------------------------
// HTTP/1.1 keep-alive client for GET requests.

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient();
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(int port);
  /// Sends one GET and reads the Content-Length-framed reply. Returns
  /// false on any transport error (the connection is then closed and the
  /// next call reconnects).
  bool Get(const std::string& target, int* status, std::string* body);

 private:
  void Close();
  int fd_ = -1;
  int port_ = 0;
  std::string buffer_;
};

std::string UrlEncode(const std::string& text);

/// Reads one number from a /metrics?format=json body: the value of
/// `"name":` (a counter or gauge), or with `key` the value of `"key":`
/// inside the `"name":` object (a histogram field such as "p50").
/// Missing entries read as 0.
double JsonNumber(const std::string& json, const std::string& name,
                  const std::string& key = "");

// ---------------------------------------------------------------------------
// Spans: kept in memory, written as Chrome trace-event JSON at the end.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;  ///< shared by every span of one request
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Writes spans as {"traceEvents": [...]} (complete events, µs).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Machine facts for the result context.
std::string CpuModel();
/// Median time of a fixed single-thread kernel (a 64 MB streaming
/// multiply-add, 4 passes), in ms: how fast this host is right now.
double HostCalibrationMs();
std::uint64_t FileSize(const std::string& path);
bool FilesEqual(const std::string& a, const std::string& b);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
