// One end-to-end run against the shipped streamq_server: spawn it as a
// child process, CREATE the workload's streams, drive the timed window over
// loopback TCP from one thread per connection, then check every answer and
// crash-restart the server. Server CPU and memory come from /proc/<pid>,
// server-side counts from /metrics scraped at the window's edges.

#ifndef PERFBENCH_TCP_RUN_H_
#define PERFBENCH_TCP_RUN_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util.h"
#include "workload.h"

namespace perfbench {

struct ServerConfig {
  std::string binary;
  std::string data_dir;
  bool audit = false;
  uint64_t audit_interval_ms = 0;
};

/// The server as a child process. The destructor SIGKILLs and reaps it; the
/// child also dies with the benchmark (PR_SET_PDEATHSIG).
class ServerProcess {
 public:
  /// Spawns the server on an ephemeral loopback port and waits until it
  /// listens. nullptr (with *error set) on failure.
  static std::unique_ptr<ServerProcess> Spawn(const ServerConfig& config,
                                              std::string* error);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  /// SIGKILL, then wait until the process is gone.
  void Kill();

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

struct TcpRunOptions {
  ServerConfig server;
  uint64_t seed = 1;
  int seconds = 10;
  /// Server spawn + CREATE repetitions; setup_s is their median.
  int setup_reps = 9;
  /// Record one client span per request.
  bool spans = false;
  /// Run the bulk workloads' FLUSH/read probe after the window.
  bool probe = true;
  /// Crash-restart the server after the checks (recovery_s).
  bool crash = true;
  /// When non-empty, the killed server's data dir is copied here before
  /// the restart (the layer replay times recovery on the copy).
  std::string killed_copy;
};

struct TcpRunResult {
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool generator_fell_behind = false;

  std::vector<double> setup_s;
  double ingest_mvals_per_s = 0.0;
  std::vector<Timed> batch_ack_us;
  std::vector<Timed> flush_ms;
  std::vector<Timed> query_us;
  std::vector<double> lag_ms;
  uint64_t values_acked = 0;
  double server_cpu_s = 0.0;
  double server_rss_mb = 0.0;
  double recovery_s = 0.0;
  /// Worst checked answer error over eps (QUERY and RANK).
  double err_over_eps = 0.0;

  Scrape before;      // at the window's start
  Scrape after;       // at the window's end, after the drain
  Scrape after_reads; // after the probe phase and the checks
  SpanLog spans;
};

/// Runs one workload end to end. Always returns; problems land in
/// failures / failed.
TcpRunResult RunTcp(const WorkloadSpec& spec,
                    const std::vector<FramePool>& pools,
                    const TcpRunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_TCP_RUN_H_
