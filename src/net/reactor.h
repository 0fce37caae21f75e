// Single-threaded TCP event loop driving a StreamqServer: accepts
// connections on one listening socket and pumps their sessions on
// readiness. Each iteration rebuilds a poll() set from the server's
// interest -- WantsRead/WantsWrite -- so a parked session is simply absent
// from the read set: that absence is the backpressure.
//
// Parked work (a session waiting for an ingest ring to drain or a FLUSH
// mark to advance) has no fd to fire; while any exists the loop polls with
// a 1 ms timeout and re-pumps, so rings drain promptly without a busy spin
// when idle.
//
// Shutdown() is thread-safe: it writes to a self-pipe in the poll set,
// waking the loop immediately.

#ifndef STREAMQ_NET_REACTOR_H_
#define STREAMQ_NET_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/server.h"

namespace streamq::net {

struct ReactorOptions {
  std::string bind_addr = "127.0.0.1";
  /// 0 = ephemeral (the bound port is reported by port()).
  uint16_t port = 0;
  /// Hard deadline for a RequestDrain(): sessions that have not finished
  /// flushing by then are force-closed and Run() returns.
  int drain_timeout_ms = 5000;
};

/// What a graceful drain accomplished (read after Run() returns).
struct DrainSummary {
  bool drained = false;           ///< a drain ran (vs a plain Shutdown)
  size_t sessions_at_begin = 0;   ///< open sessions when the drain started
  size_t sessions_forced = 0;     ///< still open at the deadline (hard-closed)
  uint64_t flushes_resolved = 0;  ///< FLUSH barriers resolved during drain
  uint64_t duration_ms = 0;
};

class Reactor {
 public:
  /// Binds and listens; nullptr when the socket cannot be set up. `server`
  /// is unowned and must outlive the reactor; the reactor thread becomes
  /// the server's (single) pump thread.
  static std::unique_ptr<Reactor> Create(StreamqServer* server,
                                         const ReactorOptions& options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  uint16_t port() const { return port_; }

  /// Runs until Shutdown(). Call from the thread that owns the server.
  void Run();

  /// Requests Run() to return; safe from any thread, idempotent.
  void Shutdown();

  /// Requests a graceful drain: the server stops admitting frames, parked
  /// FLUSH barriers resolve against DurableSeq, write queues flush, and
  /// Run() returns once every session has closed -- or force-closes the
  /// stragglers at options.drain_timeout_ms. Async-signal-safe (atomic +
  /// self-pipe write), so a SIGTERM handler may call it directly.
  void RequestDrain();

  /// Valid after Run() returns from a RequestDrain().
  const DrainSummary& drain_summary() const { return drain_summary_; }

 private:
  Reactor(StreamqServer* server, const ReactorOptions& options);
  bool Init();
  /// One accept+poll+pump iteration; Run() loops on it. Returns false once
  /// Shutdown() has been requested.
  bool RunOnce(int timeout_ms);
  void AcceptPending();
  void PumpReady(const std::vector<uint64_t>& ready);

  StreamqServer* server_;
  ReactorOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> drain_requested_{false};
  uint64_t drain_begin_ns_ = 0;
  uint64_t drain_deadline_ns_ = 0;
  DrainSummary drain_summary_;
};

}  // namespace streamq::net

#endif  // STREAMQ_NET_REACTOR_H_
