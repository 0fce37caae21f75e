#include "net/reactor.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "net/socket.h"

namespace streamq::net {
namespace {

// Poll timeout while sessions have parked work (the ring-drain retry
// cadence, also used while draining) and while fully idle.
constexpr int kParkedTimeoutMs = 1;
constexpr int kIdleTimeoutMs = 50;

bool MakeNonBlockingPipe(int fds[2]) {
  if (::pipe(fds) != 0) return false;
  for (int i = 0; i < 2; ++i) {
    const int flags = ::fcntl(fds[i], F_GETFL, 0);
    if (flags < 0 || ::fcntl(fds[i], F_SETFL, flags | O_NONBLOCK) != 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      fds[0] = fds[1] = -1;
      return false;
    }
  }
  return true;
}

}  // namespace

Reactor::Reactor(StreamqServer* server, const ReactorOptions& options)
    : server_(server), options_(options) {}

std::unique_ptr<Reactor> Reactor::Create(StreamqServer* server,
                                         const ReactorOptions& options) {
  std::unique_ptr<Reactor> reactor(new Reactor(server, options));
  if (!reactor->Init()) return nullptr;
  return reactor;
}

bool Reactor::Init() {
  listen_fd_ = TcpListen(options_.bind_addr, options_.port, &port_);
  if (listen_fd_ < 0) return false;
  if (!MakeNonBlockingPipe(wake_pipe_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  return true;
}

Reactor::~Reactor() {
  Shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void Reactor::Shutdown() {
  if (shutdown_.exchange(true)) return;
  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &b, 1);
  }
}

void Reactor::RequestDrain() {
  if (drain_requested_.exchange(true)) return;
  if (wake_pipe_[1] >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t rc = ::write(wake_pipe_[1], &b, 1);
  }
}

void Reactor::AcceptPending() {
  for (;;) {
    std::unique_ptr<SocketConn> conn = TcpAccept(listen_fd_);
    if (conn == nullptr) break;
    server_->AddConn(std::move(conn));
  }
}

void Reactor::PumpReady(const std::vector<uint64_t>& ready) {
  for (const uint64_t id : ready) server_->Pump(id);
  // Parked sessions have no fd event to fire; retry them every iteration.
  // During a drain every session must pump, fd event or not: a session
  // with nothing left to flush closes on its next pump.
  if (server_->HasParkedWork() || server_->draining()) server_->PumpAll();
  // Governance deadlines are timer-driven too: an idle or stalled session
  // raises no fd event, so the sweep rides every loop iteration.
  server_->SweepDeadlines();
}

bool Reactor::RunOnce(int timeout_ms) {
  if (shutdown_.load(std::memory_order_acquire)) return false;
  if (drain_requested_.load(std::memory_order_acquire)) {
    if (!server_->draining()) {
      server_->BeginDrain();
      drain_begin_ns_ = obs::TickClock::NowNanos();
      drain_deadline_ns_ =
          drain_begin_ns_ +
          static_cast<uint64_t>(options_.drain_timeout_ms) * 1'000'000ull;
      drain_summary_.sessions_at_begin = server_->SessionCount();
    }
    const uint64_t now = obs::TickClock::NowNanos();
    if (server_->DrainComplete() || now >= drain_deadline_ns_) {
      drain_summary_.sessions_forced = server_->CloseAllSessions();
      drain_summary_.flushes_resolved = server_->DrainFlushesResolved();
      drain_summary_.duration_ms = (now - drain_begin_ns_) / 1'000'000ull;
      drain_summary_.drained = true;
      shutdown_.store(true, std::memory_order_release);
      return false;
    }
    // Draining sessions close on pump, not on fd events; keep the loop
    // brisk so write queues flush and FLUSH barriers resolve promptly.
    timeout_ms = std::min(timeout_ms, kParkedTimeoutMs);
  }
  if (server_->HasParkedWork()) {
    timeout_ms = std::min(timeout_ms, kParkedTimeoutMs);
  }

  // One poll() set, rebuilt from the server's interest every iteration:
  // interest can change for any session (a DROP unparks bystanders, a
  // response enqueue flips WantsWrite). An epoll interest cache would save
  // nothing, since the deadline sweep in PumpReady walks every session on
  // every iteration anyway -- per-iteration work is O(sessions) with either
  // backend -- and poll() runs on every POSIX target.
  std::vector<struct pollfd> fds;
  std::vector<uint64_t> ids;
  fds.push_back({wake_pipe_[0], POLLIN, 0});
  fds.push_back({listen_fd_, POLLIN, 0});
  for (const uint64_t id : server_->SessionIds()) {
    const int fd = server_->SessionFd(id);
    if (fd < 0) continue;
    short events = 0;
    if (server_->WantsRead(id)) events |= POLLIN;
    if (server_->WantsWrite(id)) events |= POLLOUT;
    fds.push_back({fd, events, 0});
    ids.push_back(id);
  }
  const int n = ::poll(fds.data(), fds.size(), timeout_ms);
  std::vector<uint64_t> ready;
  if (n > 0) {
    if (fds[0].revents != 0) {
      char buf[64];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[1].revents != 0) AcceptPending();
    for (size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents != 0) ready.push_back(ids[i - 2]);
    }
  }
  PumpReady(ready);
  return !shutdown_.load(std::memory_order_acquire);
}

void Reactor::Run() {
  while (RunOnce(kIdleTimeoutMs)) {
  }
}

}  // namespace streamq::net
