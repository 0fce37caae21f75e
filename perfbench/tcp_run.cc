#include "tcp_run.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "net/socket.h"

namespace perfbench {

namespace net = streamq::net;
namespace fs = std::filesystem;

namespace {

constexpr uint64_t kIoTimeoutNs = 30'000'000'000ull;
constexpr int kMaxFailureNotes = 8;
/// Bulk probe: one request at a time for a quarter of the window, cycling
/// FLUSH, then QUERY/RANK pairs over the phi grid.
constexpr int kProbeReadsPerFlush = 6;
/// Crash-restart repetitions, and the frames per stream pushed between two
/// durable restarts: half the pipeline's checkpoint interval, so none is
/// taken and all of them are WAL tail.
constexpr int kBareRestarts = 9;
constexpr int kDurableRestarts = 5;
constexpr size_t kRefillFrames = 32;

void Note(std::vector<std::string>* failures, const std::string& what) {
  if (static_cast<int>(failures->size()) < kMaxFailureNotes) {
    failures->push_back(what);
  }
}

/// utime + stime of `pid`, in seconds.
double CpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  // The command name is parenthesised and may hold spaces: skip past it.
  const size_t close = content.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(content.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields after the name start at 3 (state); utime is 14, stime 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of `pid`, in MiB.
double PeakRssMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// CPU placement. On a small VM an idle vCPU can take milliseconds to wake,
// which would land in every latency and in the generator's send lag. So the
// generator never sleeps: it busy-polls from one thread pinned to a CPU of
// its own, and the server runs on the remaining CPUs -- like a client on
// another machine.
// ---------------------------------------------------------------------------

struct CpuPlan {
  bool split = false;
  cpu_set_t all;
  cpu_set_t generator;
  cpu_set_t server;
};

const CpuPlan& Plan() {
  static const CpuPlan plan = [] {
    CpuPlan p;
    CPU_ZERO(&p.all);
    CPU_ZERO(&p.generator);
    CPU_ZERO(&p.server);
    if (sched_getaffinity(0, sizeof(p.all), &p.all) != 0) return p;
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &p.all)) last = c;
    }
    if (CPU_COUNT(&p.all) < 2 || last < 0) return p;
    p.server = p.all;
    CPU_CLR(last, &p.server);
    CPU_SET(last, &p.generator);
    p.split = true;
    return p;
  }();
  return plan;
}

/// Pins the calling thread to the generator CPU while the guard lives.
class GeneratorPin {
 public:
  GeneratorPin() {
    if (Plan().split) {
      pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t),
                             &Plan().generator);
    }
  }
  ~GeneratorPin() {
    if (Plan().split) {
      pthread_setaffinity_np(pthread_self(), sizeof(cpu_set_t), &Plan().all);
    }
  }
  GeneratorPin(const GeneratorPin&) = delete;
  GeneratorPin& operator=(const GeneratorPin&) = delete;
};

/// Waits, without sleeping, until `fd` has one of `events` or the deadline
/// passes.
bool SpinUntil(int fd, short events, uint64_t deadline_ns) {
  const timespec zero{0, 0};
  while (NowNs() < deadline_ns) {
    pollfd pfd{fd, events, 0};
    if (::ppoll(&pfd, 1, &zero, nullptr) > 0) return true;
  }
  return false;
}

enum class Kind { kBatch, kFlush, kQuery, kRank };

net::NetOp OpOf(Kind kind) {
  switch (kind) {
    case Kind::kBatch: return net::NetOp::kBatchInsert;
    case Kind::kFlush: return net::NetOp::kFlush;
    case Kind::kQuery: return net::NetOp::kQuery;
    case Kind::kRank: return net::NetOp::kRank;
  }
  return net::NetOp::kStats;
}

const char* SpanName(Kind kind) {
  switch (kind) {
    case Kind::kBatch: return "client.BATCH_INSERT";
    case Kind::kFlush: return "client.FLUSH";
    case Kind::kQuery: return "client.QUERY";
    case Kind::kRank: return "client.RANK";
  }
  return "client";
}

/// A pre-encoded request of a reader or probe connection.
struct ReadReq {
  std::string frame;
  Kind kind = Kind::kQuery;
  uint64_t id = 0;
};

ReadReq MakeRead(Kind kind, uint64_t id, const std::string& stream, double phi,
                 uint64_t value) {
  net::NetRequest req;
  req.id = id;
  req.op = OpOf(kind);
  req.stream = stream;
  req.phi = phi;
  req.value = value;
  return ReadReq{net::EncodeRequest(req), kind, id};
}

/// What one connection sends and on which schedule.
struct LaneSpec {
  const FramePool* pool = nullptr;              // producer lanes
  const std::vector<ReadReq>* reads = nullptr;  // reader / probe lanes
  uint32_t frame_values = 0;
  bool closed = true;
  size_t window = 16;    // closed loop: requests in flight
  double period_ns = 0;  // open loop: gap between scheduled sends
  /// Open loop: send times as offsets from the window's start, instead of
  /// a fixed period (the reader's Poisson arrivals).
  const std::vector<uint64_t>* arrivals = nullptr;
  int flush_every = 0;   // open loop producers
};

struct LaneResult {
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Timed> batch_ack_us, flush_ms, query_us;
  std::vector<double> lag_ns;
  uint64_t frames_acked = 0;
  uint64_t values_acked = 0;
  uint64_t last_ack_ns = 0;
  uint64_t last_flush_value = 0;
  SpanLog spans;
};

/// One connection's sender and receiver, advanced by non-blocking Step()s.
/// Sends never wait for responses (only a closed loop's window bounds what
/// is outstanding), and latency runs from the intended send time, so a
/// stalled server shows as latency, not as a slower schedule.
class Lane {
 public:
  Lane(int fd, const LaneSpec& spec, uint64_t t0, uint64_t t_end, bool spans,
       int track)
      : fd_(fd), spec_(spec), t0_(t0), t_end_(t_end), spans_(spans),
        track_(track), slot_free_ns_(t0), last_progress_(NowNs()) {
    cycle_ = spec.pool != nullptr ? spec.pool->frames.size()
                                  : spec.reads->size();
    rbuf_.resize(size_t{1} << 18);
  }

  /// Returns false once the schedule is over and every response is in, or
  /// the connection failed.
  /// `readable` / `writable`: what a zero-timeout poll of the socket said;
  /// the socket is only touched when it is ready or new requests are queued.
  bool Step(bool readable, bool writable) {
    const uint64_t now = NowNs();
    const uint64_t before = issued_;
    Issue(now);
    if ((writable || issued_ != before) && !Write()) return Finish();
    if (readable && !Read()) return Finish();
    if (!sending_ && inflight_.empty()) return false;
    if (!inflight_.empty() && NowNs() - last_progress_ > kIoTimeoutNs) {
      Note(&r_.failures, "timed out waiting for the server");
      return Finish();
    }
    return true;
  }

  LaneResult& result() { return r_; }
  int fd() const { return fd_; }
  bool wants_write() const { return !outq_.empty(); }

 private:
  struct Inflight {
    Kind kind;
    uint64_t id;
    uint32_t values;
    uint64_t intended_ns;
    uint64_t sent_ns;
    uint64_t end_offset;  // stream offset just past the request's bytes
  };
  struct Out {
    const char* data;
    size_t len;
  };

  uint64_t Due(uint64_t i) const {
    if (spec_.arrivals != nullptr) {
      return i < spec_.arrivals->size() ? t0_ + (*spec_.arrivals)[i] : t_end_;
    }
    return t0_ + static_cast<uint64_t>(static_cast<double>(i) * spec_.period_ns);
  }

  void Push(const std::string& bytes, Kind kind, uint64_t id, uint32_t values,
            uint64_t intended) {
    outq_.push_back(Out{bytes.data(), bytes.size()});
    queued_bytes_ += bytes.size();
    inflight_.push_back(
        Inflight{kind, id, values, intended, 0, queued_bytes_});
    ++r_.attempted;
  }

  /// Queues request number issued_ (from the pool or the read list).
  void IssueOne(uint64_t intended) {
    const size_t f = issued_ % cycle_;
    if (spec_.pool != nullptr) {
      Push(spec_.pool->frames[f], Kind::kBatch, f + 1, spec_.frame_values,
           intended);
      if (spec_.flush_every > 0 &&
          (issued_ + 1) % static_cast<uint64_t>(spec_.flush_every) == 0) {
        Push(spec_.pool->flush_frame, Kind::kFlush, kFlushId, 0, intended);
      }
    } else {
      const ReadReq& req = (*spec_.reads)[f];
      Push(req.frame, req.kind, req.id, 0, intended);
    }
    ++issued_;
  }

  void Issue(uint64_t now) {
    if (!sending_ || now < t0_) return;
    if (spec_.closed) {
      if (now >= t_end_) {
        sending_ = false;
        return;
      }
      while (inflight_.size() < spec_.window) {
        r_.lag_ns.push_back(static_cast<double>(now - slot_free_ns_));
        IssueOne(now);
      }
      return;
    }
    for (;;) {
      const uint64_t when = Due(issued_);
      if (when >= t_end_) {
        sending_ = false;
        return;
      }
      if (when > now) return;
      r_.lag_ns.push_back(static_cast<double>(now - when));
      IssueOne(when);
    }
  }

  bool Write() {
    while (!outq_.empty()) {
      const Out& head = outq_.front();
      const ssize_t n = ::send(fd_, head.data + out_off_, head.len - out_off_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent_bytes_ += static_cast<uint64_t>(n);
        out_off_ += static_cast<size_t>(n);
        if (out_off_ == head.len) {
          outq_.pop_front();
          out_off_ = 0;
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Note(&r_.failures, std::string("send failed: ") + std::strerror(errno));
      return false;
    }
    if (first_unsent_ < inflight_.size()) {
      const uint64_t t = NowNs();
      while (first_unsent_ < inflight_.size() &&
             inflight_[first_unsent_].end_offset <= sent_bytes_) {
        inflight_[first_unsent_].sent_ns = t;
        ++first_unsent_;
        last_progress_ = t;
      }
    }
    return true;
  }

  bool Read() {
    for (;;) {
      const ssize_t n = ::recv(fd_, rbuf_.data(), rbuf_.size(), MSG_DONTWAIT);
      if (n > 0) {
        inbuf_.Append(rbuf_.data(), static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Note(&r_.failures, n == 0 ? std::string("server closed the connection")
                                : std::string("recv failed: ") +
                                      std::strerror(errno));
      return false;
    }
    const uint64_t t_read = NowNs();
    for (;;) {
      const net::FrameScan scan = inbuf_.Next(&frame_);
      if (scan == net::FrameScan::kNeedMore) return true;
      net::NetResponse resp;
      if (scan == net::FrameScan::kBad ||
          !net::DecodeResponse(frame_, &resp) || inflight_.empty()) {
        Note(&r_.failures, "undecodable or unexpected response frame");
        return false;
      }
      Complete(inflight_.front(), resp, t_read);
      inflight_.pop_front();
      if (first_unsent_ > 0) --first_unsent_;
      last_progress_ = t_read;
      slot_free_ns_ = t_read;
    }
  }

  void Complete(const Inflight& head, const net::NetResponse& resp,
                uint64_t t_read) {
    bool good = resp.ok() && resp.id == head.id && resp.op == OpOf(head.kind);
    if (head.kind == Kind::kBatch) good = good && resp.value == head.values;
    ++answered_;
    if (spans_) {
      const uint64_t request = (static_cast<uint64_t>(track_) << 40) | answered_;
      const uint64_t root = r_.spans.Add(SpanName(head.kind), request, 0,
                                         track_, head.intended_ns, t_read);
      r_.spans.Add("client.send", request, root, track_, head.intended_ns,
                   head.sent_ns != 0 ? head.sent_ns : t_read);
    }
    if (!good) {
      ++r_.failed;
      Note(&r_.failures, std::string(net::NetOpName(OpOf(head.kind))) +
                             " answered " + net::NetStatusName(resp.status) +
                             " " + resp.message);
      return;
    }
    const double lat_ns = static_cast<double>(t_read - head.intended_ns);
    switch (head.kind) {
      case Kind::kBatch:
        r_.batch_ack_us.push_back(Timed{t_read, lat_ns / 1e3});
        ++r_.frames_acked;
        r_.values_acked += head.values;
        break;
      case Kind::kFlush:
        r_.flush_ms.push_back(Timed{t_read, lat_ns / 1e6});
        r_.last_flush_value = resp.value;
        break;
      case Kind::kQuery:
      case Kind::kRank:
        r_.query_us.push_back(Timed{t_read, lat_ns / 1e3});
        break;
    }
    r_.last_ack_ns = t_read;
  }

  bool Finish() {
    if (!inflight_.empty()) {
      r_.failed += inflight_.size();
      Note(&r_.failures, std::to_string(inflight_.size()) +
                             " request(s) lost with the connection");
      inflight_.clear();
    }
    sending_ = false;
    return false;
  }

  const int fd_;
  const LaneSpec spec_;
  const uint64_t t0_, t_end_;
  const bool spans_;
  const int track_;
  size_t cycle_ = 1;
  uint64_t issued_ = 0;
  uint64_t answered_ = 0;
  uint64_t slot_free_ns_;
  uint64_t last_progress_;
  bool sending_ = true;
  std::deque<Inflight> inflight_;
  size_t first_unsent_ = 0;  // index into inflight_
  std::deque<Out> outq_;
  size_t out_off_ = 0;
  uint64_t queued_bytes_ = 0, sent_bytes_ = 0;
  net::FrameBuffer inbuf_;
  std::string frame_;
  std::vector<char> rbuf_;
  LaneResult r_;
};

/// Runs every lane to completion from the calling (generator) thread.
std::vector<LaneResult> RunLanes(const std::vector<int>& fds,
                                 const std::vector<LaneSpec>& specs,
                                 uint64_t t0, uint64_t t_end, bool spans) {
  std::vector<Lane> lanes;
  lanes.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    lanes.emplace_back(fds[i], specs[i], t0, t_end, spans,
                       static_cast<int>(i) + 1);
  }
  // Busy-polls: one zero-timeout ppoll over every live socket per round.
  std::vector<bool> active(lanes.size(), true);
  std::vector<pollfd> pfds(lanes.size());
  const timespec zero{0, 0};
  for (size_t live = lanes.size(); live > 0;) {
    for (size_t i = 0; i < lanes.size(); ++i) {
      pfds[i] = pollfd{active[i] ? lanes[i].fd() : -1,
                       static_cast<short>(
                           POLLIN | (lanes[i].wants_write() ? POLLOUT : 0)),
                       0};
    }
    ::ppoll(pfds.data(), pfds.size(), &zero, nullptr);
    for (size_t i = 0; i < lanes.size(); ++i) {
      if (!active[i]) continue;
      const short ev = pfds[i].revents;
      if (!lanes[i].Step((ev & (POLLIN | POLLHUP | POLLERR)) != 0,
                         (ev & POLLOUT) != 0)) {
        active[i] = false;
        --live;
      }
    }
  }
  std::vector<LaneResult> out;
  for (Lane& lane : lanes) out.push_back(std::move(lane.result()));
  return out;
}

int Connect(uint16_t port) {
  const int fd = net::TcpConnect("127.0.0.1", port, 5000);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// A blocking request/response connection that waits by spinning.
class SyncConn {
 public:
  explicit SyncConn(uint16_t port) : fd_(Connect(port)) {}
  ~SyncConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  SyncConn(const SyncConn&) = delete;
  SyncConn& operator=(const SyncConn&) = delete;

  bool ok() const { return fd_ >= 0; }

  /// Sends `req` and waits for its response; a transport failure comes
  /// back as kInternal.
  net::NetResponse Call(net::NetRequest req) {
    req.id = next_id_++;
    net::NetResponse resp;
    resp.id = req.id;
    resp.op = req.op;
    resp.status = net::NetStatus::kInternal;
    if (fd_ < 0) return resp;
    const std::string bytes = net::EncodeRequest(req);
    const uint64_t deadline = NowNs() + kIoTimeoutNs;
    size_t off = 0;
    while (off < bytes.size()) {
      if (!SpinUntil(fd_, POLLOUT, deadline)) return resp;
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) off += static_cast<size_t>(n);
      if (n < 0 && errno != EAGAIN && errno != EINTR) return resp;
    }
    char buf[65536];
    std::string frame;
    for (;;) {
      const net::FrameScan scan = inbuf_.Next(&frame);
      if (scan == net::FrameScan::kFrame) {
        net::NetResponse out;
        if (!net::DecodeResponse(frame, &out) || out.id != req.id) return resp;
        return out;
      }
      if (scan == net::FrameScan::kBad) return resp;
      if (!SpinUntil(fd_, POLLIN, deadline)) return resp;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) return resp;
      if (n > 0) inbuf_.Append(buf, static_cast<size_t>(n));
    }
  }

  net::NetResponse Simple(net::NetOp op, const std::string& stream) {
    net::NetRequest req;
    req.op = op;
    req.stream = stream;
    return Call(req);
  }

 private:
  int fd_;
  uint64_t next_id_ = 1;
  net::FrameBuffer inbuf_;
};

/// GET `path` from the server's HTTP endpoint. False on transport failure.
bool HttpGet(uint16_t port, const std::string& path, int* status,
             std::string* body) {
  const int fd = net::TcpConnect("127.0.0.1", port, 5000);
  if (fd < 0) return false;
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t off = 0;
  std::string reply;
  char buf[65536];
  const uint64_t deadline = NowNs() + 10'000'000'000ull;
  bool ok = false;
  while (SpinUntil(fd, off < request.size() ? POLLOUT : POLLIN, deadline)) {
    if (off < request.size()) {
      const ssize_t n = ::send(fd, request.data() + off, request.size() - off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && errno != EAGAIN && errno != EINTR) break;
      if (n > 0) off += static_cast<size_t>(n);
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      reply.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
    ok = n == 0;
    break;
  }
  ::close(fd);
  const size_t split = reply.find("\r\n\r\n");
  if (!ok || reply.rfind("HTTP/1.", 0) != 0 || split == std::string::npos) {
    return false;
  }
  *status = std::atoi(reply.c_str() + 9);
  *body = reply.substr(split + 4);
  return true;
}

bool ScrapeMetrics(uint16_t port, Scrape* out) {
  int status = 0;
  std::string body;
  return HttpGet(port, "/metrics", &status, &body) && status == 200 &&
         Scrape::Parse(body, out);
}

/// Counts attempts and failures of the run's checks.
struct Checker {
  TcpRunResult* r;
  bool Check(bool ok, const std::string& what) {
    ++r->attempted;
    if (!ok) {
      ++r->failed;
      Note(&r->failures, what);
    }
    return ok;
  }
};

/// Probe values for RANK: the stream's own pooled inputs, sorted.
std::vector<uint64_t> SortedPool(const WorkloadSpec& spec,
                                 const std::vector<FramePool>& pools,
                                 size_t stream) {
  std::vector<uint64_t> sorted;
  for (size_t p = 0; p < pools.size(); ++p) {
    if (spec.producer_stream[p] != static_cast<int>(stream)) continue;
    for (const auto& f : pools[p].values) {
      sorted.insert(sorted.end(), f.begin(), f.end());
    }
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

uint64_t At(const std::vector<uint64_t>& sorted, double phi) {
  return sorted[static_cast<size_t>(phi *
                                    static_cast<double>(sorted.size() - 1))];
}

}  // namespace

// ---------------------------------------------------------------------------
// Server process
// ---------------------------------------------------------------------------

std::unique_ptr<ServerProcess> ServerProcess::Spawn(const ServerConfig& config,
                                                    std::string* error) {
  std::vector<std::string> args = {config.binary, "--port=0",
                                   "--bind=127.0.0.1",
                                   "--data-dir=" + config.data_dir};
  if (config.audit) {
    args.push_back("--audit");
    args.push_back("--audit-interval-ms=" +
                   std::to_string(config.audit_interval_ms));
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const CpuPlan& plan = Plan();

  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    if (plan.split) ::sched_setaffinity(0, sizeof(cpu_set_t), &plan.server);
    ::dup2(pipefd[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  proc->pid_ = pid;

  // The banner "serving on 127.0.0.1:PORT (...)" arrives once it listens.
  ::fcntl(pipefd[0], F_SETFL, O_NONBLOCK);
  std::string banner;
  const uint64_t deadline = NowNs() + 10'000'000'000ull;
  char buf[512];
  while (banner.find('\n') == std::string::npos &&
         SpinUntil(pipefd[0], POLLIN, deadline)) {
    const ssize_t n = ::read(pipefd[0], buf, sizeof(buf));
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) break;
    if (n > 0) banner.append(buf, static_cast<size_t>(n));
  }
  ::close(pipefd[0]);
  const size_t at = banner.find("serving on ");
  const size_t colon = banner.find(':', at == std::string::npos ? 0 : at);
  if (at == std::string::npos || colon == std::string::npos) {
    *error = "server did not start: '" + banner + "'";
    return nullptr;
  }
  proc->port_ = static_cast<uint16_t>(std::atoi(banner.c_str() + colon + 1));
  return proc;
}

ServerProcess::~ServerProcess() { Kill(); }

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

TcpRunResult RunTcp(const WorkloadSpec& spec,
                    const std::vector<FramePool>& pools,
                    const TcpRunOptions& options) {
  TcpRunResult r;
  Checker check{&r};
  std::string error;
  const size_t n_streams = spec.streams.size();
  const GeneratorPin pin;

  // --- set-up, repeated: spawn, listen, CREATE every stream -------------
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < std::max(1, options.setup_reps); ++rep) {
    if (server != nullptr) server->Kill();
    std::error_code ec;
    fs::remove_all(options.server.data_dir, ec);
    fs::create_directories(options.server.data_dir, ec);
    const uint64_t t0 = NowNs();
    server = ServerProcess::Spawn(options.server, &error);
    if (!check.Check(server != nullptr, "spawn: " + error)) return r;
    SyncConn conn(server->port());
    if (!check.Check(conn.ok(), "connect failed")) return r;
    for (const StreamSpec& s : spec.streams) {
      net::NetRequest req;
      req.op = net::NetOp::kCreate;
      req.stream = s.name;
      req.create = s.params;
      const net::NetResponse resp = conn.Call(req);
      if (!check.Check(resp.ok(), "CREATE " + s.name + ": " +
                                      net::NetStatusName(resp.status) + " " +
                                      resp.message)) {
        return r;
      }
    }
    r.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const uint16_t port = server->port();

  // --- the reader's requests, encoded before the window -----------------
  std::vector<ReadReq> reads;
  if (spec.read_rate > 0) {
    std::vector<std::vector<uint64_t>> sorted;
    for (size_t s = 0; s < n_streams; ++s) {
      sorted.push_back(SortedPool(spec, pools, s));
    }
    for (const double phi : PhiGrid()) {
      for (size_t s = 0; s < n_streams; ++s) {
        for (const Kind kind : {Kind::kQuery, Kind::kRank}) {
          reads.push_back(MakeRead(kind, kReadIdBase + reads.size(),
                                   spec.streams[s].name, phi,
                                   At(sorted[s], phi)));
        }
      }
    }
  }

  // --- the measured window ----------------------------------------------
  check.Check(ScrapeMetrics(port, &r.before), "scrape /metrics failed");
  std::vector<LaneSpec> lanes;
  for (size_t p = 0; p < pools.size(); ++p) {
    LaneSpec lane;
    lane.pool = &pools[p];
    lane.frame_values = static_cast<uint32_t>(spec.frame_values);
    lane.closed = !spec.open_loop;
    lane.window = spec.window_frames;
    if (spec.open_loop) {
      const double per_producer =
          spec.rate_vals_per_s / static_cast<double>(pools.size());
      lane.period_ns =
          static_cast<double>(spec.frame_values) / per_producer * 1e9;
      lane.flush_every = spec.flush_every;
    }
    lanes.push_back(lane);
  }
  // Readers are independent users: Poisson arrivals at read_rate, so reads
  // do not keep landing at one phase of the server's periodic work.
  std::vector<uint64_t> arrivals;
  if (!reads.empty()) {
    std::mt19937_64 rng(options.seed ^ 0x7265616465727321ull);
    std::exponential_distribution<double> gap(spec.read_rate / 1e9);
    const double window_ns = static_cast<double>(options.seconds) * 1e9;
    for (double at = gap(rng); at < window_ns; at += gap(rng)) {
      arrivals.push_back(static_cast<uint64_t>(at));
    }
    LaneSpec lane;
    lane.reads = &reads;
    lane.closed = false;
    lane.arrivals = &arrivals;
    lanes.push_back(lane);
  }
  std::vector<int> fds;
  for (size_t i = 0; i < lanes.size(); ++i) {
    const int fd = Connect(port);
    if (!check.Check(fd >= 0, "lane connect failed")) {
      for (const int open_fd : fds) ::close(open_fd);
      return r;
    }
    fds.push_back(fd);
  }
  const double cpu0 = CpuSeconds(server->pid());
  const uint64_t t0 = NowNs() + 1'000'000;
  const uint64_t t_end =
      t0 + static_cast<uint64_t>(options.seconds) * 1'000'000'000ull;
  std::vector<LaneResult> results =
      RunLanes(fds, lanes, t0, t_end, options.spans);
  for (const int fd : fds) ::close(fd);
  const double cpu1 = CpuSeconds(server->pid());
  r.server_rss_mb = PeakRssMiB(server->pid());
  check.Check(ScrapeMetrics(port, &r.after), "scrape /metrics failed");

  std::vector<uint64_t> stream_values(n_streams, 0);
  std::vector<uint64_t> stream_flush_mark(n_streams, 0);
  uint64_t last_ack = t0;
  auto absorb = [&](LaneResult& lr) {
    r.attempted += lr.attempted;
    r.failed += lr.failed;
    for (const std::string& f : lr.failures) Note(&r.failures, f);
    r.batch_ack_us.insert(r.batch_ack_us.end(), lr.batch_ack_us.begin(),
                          lr.batch_ack_us.end());
    r.flush_ms.insert(r.flush_ms.end(), lr.flush_ms.begin(), lr.flush_ms.end());
    r.query_us.insert(r.query_us.end(), lr.query_us.begin(), lr.query_us.end());
    r.spans.Append(lr.spans);
  };
  for (size_t i = 0; i < results.size(); ++i) {
    LaneResult& lr = results[i];
    absorb(lr);
    for (const double lag : lr.lag_ns) r.lag_ms.push_back(lag / 1e6);
    r.values_acked += lr.values_acked;
    last_ack = std::max(last_ack, lr.last_ack_ns);
    if (i < pools.size()) {
      const size_t s = static_cast<size_t>(spec.producer_stream[i]);
      stream_values[s] += lr.values_acked;
      stream_flush_mark[s] = std::max(stream_flush_mark[s],
                                      lr.last_flush_value);
    }
  }
  // Open loop: everything the schedule offered, over the time until its
  // last ack -- equal to the offered rate only when no backlog built up.
  // Closed loop: capacity, as the median of the per-second acked rates in
  // the window, so a one-second hiccup moves one slice, not the result.
  if (spec.open_loop) {
    r.ingest_mvals_per_s = static_cast<double>(r.values_acked) /
                           (static_cast<double>(last_ack - t0) / 1e9) / 1e6;
  } else {
    constexpr uint64_t kSliceNs = 1'000'000'000ull;
    const uint64_t slices = std::max<uint64_t>(1, (t_end - t0) / kSliceNs);
    std::vector<double> acked(slices, 0.0);
    for (const Timed& t : r.batch_ack_us) {
      const uint64_t slice = (t.at_ns - t0) / kSliceNs;
      if (t.at_ns >= t0 && slice < slices) {
        acked[slice] += static_cast<double>(spec.frame_values);
      }
    }
    r.ingest_mvals_per_s = Median(acked) / (kSliceNs / 1e9) / 1e6;
  }
  r.server_cpu_s = cpu1 - cpu0;
  // An open-loop run is invalid once the generator's send lag p99 reaches
  // a producer's send period: sends then bunch into the next slot, and the
  // generator, not the server, shaped the load. Shorter stalls (a vCPU
  // preempted by the host for a few ms) are charged to latency, which runs
  // from the intended send time.
  if (spec.open_loop &&
      Percentile(r.lag_ms, 99) >= lanes.front().period_ns / 1e6) {
    r.generator_fell_behind = true;
  }

  // --- bulk probe: FLUSH and read round trips on the loaded stream -------
  if (options.probe && !spec.open_loop) {
    const std::string& name = spec.streams[0].name;
    const std::vector<uint64_t> sorted = SortedPool(spec, pools, 0);
    std::vector<ReadReq> probe;
    for (size_t k = 0; k < PhiGrid().size(); ++k) {
      probe.push_back(MakeRead(Kind::kFlush, kReadIdBase + probe.size(), name,
                               0.5, 0));
      for (int i = 0; i < kProbeReadsPerFlush; ++i) {
        const double phi =
            PhiGrid()[(k * kProbeReadsPerFlush + static_cast<size_t>(i) / 2) %
                      PhiGrid().size()];
        probe.push_back(MakeRead(i % 2 == 0 ? Kind::kQuery : Kind::kRank,
                                 kReadIdBase + probe.size(), name, phi,
                                 At(sorted, phi)));
      }
    }
    LaneSpec lane;
    lane.reads = &probe;
    lane.closed = true;
    lane.window = 1;
    const int fd = Connect(port);
    if (check.Check(fd >= 0, "probe connect failed")) {
      const uint64_t start = NowNs();
      const uint64_t probe_ns =
          std::max<uint64_t>(2, static_cast<uint64_t>(options.seconds)) *
          250'000'000ull;
      std::vector<LaneResult> pr =
          RunLanes({fd}, {lane}, start, start + probe_ns, false);
      ::close(fd);
      absorb(pr[0]);
    }
  }

  // --- checks -------------------------------------------------------------
  SyncConn conn(port);
  if (!check.Check(conn.ok(), "connect failed")) return r;
  std::vector<uint64_t> durable_acked(n_streams, 0);
  for (size_t s = 0; s < n_streams; ++s) {
    const StreamSpec& stream = spec.streams[s];
    const net::NetResponse flush = conn.Simple(net::NetOp::kFlush, stream.name);
    check.Check(flush.ok() && flush.value == stream_values[s],
                "final FLUSH of " + stream.name + " acked " +
                    std::to_string(flush.value) + ", expected " +
                    std::to_string(stream_values[s]));
    durable_acked[s] = stream.params.durable ? flush.value : 0;
    check.Check(stream_flush_mark[s] <= stream_values[s],
                "a FLUSH acked past the values sent");
    const net::NetResponse stats = conn.Simple(net::NetOp::kStats, stream.name);
    check.Check(stats.ok() && stats.stats.count == stream_values[s] &&
                    stats.stats.pushed == stream_values[s],
                "STATS of " + stream.name + " counts " +
                    std::to_string(stats.stats.count) + ", acked " +
                    std::to_string(stream_values[s]));

    SentOracle oracle;
    for (size_t p = 0; p < pools.size(); ++p) {
      if (spec.producer_stream[p] == static_cast<int>(s)) {
        oracle.AddProducer(pools[p], results[p].frames_acked);
      }
    }
    const double budget = stream.params.eps * kErrorSlack;
    for (const double phi : PhiGrid()) {
      net::NetRequest req;
      req.op = net::NetOp::kQuery;
      req.stream = stream.name;
      req.phi = phi;
      const net::NetResponse q = conn.Call(req);
      const double err = q.ok() ? oracle.QuantileError(q.value, phi) : 1.0;
      r.err_over_eps = std::max(r.err_over_eps, err / stream.params.eps);
      char what[160];
      std::snprintf(what, sizeof(what),
                    "QUERY %s phi=%.2f error %.5f over budget %.5f",
                    stream.name.c_str(), phi, err, budget);
      check.Check(err <= budget, what);

      req.op = net::NetOp::kRank;
      req.value = oracle.Quantile(phi);
      const net::NetResponse rk = conn.Call(req);
      const double rerr = rk.ok() ? oracle.RankError(rk.rank, req.value) : 1.0;
      r.err_over_eps = std::max(r.err_over_eps, rerr / stream.params.eps);
      std::snprintf(what, sizeof(what),
                    "RANK %s at phi=%.2f error %.5f over budget %.5f",
                    stream.name.c_str(), phi, rerr, budget);
      check.Check(rerr <= budget, what);
    }
    if (spec.audit) {
      const net::NetResponse audit =
          conn.Simple(net::NetOp::kAudit, stream.name);
      check.Check(audit.ok() && audit.audit.valid &&
                      audit.audit.violations == 0,
                  "AUDIT of " + stream.name + " reported " +
                      std::to_string(audit.audit.violations) +
                      " violation(s)");
    }
  }
  if (spec.audit) {
    int status = 0;
    std::string body;
    check.Check(HttpGet(port, "/healthz", &status, &body) && status == 200,
                "/healthz answered " + std::to_string(status));
  }
  check.Check(ScrapeMetrics(port, &r.after_reads), "scrape /metrics failed");

  // --- crash: SIGKILL after the last acked FLUSH, restart, recover --------
  if (options.crash) {
    // Non-durable streams leave nothing to recover: the bare restart is
    // repeated. Durable ones are killed with a WAL tail behind the last
    // checkpoint: the first kill right after the checks, later ones after
    // kRefillFrames more frames per stream and a FLUSH on top of the
    // post-recovery checkpoint, so those tails are the same on every run.
    const int restarts = spec.durable() ? kDurableRestarts : kBareRestarts;
    std::vector<double> recovery;
    for (int rep = 0; rep < restarts; ++rep) {
      server->Kill();
      if (rep == 0 && !options.killed_copy.empty()) {
        std::error_code ec;
        fs::remove_all(options.killed_copy, ec);
        fs::copy(options.server.data_dir, options.killed_copy,
                 fs::copy_options::recursive, ec);
        check.Check(!ec, "copying the killed server's data dir failed");
      }
      const uint64_t t0_restart = NowNs();
      server = ServerProcess::Spawn(options.server, &error);
      if (!check.Check(server != nullptr, "restart: " + error)) return r;
      SyncConn after(server->port());
      if (!check.Check(after.ok(), "connect after restart failed")) return r;
      for (size_t s = 0; s < n_streams; ++s) {
        const StreamSpec& stream = spec.streams[s];
        if (stream.params.durable) {
          // A restarted server recovers a durable stream on its next CREATE.
          net::NetRequest req;
          req.op = net::NetOp::kCreate;
          req.stream = stream.name;
          req.create = stream.params;
          const net::NetResponse c = after.Call(req);
          check.Check(c.ok() && c.stats.recovered,
                      "CREATE after restart did not recover " + stream.name);
          const net::NetResponse st =
              after.Simple(net::NetOp::kStats, stream.name);
          check.Check(st.ok() && st.stats.count >= durable_acked[s],
                      "recovered " + stream.name + " counts " +
                          std::to_string(st.stats.count) +
                          " < acked durable seq " +
                          std::to_string(durable_acked[s]));
        } else {
          // Non-durable state is gone after a crash; the restarted server
          // must say so rather than serve something stale.
          const net::NetResponse st =
              after.Simple(net::NetOp::kStats, stream.name);
          check.Check(st.status == net::NetStatus::kUnknownStream,
                      "non-durable " + stream.name + " survived a crash");
        }
      }
      recovery.push_back(static_cast<double>(NowNs() - t0_restart) / 1e9);
      if (!spec.durable() || rep + 1 == restarts) continue;
      for (size_t p = 0; p < pools.size(); ++p) {
        const size_t s = static_cast<size_t>(spec.producer_stream[p]);
        net::NetRequest req;
        req.op = net::NetOp::kBatchInsert;
        req.stream = spec.streams[s].name;
        // The restart contract: RESUME says where the server's positions
        // end; the producer re-sends its stream from there (at most
        // shards - 1 values the recovery already holds, which the server
        // drops by seq) before anything new.
        const net::NetResponse resume =
            after.Simple(net::NetOp::kResume, req.stream);
        check.Check(resume.ok() && resume.value <= stream_values[s],
                    "RESUME of " + req.stream + " failed");
        req.values.clear();
        const FramePool& pool = pools[p];
        for (uint64_t k = resume.value; k < stream_values[s]; ++k) {
          req.values.push_back(pool.values[(k / spec.frame_values) %
                                           pool.values.size()]
                                          [k % spec.frame_values]);
        }
        if (!req.values.empty()) {
          check.Check(after.Call(req).ok(), "RESUME replay failed");
        }
        for (size_t f = 0; f < kRefillFrames; ++f) {
          req.values = pools[p].values[f % pools[p].values.size()];
          const net::NetResponse ack = after.Call(req);
          check.Check(ack.ok() && ack.value == req.values.size(),
                      "refill BATCH_INSERT failed");
          stream_values[s] += req.values.size();
        }
        const net::NetResponse flush =
            after.Simple(net::NetOp::kFlush, spec.streams[s].name);
        check.Check(flush.ok() && flush.value == stream_values[s],
                    "refill FLUSH of " + spec.streams[s].name + " acked " +
                        std::to_string(flush.value));
        durable_acked[s] = flush.value;
      }
    }
    // A bare restart does fixed work, so the fastest is the one the host
    // did not slow (on a small VM an idle vCPU can take milliseconds to
    // wake); durable restarts replay different WAL tails: the median.
    r.recovery_s = spec.durable()
                       ? Median(recovery)
                       : *std::min_element(recovery.begin(), recovery.end());
  }
  server->Kill();
  return r;
}

}  // namespace perfbench
