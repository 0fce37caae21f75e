// Connection- and stream-serving core of the network tier, transport
// agnostic: sessions speak through the Conn interface, so the same state
// machine runs over TCP (net/reactor.h), the in-process loopback pair
// (net/loopback.h, unit tests under all sanitizers), or anything else.
//
// Threading: the server is a single-threaded state machine, mirroring the
// reactor that drives it. All Pump/AddConn calls must come from one thread
// at a time (the event loop). MetricsText() may be called from any thread
// (it locks; metrics are updated per request, never per update, so the
// lock is off the hot path).
//
// Backpressure (DESIGN.md section 15): a session whose stream cannot
// accept more updates (ingest ring full) or whose peer cannot drain
// responses (write queue at its limit) PARKS: the server stops reading
// that connection -- deferred reads -- and retries the unfinished work on
// later pumps. Parked sessions process no further frames, which is also
// what keeps responses in request order. TCP receive buffers then fill and
// the client's writes stall: ring-full backoff reaches the client as plain
// socket backpressure, with per-connection memory bounded the whole way.
//
// FLUSH (durability barrier): acked only when every update pushed to the
// stream so far is processed AND -- for durable streams -- covered by the
// WAL/checkpoint acknowledgement mark (IngestPipeline::DurableSeq). The
// session parks until the pipeline catches up; the ack carries the durable
// seq. If the stream's WAL has died the response is kWalDead: the client
// knows its writes may not survive a crash. An acked FLUSH is a durability
// guarantee the kill-recovery test holds the server to.

#ifndef STREAMQ_NET_SERVER_H_
#define STREAMQ_NET_SERVER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ingest/ingest_pipeline.h"
#include "net/conn.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace streamq::durability {
class Storage;
}

namespace streamq::net {

struct ServerOptions {
  /// Backing storage for durable streams (unowned, must outlive the
  /// server). Null = CREATE with durable=true answers kUnsupported.
  durability::Storage* storage = nullptr;
  /// Root directory for durable stream state; stream `s` lives under
  /// "<data_dir>/<s>".
  std::string data_dir = "streamq-net";
  /// Pending response bytes per connection before the session parks
  /// (stops processing; reads defer). Bounds per-connection memory
  /// against a client that writes but never reads.
  size_t write_queue_limit = size_t{4} << 20;
  size_t max_streams = 64;
  /// IngestOptions defaults for CREATE (shards used when the request
  /// leaves CreateParams::shards at 0).
  int default_shards = 2;
  size_t ring_capacity = size_t{1} << 14;
  uint64_t wal_sync_interval = 1024;

  // --- overload governance (DESIGN.md section 16) ---

  /// Admission control: a connection arriving while this many sessions are
  /// open gets one kServerBusy error frame and an immediate close, instead
  /// of degrading every existing session. 0 = unlimited.
  size_t max_connections = 0;
  /// A session with no read/write progress, nothing queued and nothing
  /// parked for this long is evicted (closed without ceremony -- an idle
  /// peer is not reading anyway). 0 = never.
  uint64_t idle_timeout_ms = 0;
  /// A session holding a partial frame (read stall) or sitting at its
  /// write-queue limit (slow client) without progress for this long is
  /// evicted. Today's alternative is parking forever on a silent peer.
  /// 0 = never.
  uint64_t stall_timeout_ms = 0;
  /// Global budget on bytes retained across ALL sessions (input buffers +
  /// queued responses). When exceeded, the fattest sessions are evicted
  /// until the total fits again: one slow reader cannot grow the process
  /// past its budget no matter how many connections it spreads over.
  /// 0 = unlimited.
  size_t max_retained_bytes = 0;
  /// Clock override (ns, monotonic) so deadline tests advance time without
  /// sleeping. Null = obs::TickClock::NowNanos.
  std::function<uint64_t()> clock;

  // --- accuracy audit plane (DESIGN.md section 17) ---

  /// Audit every stream CREATEd on this server: each stream's pipeline
  /// keeps reservoir shadows and answers AUDIT requests; the deadline
  /// sweep runs periodic rounds (audit_interval_ms). Off: AUDIT answers
  /// kUnsupported.
  bool audit = false;
  /// Reservoir capacity per shard shadow (and for merged audit draws).
  size_t audit_reservoir = 4096;
  /// Period between server-driven audit rounds per stream. 0 = rounds run
  /// only on client AUDIT requests.
  uint64_t audit_interval_ms = 0;
  /// /healthz answers 503 once any audited stream has this many
  /// CONSECUTIVE violating rounds (an in-budget round resets the streak,
  /// so a lone unlucky draw never flips health). 0 = audits never affect
  /// health.
  uint32_t audit_unhealthy_rounds = 3;
  /// Operator SLO override: when > 0, streams audit against this absolute
  /// rank-error budget instead of their own eps * slack(algorithm).
  double audit_slo_eps = 0.0;
};

/// Outcome of pumping one session.
enum class PumpResult {
  kIdle,      ///< nothing to do (no bytes, no parked progress)
  kProgress,  ///< read/processed/wrote something, or parked work advanced
  kClosed,    ///< session finished and was removed
};

class StreamqServer {
 public:
  explicit StreamqServer(ServerOptions options);
  ~StreamqServer();
  StreamqServer(const StreamqServer&) = delete;
  StreamqServer& operator=(const StreamqServer&) = delete;

  /// Registers a connection; returns its session id (never 0).
  uint64_t AddConn(std::unique_ptr<Conn> conn);

  /// Services one session: drains readable bytes (unless parked), executes
  /// complete frames, retries parked work, flushes queued responses.
  PumpResult Pump(uint64_t session_id);

  /// Pumps every session once; returns how many made progress.
  size_t PumpAll();

  /// Event-loop interest: whether this session currently wants readability
  /// (false while parked or its write queue is at the limit) /
  /// writability (queued response bytes pending) callbacks.
  bool WantsRead(uint64_t session_id) const;
  bool WantsWrite(uint64_t session_id) const;

  /// True when any session has parked work that needs timer-driven retries
  /// (no fd event will fire for an ingest ring draining).
  bool HasParkedWork() const;

  /// Enforces the governance deadlines (idle, read-stall, slow-client) and
  /// the global retained-bytes budget; evicted sessions are closed and
  /// removed. The reactor calls this once per loop iteration -- an idle
  /// session never raises an fd event, so deadlines need a timer-driven
  /// sweep. Returns the number of sessions evicted.
  size_t SweepDeadlines();

  /// Enters drain mode: no further frames are read or executed, parked
  /// operations keep retrying so in-flight FLUSH barriers still resolve
  /// against DurableSeq, queued responses flush, and each session closes
  /// as it empties. Bytes buffered but not yet parsed are dropped -- to
  /// the client that is indistinguishable from losing the connection a
  /// moment earlier, and exactly what ResilientClient's RESUME replay
  /// absorbs. AddConn rejects with kServerBusy while draining.
  void BeginDrain();
  bool draining() const { return draining_; }
  /// Drain is complete when every session has flushed and closed.
  bool DrainComplete() const { return sessions_.empty(); }
  /// FLUSH barriers resolved (acked or kWalDead) since BeginDrain().
  uint64_t DrainFlushesResolved() const { return drain_flushes_resolved_; }
  /// Force-closes every remaining session (drain deadline expired).
  /// Returns how many were still open.
  size_t CloseAllSessions();

  /// Bytes currently retained across all sessions (input buffers + queued
  /// responses) -- the quantity max_retained_bytes budgets.
  size_t RetainedBytes() const;

  size_t SessionCount() const { return sessions_.size(); }
  std::vector<uint64_t> SessionIds() const;
  int SessionFd(uint64_t session_id) const;

  size_t StreamCount() const { return streams_.size(); }
  /// Direct pipeline access for tests and the in-process embedding;
  /// nullptr when no such stream.
  ingest::IngestPipeline* FindStream(const std::string& name);

  /// Prometheus text exposition of the server registry: per-opcode request
  /// counters and latency histograms, connection/byte/defer counters, and
  /// every stream's pipeline metrics under net.stream.<name>. Any thread.
  std::string MetricsText();

  /// The /healthz verdict: false once any audited stream's consecutive
  /// violating-round streak reaches audit_unhealthy_rounds. Always true
  /// when auditing is off -- health then only says the process is
  /// serving. Any thread.
  bool Healthy() const;

  const ServerOptions& options() const { return options_; }

 private:
  struct StreamEntry {
    std::unique_ptr<ingest::IngestPipeline> pipeline;
    CreateParams params;
    std::string dir;  // durable streams: subtree under data_dir
    uint64_t last_audit_ns = 0;  // sweep-driven rounds (0 = due now)
  };

  /// What a parked session is waiting for: the rest of an INSERT or
  /// BATCH_INSERT to fit the rings (kBatch; an INSERT parks as a
  /// one-update batch), or a FLUSH barrier.
  enum class Parked { kNone, kBatch, kFlush };

  struct Session {
    std::unique_ptr<Conn> conn;
    FrameBuffer inbuf;
    std::string http_buf;      // bytes accumulated before/during HTTP mode
    std::deque<std::string> outq;
    size_t out_off = 0;        // send offset into outq.front()
    size_t queued_bytes = 0;
    bool probed = false;       // transport discriminated (HTTP vs binary)?
    bool http = false;
    bool closing = false;      // flush outq, then close
    // Parked work (at most one; the session processes no frames past it).
    Parked parked = Parked::kNone;
    NetRequest parked_req;
    std::vector<Update> parked_updates;  // kBatch: the whole request
    size_t parked_off = 0;               // kBatch: accepted prefix length
    ingest::IngestPipeline* parked_pipeline = nullptr;
    uint64_t parked_start_ns = 0;
    // Governance bookkeeping (SweepDeadlines).
    uint64_t last_activity_ns = 0;       // last read/write/park progress
    uint64_t write_limited_since_ns = 0; // 0 = queue below its limit

    explicit Session(std::unique_ptr<Conn> c) : conn(std::move(c)) {}

    /// Bytes this session retains (input buffers + queued responses).
    size_t RetainedBytes() const {
      return inbuf.buffered() + http_buf.size() + queued_bytes;
    }
    /// A partial frame (or an unprobed prefix) is buffered: the peer
    /// started a request it has not finished.
    bool MidFrame() const {
      return probed ? (!http && inbuf.buffered() > 0) : !http_buf.empty();
    }
  };

  PumpResult PumpSession(uint64_t id, Session& session);
  /// Reads once into the session buffers; false = connection gone.
  bool ReadSome(Session& session, bool* progressed);
  /// Executes frames until parked, write-limited, or out of frames.
  bool ProcessFrames(Session& session, bool* progressed);
  /// Retries the session's parked operation; true when it completed.
  bool RetryParked(Session& session);
  /// Writes queued bytes; false = connection gone.
  bool WriteSome(Session& session, bool* progressed);

  void Execute(Session& session, const NetRequest& request);
  NetResponse DoCreate(const NetRequest& request);
  NetResponse DoDrop(const NetRequest& request);
  void FinishFlush(Session& session);
  void Enqueue(Session& session, const NetResponse& response);
  void EnqueueError(Session& session, const NetRequest& request,
                    NetStatus status, const std::string& message);
  void FillStats(ingest::IngestPipeline& pipeline, const StreamEntry& entry,
                 StreamStatsPayload* out);

  void ServeHttp(Session& session);
  /// Runs an audit round on every audited stream whose interval elapsed
  /// (SweepDeadlines calls this; no-op when auditing is off or
  /// audit_interval_ms is 0).
  void RunDueAudits(uint64_t now);
  /// Folds one audit round's outcome into the global audit.* families.
  void RecordAuditRound(const obs::AuditReport& report);
  void RecordLatency(NetOp op, uint64_t start_ns);
  uint64_t NowNs() const;
  /// Closes and erases a session, bumping the named eviction counter
  /// (nullptr = a normal close, not an eviction).
  void EvictSession(uint64_t id, const char* reason);

  ServerOptions options_;
  uint64_t next_session_id_ = 1;
  bool draining_ = false;
  uint64_t drain_flushes_resolved_ = 0;
  std::vector<char> read_buf_;  // per-pump read scratch (single-threaded)
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  std::map<std::string, StreamEntry> streams_;

  // Registry + counters guarded by metrics_mutex_ (requests are the update
  // granularity; MetricsText may race with the pump thread otherwise).
  mutable std::mutex metrics_mutex_;
  obs::MetricsRegistry registry_;
};

}  // namespace streamq::net

#endif  // STREAMQ_NET_SERVER_H_
