#include "net/server.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "durability/storage.h"
#include "obs/trace_export.h"
#include "quantile/factory.h"

namespace streamq::net {
namespace {

constexpr size_t kMaxStreamName = 128;
constexpr size_t kMaxHttpRequest = size_t{16} << 10;
/// Bytes read from a connection per pump.
constexpr size_t kReadChunk = size_t{64} << 10;

bool ValidStreamName(const std::string& name) {
  if (name.empty() || name.size() > kMaxStreamName) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

/// First bytes of an HTTP GET or HEAD, the only verbs the scrape and
/// health endpoints serve. Cannot collide with a binary frame: the frame
/// magic's wire bytes are "RFQS".
bool LooksLikeHttp(const std::string& head) {
  return head.size() >= 4 && (head.compare(0, 4, "GET ") == 0 ||
                              head.compare(0, 4, "HEAD") == 0);
}

}  // namespace

StreamqServer::StreamqServer(ServerOptions options)
    : options_(std::move(options)) {
  if (options_.default_shards < 1) options_.default_shards = 1;
  if (options_.audit_reservoir < 1) options_.audit_reservoir = 1;
  // Register the global audit families up front so a scrape always carries
  // streamq_audit_* -- dashboards and the scrape checker can rely on their
  // presence before (or without) any audit round having run.
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  registry_.GetCounter("audit.rounds");
  registry_.GetCounter("audit.violations");
  registry_.GetHistogram("audit.observed_err");
  registry_.GetGauge("audit.shadow_bytes");
}

StreamqServer::~StreamqServer() = default;

uint64_t StreamqServer::AddConn(std::unique_ptr<Conn> conn) {
  const uint64_t id = next_session_id_++;
  auto session = std::make_unique<Session>(std::move(conn));
  session->last_activity_ns = NowNs();
  // Admission control: over the limit (or draining), the connection gets
  // one clean kServerBusy frame and closes -- a client can tell "retry
  // later" apart from a crash, and the N accepted sessions keep their
  // service level instead of all N+1 degrading together.
  const bool reject =
      draining_ || (options_.max_connections > 0 &&
                    sessions_.size() >= options_.max_connections);
  if (reject) {
    NetResponse resp;
    resp.status = NetStatus::kServerBusy;
    resp.message = draining_ ? "server draining" : "connection limit reached";
    session->probed = true;
    session->closing = true;
    Enqueue(*session, resp);
  }
  sessions_.emplace(id, std::move(session));
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  registry_.GetCounter("net.connections.accepted").Inc();
  registry_.GetGauge("net.connections.open").Add(1);
  if (reject) registry_.GetCounter("net.rejected_busy").Inc();
  return id;
}

PumpResult StreamqServer::Pump(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return PumpResult::kClosed;
  const PumpResult result = PumpSession(session_id, *it->second);
  if (result == PumpResult::kClosed) EvictSession(session_id, nullptr);
  return result;
}

size_t StreamqServer::PumpAll() {
  std::vector<uint64_t> ids = SessionIds();
  size_t progressed = 0;
  for (const uint64_t id : ids) {
    if (Pump(id) != PumpResult::kIdle) ++progressed;
  }
  return progressed;
}

PumpResult StreamqServer::PumpSession(uint64_t /*id*/, Session& session) {
  bool progressed = false;

  if (session.parked != Parked::kNone && RetryParked(session)) {
    progressed = true;
  }

  const bool read_gated = session.closing || draining_ ||
                          session.parked != Parked::kNone ||
                          session.queued_bytes >= options_.write_queue_limit;
  if (!read_gated) {
    if (!ReadSome(session, &progressed)) return PumpResult::kClosed;
    if (!ProcessFrames(session, &progressed)) return PumpResult::kClosed;
  } else if (!session.closing && !draining_) {
    // Backpressure in action: bytes may be waiting but this session is not
    // allowed to grow its buffers. Observable, since a stuck stream shows
    // up here first.
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    registry_.GetCounter("net.deferred_reads").Inc();
  }

  if (!WriteSome(session, &progressed)) return PumpResult::kClosed;
  if (session.closing && session.outq.empty()) return PumpResult::kClosed;
  // Draining: once a session has no parked barrier left to resolve and its
  // responses are flushed, it is done -- close it.
  if (draining_ && session.parked == Parked::kNone && session.outq.empty()) {
    return PumpResult::kClosed;
  }

  if (progressed) session.last_activity_ns = NowNs();
  if (session.queued_bytes >= options_.write_queue_limit) {
    if (session.write_limited_since_ns == 0) {
      session.write_limited_since_ns = NowNs();
    }
  } else {
    session.write_limited_since_ns = 0;
  }
  return progressed ? PumpResult::kProgress : PumpResult::kIdle;
}

bool StreamqServer::ReadSome(Session& session, bool* progressed) {
  if (read_buf_.size() < kReadChunk) read_buf_.resize(kReadChunk);
  const int n = session.conn->Read(read_buf_.data(), kReadChunk);
  if (n < 0) return false;  // peer gone
  if (n == 0) return true;  // nothing readable now
  *progressed = true;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    registry_.GetCounter("net.bytes_read").Add(static_cast<uint64_t>(n));
  }
  if (!session.probed) {
    session.http_buf.append(read_buf_.data(), static_cast<size_t>(n));
    if (session.http_buf.size() < 4) return true;
    session.probed = true;
    session.http = LooksLikeHttp(session.http_buf);
    if (!session.http) {
      session.inbuf.Append(session.http_buf.data(), session.http_buf.size());
      session.http_buf.clear();
      session.http_buf.shrink_to_fit();
    }
    return true;
  }
  if (session.http) {
    session.http_buf.append(read_buf_.data(), static_cast<size_t>(n));
  } else {
    session.inbuf.Append(read_buf_.data(), static_cast<size_t>(n));
  }
  return true;
}

bool StreamqServer::ProcessFrames(Session& session, bool* progressed) {
  if (!session.probed) return true;
  if (session.http) {
    if (session.http_buf.find("\r\n\r\n") != std::string::npos) {
      ServeHttp(session);
      *progressed = true;
    } else if (session.http_buf.size() > kMaxHttpRequest) {
      return false;  // header flood: drop the connection
    }
    return true;
  }
  std::string frame;
  while (session.parked == Parked::kNone && !session.closing &&
         session.queued_bytes < options_.write_queue_limit) {
    const FrameScan scan = session.inbuf.Next(&frame);
    if (scan == FrameScan::kNeedMore) break;
    if (scan == FrameScan::kBad) {
      // Header corruption: the length prefix is untrustworthy, so the
      // stream cannot be re-synchronised. Close.
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      registry_.GetCounter("net.bad_frames").Inc();
      return false;
    }
    *progressed = true;
    NetRequest request;
    if (!DecodeRequest(frame, &request)) {
      // Payload corruption (CRC) or a malformed but CRC-valid payload: the
      // frame boundary was exact, so answer an error and keep serving the
      // pipelined frames behind it.
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        registry_.GetCounter("net.bad_frames").Inc();
      }
      NetResponse resp;
      resp.status = NetStatus::kBadRequest;
      resp.message = "malformed frame";
      Enqueue(session, resp);
      continue;
    }
    Execute(session, request);
  }
  return true;
}

bool StreamqServer::WriteSome(Session& session, bool* progressed) {
  while (!session.outq.empty()) {
    const std::string& head = session.outq.front();
    const int n = session.conn->Write(head.data() + session.out_off,
                                      head.size() - session.out_off);
    if (n < 0) return false;
    if (n == 0) break;  // transport backpressure; retry on writability
    *progressed = true;
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      registry_.GetCounter("net.bytes_written").Add(static_cast<uint64_t>(n));
    }
    session.out_off += static_cast<size_t>(n);
    session.queued_bytes -= static_cast<size_t>(n);
    if (session.out_off == head.size()) {
      session.outq.pop_front();
      session.out_off = 0;
    }
  }
  return true;
}

bool StreamqServer::WantsRead(uint64_t session_id) const {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return false;
  const Session& s = *it->second;
  return !s.closing && !draining_ && s.parked == Parked::kNone &&
         s.queued_bytes < options_.write_queue_limit;
}

bool StreamqServer::WantsWrite(uint64_t session_id) const {
  auto it = sessions_.find(session_id);
  return it != sessions_.end() && !it->second->outq.empty();
}

bool StreamqServer::HasParkedWork() const {
  for (const auto& [id, session] : sessions_) {
    if (session->parked != Parked::kNone) return true;
  }
  return false;
}

uint64_t StreamqServer::NowNs() const {
  return options_.clock ? options_.clock() : obs::TickClock::NowNanos();
}

void StreamqServer::EvictSession(uint64_t id, const char* reason) {
  auto it = sessions_.find(id);
  if (it == sessions_.end()) return;
  it->second->conn->Close();
  sessions_.erase(it);
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  registry_.GetCounter("net.connections.closed").Inc();
  registry_.GetGauge("net.connections.open").Add(-1);
  if (reason != nullptr) {
    registry_.GetCounter(std::string("net.evictions.") + reason).Inc();
  }
}

size_t StreamqServer::SweepDeadlines() {
  const uint64_t now = NowNs();
  const uint64_t idle_ns = options_.idle_timeout_ms * 1'000'000ull;
  const uint64_t stall_ns = options_.stall_timeout_ms * 1'000'000ull;
  std::vector<std::pair<uint64_t, const char*>> doomed;
  for (const auto& [id, s] : sessions_) {
    // Slow client: the write queue has sat at its limit for the whole
    // stall window -- the peer is not reading. Without this, the session
    // parks forever and its queued bytes are pinned.
    if (stall_ns > 0 && s->write_limited_since_ns != 0 &&
        now > s->write_limited_since_ns &&
        now - s->write_limited_since_ns >= stall_ns) {
      doomed.emplace_back(id, "slow_client");
      continue;
    }
    // Read stall: the peer sent part of a frame, then went silent. The
    // frame can never complete; only a deadline frees the buffer.
    if (stall_ns > 0 && s->MidFrame() && now > s->last_activity_ns &&
        now - s->last_activity_ns >= stall_ns) {
      doomed.emplace_back(id, "read_stall");
      continue;
    }
    // Idle: nothing buffered, nothing queued, nothing parked, no traffic
    // for the idle window. Reclaims the session slot under admission
    // control.
    if (idle_ns > 0 && !s->MidFrame() && s->parked == Parked::kNone &&
        s->outq.empty() && now > s->last_activity_ns &&
        now - s->last_activity_ns >= idle_ns) {
      doomed.emplace_back(id, "idle");
    }
  }
  for (const auto& [id, reason] : doomed) EvictSession(id, reason);
  size_t evicted = doomed.size();

  // Global retained-bytes budget: evict the fattest sessions until the
  // total fits. Per-session limits bound each connection; this bounds the
  // process against many moderately-slow readers at once.
  if (options_.max_retained_bytes > 0) {
    size_t total = RetainedBytes();
    while (total > options_.max_retained_bytes && !sessions_.empty()) {
      uint64_t fat_id = 0;
      size_t fat = 0;
      for (const auto& [id, s] : sessions_) {
        const size_t r = s->RetainedBytes();
        if (r >= fat) {
          fat = r;
          fat_id = id;
        }
      }
      if (fat == 0) break;
      EvictSession(fat_id, "retained_bytes");
      ++evicted;
      total = RetainedBytes();
    }
  }

  // Periodic audit rounds ride the same timer-driven sweep: an audited
  // stream self-verifies even when no client ever sends AUDIT.
  RunDueAudits(now);

  std::lock_guard<std::mutex> lock(metrics_mutex_);
  size_t retained = 0;
  for (const auto& [id, s] : sessions_) retained += s->RetainedBytes();
  registry_.GetGauge("net.retained_bytes")
      .Set(static_cast<int64_t>(retained));
  return evicted;
}

void StreamqServer::RunDueAudits(uint64_t now) {
  if (!options_.audit || options_.audit_interval_ms == 0) return;
  const uint64_t interval_ns = options_.audit_interval_ms * 1'000'000ull;
  std::vector<ingest::IngestPipeline*> due;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    for (auto& [name, entry] : streams_) {
      if (!entry.pipeline->AuditEnabled()) continue;
      if (entry.last_audit_ns != 0 && now >= entry.last_audit_ns &&
          now - entry.last_audit_ns < interval_ns) {
        continue;
      }
      entry.last_audit_ns = now;
      due.push_back(entry.pipeline.get());
    }
  }
  // Audit outside the lock (a round clones and merges snapshots). streams_
  // is only mutated on this -- the pump -- thread, so the pipelines cannot
  // be dropped from under us.
  for (ingest::IngestPipeline* pipeline : due) {
    RecordAuditRound(pipeline->AuditNow());
  }
}

void StreamqServer::RecordAuditRound(const obs::AuditReport& report) {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  registry_.GetCounter("audit.rounds").Inc();
  registry_.GetCounter("audit.violations").Add(report.violations);
  if (report.valid) {
    registry_.GetHistogram("audit.observed_err")
        .Record(static_cast<uint64_t>(report.max_observed_err * 1e6));
  }
}

bool StreamqServer::Healthy() const {
  if (options_.audit_unhealthy_rounds == 0) return true;
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  for (const auto& [name, entry] : streams_) {
    if (!entry.pipeline->AuditEnabled()) continue;
    if (entry.pipeline->GetAuditCounters().unhealthy_streak >=
        options_.audit_unhealthy_rounds) {
      return false;
    }
  }
  return true;
}

void StreamqServer::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  drain_flushes_resolved_ = 0;
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  registry_.GetGauge("net.draining").Set(1);
}

size_t StreamqServer::CloseAllSessions() {
  const std::vector<uint64_t> ids = SessionIds();
  for (const uint64_t id : ids) EvictSession(id, "drain_forced");
  return ids.size();
}

size_t StreamqServer::RetainedBytes() const {
  size_t total = 0;
  for (const auto& [id, s] : sessions_) total += s->RetainedBytes();
  return total;
}

std::vector<uint64_t> StreamqServer::SessionIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) ids.push_back(id);
  return ids;
}

int StreamqServer::SessionFd(uint64_t session_id) const {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? -1 : it->second->conn->fd();
}

ingest::IngestPipeline* StreamqServer::FindStream(const std::string& name) {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second.pipeline.get();
}

// ---------------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------------

void StreamqServer::Execute(Session& session, const NetRequest& request) {
  const uint64_t start_ns = obs::TickClock::NowNanos();
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    registry_
        .GetCounter(std::string("net.requests.") + NetOpName(request.op))
        .Inc();
  }

  if (request.op == NetOp::kCreate) {
    Enqueue(session, DoCreate(request));
    RecordLatency(request.op, start_ns);
    return;
  }
  if (request.op == NetOp::kDrop) {
    Enqueue(session, DoDrop(request));
    RecordLatency(request.op, start_ns);
    return;
  }

  ingest::IngestPipeline* pipeline = FindStream(request.stream);
  if (pipeline == nullptr) {
    EnqueueError(session, request, NetStatus::kUnknownStream,
                 "no such stream");
    RecordLatency(request.op, start_ns);
    return;
  }

  NetResponse resp;
  resp.id = request.id;
  resp.op = request.op;
  switch (request.op) {
    case NetOp::kInsert:
    case NetOp::kBatchInsert: {
      // An INSERT is a one-update batch that carries its delta: both push
      // through TryPushBatch and park the same way.
      const bool single = request.op == NetOp::kInsert;
      if (single && request.delta == 0) {
        EnqueueError(session, request, NetStatus::kBadRequest, "delta == 0");
        break;
      }
      const Update one{request.value, request.delta};
      std::vector<Update> batch;
      if (!single) {
        batch.reserve(request.values.size());
        for (const uint64_t v : request.values) batch.push_back(Update{v, +1});
      }
      const std::span<const Update> updates =
          single ? std::span<const Update>(&one, 1)
                 : std::span<const Update>(batch);
      const size_t accepted = pipeline->TryPushBatch(updates);
      if (accepted < updates.size()) {
        session.parked = Parked::kBatch;
        session.parked_req = request;
        session.parked_req.values.clear();  // batch lives in parked_updates
        session.parked_updates =
            single ? std::vector<Update>{one} : std::move(batch);
        session.parked_off = accepted;
        session.parked_pipeline = pipeline;
        session.parked_start_ns = start_ns;
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        registry_.GetCounter("net.parks").Inc();
        return;  // response comes when the rings accept the rest
      }
      resp.value = updates.size();
      Enqueue(session, resp);
      break;
    }
    case NetOp::kQuery: {
      if (!(request.phi >= 0.0 && request.phi <= 1.0)) {  // NaN-safe
        EnqueueError(session, request, NetStatus::kBadRequest,
                     "phi outside [0, 1]");
        break;
      }
      resp.value = pipeline->Query(request.phi);
      Enqueue(session, resp);
      break;
    }
    case NetOp::kRank: {
      resp.rank = pipeline->Rank(request.value);
      Enqueue(session, resp);
      break;
    }
    case NetOp::kFlush: {
      session.parked = Parked::kFlush;
      session.parked_req = request;
      session.parked_pipeline = pipeline;
      session.parked_start_ns = start_ns;
      if (!RetryParked(session)) {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        registry_.GetCounter("net.parks").Inc();
      }
      return;
    }
    case NetOp::kStats: {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      auto it = streams_.find(request.stream);
      if (it == streams_.end()) {
        resp.status = NetStatus::kUnknownStream;
        resp.message = "no such stream";
      } else {
        FillStats(*pipeline, it->second, &resp.stats);
        resp.value = resp.stats.count;
      }
      Enqueue(session, resp);
      break;
    }
    case NetOp::kResume: {
      // Reconnect handshake: value = the highest stream position the
      // server has accepted (after a restart, recovery re-bases this to
      // resume_seq - 1). A single-writer producer replays its buffered
      // values at positions AFTER this mark, in order; the pipeline's
      // per-shard seq dedup absorbs the up-to-(shards-1) overlap a
      // recovered stream may still have applied. Stats ride along so the
      // client learns shards/durable_seq without a second round trip.
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      auto it = streams_.find(request.stream);
      if (it == streams_.end()) {
        resp.status = NetStatus::kUnknownStream;
        resp.message = "no such stream";
      } else {
        FillStats(*pipeline, it->second, &resp.stats);
        resp.value = pipeline->LastPushedSeq();
      }
      Enqueue(session, resp);
      break;
    }
    case NetOp::kAudit: {
      if (!pipeline->AuditEnabled()) {
        EnqueueError(session, request, NetStatus::kUnsupported,
                     "stream is not audited (server started without --audit)");
        break;
      }
      resp.audit = pipeline->AuditNow();
      RecordAuditRound(resp.audit);
      resp.value = resp.audit.violations;
      Enqueue(session, resp);
      break;
    }
    default:
      EnqueueError(session, request, NetStatus::kBadRequest, "bad opcode");
      break;
  }
  RecordLatency(request.op, start_ns);
}

bool StreamqServer::RetryParked(Session& session) {
  ingest::IngestPipeline* pipeline = session.parked_pipeline;
  NetResponse resp;
  resp.id = session.parked_req.id;
  resp.op = session.parked_req.op;
  switch (session.parked) {
    case Parked::kBatch: {
      const std::span<const Update> rest(
          session.parked_updates.data() + session.parked_off,
          session.parked_updates.size() - session.parked_off);
      session.parked_off += pipeline->TryPushBatch(rest);
      if (session.parked_off < session.parked_updates.size()) return false;
      resp.value = session.parked_updates.size();
      session.parked_updates.clear();
      session.parked_updates.shrink_to_fit();
      session.parked_off = 0;
      break;
    }
    case Parked::kFlush: {
      if (pipeline->ProcessedCount() < pipeline->PushedCount()) return false;
      FinishFlush(session);
      return true;
    }
    case Parked::kNone:
      return false;
  }
  session.parked = Parked::kNone;
  session.parked_pipeline = nullptr;
  Enqueue(session, resp);
  RecordLatency(resp.op, session.parked_start_ns);
  return true;
}

void StreamqServer::FinishFlush(Session& session) {
  ingest::IngestPipeline* pipeline = session.parked_pipeline;
  // The rings are drained (RetryParked's precondition), so this blocks only
  // for the WAL acknowledgement mark to advance -- idle workers sync
  // eagerly -- or for the WAL to be declared dead.
  pipeline->Flush();
  NetResponse resp;
  resp.id = session.parked_req.id;
  resp.op = NetOp::kFlush;
  bool durable = false;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    auto it = streams_.find(session.parked_req.stream);
    durable = it != streams_.end() && it->second.params.durable;
  }
  const uint64_t last = pipeline->LastPushedSeq();
  const uint64_t mark = pipeline->DurableSeq();
  if (durable && mark < last) {
    resp.status = NetStatus::kWalDead;
    resp.message = "wal failed: updates past the mark may not survive";
    resp.value = mark;
  } else {
    resp.value = durable ? mark : last;
  }
  session.parked = Parked::kNone;
  session.parked_pipeline = nullptr;
  if (draining_) ++drain_flushes_resolved_;
  Enqueue(session, resp);
  RecordLatency(NetOp::kFlush, session.parked_start_ns);
}

NetResponse StreamqServer::DoCreate(const NetRequest& request) {
  NetResponse resp;
  resp.id = request.id;
  resp.op = NetOp::kCreate;
  const CreateParams& p = request.create;
  Algorithm algorithm;
  if (!ValidStreamName(request.stream)) {
    resp.status = NetStatus::kBadRequest;
    resp.message = "invalid stream name";
    return resp;
  }
  if (!ParseAlgorithm(p.algorithm, &algorithm)) {
    resp.status = NetStatus::kBadRequest;
    resp.message = "unknown algorithm: " + p.algorithm;
    return resp;
  }
  if (!(p.eps > 0.0 && p.eps < 1.0) || p.log_universe < 1 ||
      p.log_universe > 64 || p.depth < 1 || p.depth > 64 || p.shards > 64) {
    resp.status = NetStatus::kBadRequest;
    resp.message = "parameter out of range";
    return resp;
  }
  if (p.durable && options_.storage == nullptr) {
    resp.status = NetStatus::kUnsupported;
    resp.message = "server has no storage backend";
    return resp;
  }

  std::lock_guard<std::mutex> lock(metrics_mutex_);
  if (streams_.count(request.stream) != 0) {
    resp.status = NetStatus::kStreamExists;
    resp.message = "stream exists";
    return resp;
  }
  if (streams_.size() >= options_.max_streams) {
    resp.status = NetStatus::kTooManyStreams;
    resp.message = "stream limit reached";
    return resp;
  }

  ingest::IngestOptions opts;
  opts.sketch.algorithm = algorithm;
  opts.sketch.eps = p.eps;
  opts.sketch.log_universe = static_cast<int>(p.log_universe);
  opts.sketch.depth = static_cast<int>(p.depth);
  opts.sketch.seed = p.seed;
  opts.shards =
      p.shards == 0 ? options_.default_shards : static_cast<int>(p.shards);
  opts.ring_capacity = options_.ring_capacity;
  opts.durability.enabled = p.durable;
  opts.durability.storage = options_.storage;
  opts.durability.dir = options_.data_dir + "/" + request.stream;
  opts.durability.sync_interval = options_.wal_sync_interval;
  if (options_.audit) {
    opts.audit.enabled = true;
    opts.audit.reservoir = options_.audit_reservoir;
    if (options_.audit_slo_eps > 0.0) {
      // The operator SLO is an absolute budget; slack 1 keeps it from
      // being scaled by the per-algorithm convention.
      opts.audit.eps = options_.audit_slo_eps;
      opts.audit.slack = 1.0;
    }
  }

  StreamEntry entry;
  entry.pipeline = ingest::IngestPipeline::Create(opts);
  if (entry.pipeline == nullptr) {
    // The factory-level causes were validated above; what is left is the
    // pipeline contract (algorithm not mergeable/clonable) or a durable
    // init failure.
    resp.status = NetStatus::kUnsupported;
    resp.message = "algorithm cannot back a pipeline (or durable init failed)";
    return resp;
  }
  entry.params = p;
  entry.dir = opts.durability.dir;
  FillStats(*entry.pipeline, entry, &resp.stats);
  streams_.emplace(request.stream, std::move(entry));
  return resp;
}

NetResponse StreamqServer::DoDrop(const NetRequest& request) {
  NetResponse resp;
  resp.id = request.id;
  resp.op = NetOp::kDrop;

  ingest::IngestPipeline* doomed = nullptr;
  std::string dir;
  bool durable = false;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    auto it = streams_.find(request.stream);
    if (it == streams_.end()) {
      resp.status = NetStatus::kUnknownStream;
      resp.message = "no such stream";
      return resp;
    }
    doomed = it->second.pipeline.get();
    dir = it->second.dir;
    durable = it->second.params.durable;
  }

  // Any session parked on this pipeline would be left holding a dangling
  // pointer; fail its operation first.
  for (auto& [id, session] : sessions_) {
    if (session->parked_pipeline != doomed) continue;
    EnqueueError(*session, session->parked_req, NetStatus::kUnknownStream,
                 "stream dropped during operation");
    RecordLatency(session->parked_req.op, session->parked_start_ns);
    session->parked = Parked::kNone;
    session->parked_pipeline = nullptr;
    session->parked_updates.clear();
    session->parked_off = 0;
  }

  std::unique_ptr<ingest::IngestPipeline> pipeline;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    auto it = streams_.find(request.stream);
    pipeline = std::move(it->second.pipeline);
    streams_.erase(it);
  }
  pipeline.reset();  // joins the workers outside the lock

  if (durable && options_.storage != nullptr) {
    for (const char* sub : {"/wal", "/ckpt"}) {
      const std::string d = dir + sub;
      for (const std::string& name : options_.storage->List(d)) {
        options_.storage->Delete(d + "/" + name);
      }
    }
  }
  return resp;
}

void StreamqServer::FillStats(ingest::IngestPipeline& pipeline,
                              const StreamEntry& entry,
                              StreamStatsPayload* out) {
  out->count = pipeline.ViewCount();
  out->pushed = pipeline.PushedCount();
  out->processed = pipeline.ProcessedCount();
  out->durable_seq = pipeline.DurableSeq();
  out->resume_seq = pipeline.ResumeSeq();
  out->memory_bytes = pipeline.PeakMemoryBytes();
  out->shards = static_cast<uint32_t>(pipeline.shard_count());
  out->durable = entry.params.durable;
  out->recovered = pipeline.recovery().recovered;
  out->algorithm = entry.params.algorithm;
  if (pipeline.AuditEnabled()) {
    const ingest::IngestPipeline::AuditCounters audit =
        pipeline.GetAuditCounters();
    out->audited = true;
    out->audit_rounds = audit.rounds;
    out->audit_violations = audit.violations;
    out->audit_max_err = audit.max_observed_err;
    out->audit_eps_budget = audit.eps_budget;
  }
}

void StreamqServer::Enqueue(Session& session, const NetResponse& response) {
  if (!response.ok() && response.status != NetStatus::kWalDead) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    registry_.GetCounter("net.errors").Inc();
  }
  std::string frame = EncodeResponse(response);
  session.queued_bytes += frame.size();
  session.outq.push_back(std::move(frame));
}

void StreamqServer::EnqueueError(Session& session, const NetRequest& request,
                                 NetStatus status,
                                 const std::string& message) {
  NetResponse resp;
  resp.id = request.id;
  resp.op = request.op;
  resp.status = status;
  resp.message = message;
  Enqueue(session, resp);
}

void StreamqServer::RecordLatency(NetOp op, uint64_t start_ns) {
  const uint64_t now = obs::TickClock::NowNanos();
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  registry_.GetHistogram(std::string("net.latency_ns.") + NetOpName(op))
      .Record(now > start_ns ? now - start_ns : 0);
}

// ---------------------------------------------------------------------------
// HTTP scrape endpoint
// ---------------------------------------------------------------------------

void StreamqServer::ServeHttp(Session& session) {
  // Request line: "GET <path> HTTP/1.x" or "HEAD <path> HTTP/1.x". A HEAD
  // answer carries the same status and headers -- Content-Length included,
  // per RFC 9110 -- with the body elided, so probes can watch /healthz
  // without paying for a /metrics-sized body.
  const bool head_only = session.http_buf.compare(0, 5, "HEAD ") == 0;
  std::string path = "/";
  const size_t line_end = session.http_buf.find("\r\n");
  if (line_end != std::string::npos) {
    const size_t path_start = head_only ? 5 : 4;
    const size_t path_end = session.http_buf.find(' ', path_start);
    if (path_end != std::string::npos && path_end < line_end) {
      path = session.http_buf.substr(path_start, path_end - path_start);
    }
  }
  std::string status = "404 Not Found";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body = "not found\n";
  if (path == "/metrics") {
    status = "200 OK";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = MetricsText();
  } else if (path == "/healthz") {
    // Liveness + the audit verdict: 503 on sustained eps violations so a
    // load balancer stops trusting answers the auditor says are wrong.
    if (Healthy()) {
      status = "200 OK";
      body = "ok\n";
    } else {
      status = "503 Service Unavailable";
      body = "unhealthy: sustained accuracy-audit violations\n";
    }
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    registry_.GetCounter("net.http_requests").Inc();
  }
  std::string head = "HTTP/1.0 " + status +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  session.queued_bytes += head.size();
  session.outq.push_back(std::move(head));
  if (!head_only) {
    session.queued_bytes += body.size();
    session.outq.push_back(std::move(body));
  }
  session.http_buf.clear();
  session.closing = true;
}

std::string StreamqServer::MetricsText() {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  registry_.GetGauge("net.streams.open")
      .Set(static_cast<int64_t>(streams_.size()));
  for (auto& [name, entry] : streams_) {
    entry.pipeline->PublishMetrics(registry_, "net.stream." + name);
  }
  uint64_t shadow_bytes = 0;
  for (auto& [name, entry] : streams_) {
    if (!entry.pipeline->AuditEnabled()) continue;
    shadow_bytes += entry.pipeline->LastAuditReport().shadow_bytes;
  }
  registry_.GetGauge("audit.shadow_bytes")
      .Set(static_cast<int64_t>(shadow_bytes));
  return obs::ExportPrometheusText(registry_);
}

}  // namespace streamq::net
