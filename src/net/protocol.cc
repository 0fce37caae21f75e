#include "net/protocol.h"

#include <cstring>

#include "util/crc32c.h"

namespace streamq::net {
namespace {

// Request payload field layout (after the generic id/op/stream prefix) is
// op-specific; see Encode/DecodeRequest. Keep encode and decode in one
// file so the switch arms stay mirror images.

void EncodeStats(SerdeWriter& w, const StreamStatsPayload& s) {
  w.U64(s.count);
  w.U64(s.pushed);
  w.U64(s.processed);
  w.U64(s.durable_seq);
  w.U64(s.resume_seq);
  w.U64(s.memory_bytes);
  w.U32(s.shards);
  w.U32((s.durable ? 1u : 0u) | (s.recovered ? 2u : 0u) |
        (s.audited ? 4u : 0u));
  w.Bytes(s.algorithm);
  w.U64(s.audit_rounds);
  w.U64(s.audit_violations);
  w.F64(s.audit_max_err);
  w.F64(s.audit_eps_budget);
}

bool DecodeStats(SerdeReader& r, StreamStatsPayload* s) {
  uint32_t flags = 0;
  if (!r.U64(&s->count) || !r.U64(&s->pushed) || !r.U64(&s->processed) ||
      !r.U64(&s->durable_seq) || !r.U64(&s->resume_seq) ||
      !r.U64(&s->memory_bytes) || !r.U32(&s->shards) || !r.U32(&flags) ||
      !r.Bytes(&s->algorithm) || !r.U64(&s->audit_rounds) ||
      !r.U64(&s->audit_violations) || !r.F64(&s->audit_max_err) ||
      !r.F64(&s->audit_eps_budget)) {
    return false;
  }
  s->durable = (flags & 1u) != 0;
  s->recovered = (flags & 2u) != 0;
  s->audited = (flags & 4u) != 0;
  return true;
}

/// Probe lists beyond any sane phi-grid are rejected before the reserve,
/// bounding what a hostile length prefix can allocate.
constexpr uint64_t kMaxAuditProbes = 4096;

void EncodeAudit(SerdeWriter& w, const obs::AuditReport& a) {
  w.U32((a.valid ? 1u : 0u) | (a.tainted ? 2u : 0u));
  w.U64(a.sketch_count);
  w.U64(a.shadow_n);
  w.U64(a.shadow_k);
  w.U64(a.shadow_bytes);
  w.F64(a.gap_frac);
  w.F64(a.eps_budget);
  w.F64(a.max_observed_err);
  w.U32(static_cast<uint32_t>(a.violations));
  w.U64(a.probes.size());
  for (const obs::AuditProbe& p : a.probes) {
    w.F64(p.phi);
    w.U64(p.quantile);
    w.F64(p.observed_err);
    w.F64(p.budget);
    w.U32(p.violation ? 1u : 0u);
  }
}

bool DecodeAudit(SerdeReader& r, obs::AuditReport* a) {
  uint32_t flags = 0, violations = 0;
  uint64_t n_probes = 0;
  if (!r.U32(&flags) || !r.U64(&a->sketch_count) || !r.U64(&a->shadow_n) ||
      !r.U64(&a->shadow_k) || !r.U64(&a->shadow_bytes) ||
      !r.F64(&a->gap_frac) || !r.F64(&a->eps_budget) ||
      !r.F64(&a->max_observed_err) || !r.U32(&violations) ||
      !r.U64(&n_probes)) {
    return false;
  }
  if ((flags & ~3u) != 0 || n_probes > kMaxAuditProbes) return false;
  a->valid = (flags & 1u) != 0;
  a->tainted = (flags & 2u) != 0;
  a->violations = static_cast<int>(violations);
  a->probes.clear();
  a->probes.reserve(n_probes);
  for (uint64_t i = 0; i < n_probes; ++i) {
    obs::AuditProbe p;
    uint32_t violation = 0;
    if (!r.F64(&p.phi) || !r.U64(&p.quantile) || !r.F64(&p.observed_err) ||
        !r.F64(&p.budget) || !r.U32(&violation)) {
      return false;
    }
    p.violation = violation != 0;
    a->probes.push_back(p);
  }
  return true;
}

bool ValidOp(uint32_t op) {
  return op >= static_cast<uint32_t>(NetOp::kCreate) &&
         op <= static_cast<uint32_t>(NetOp::kAudit);
}

bool CarriesStats(NetOp op) {
  return op == NetOp::kStats || op == NetOp::kCreate || op == NetOp::kResume;
}

}  // namespace

const char* NetOpName(NetOp op) {
  switch (op) {
    case NetOp::kCreate: return "CREATE";
    case NetOp::kDrop: return "DROP";
    case NetOp::kInsert: return "INSERT";
    case NetOp::kBatchInsert: return "BATCH_INSERT";
    case NetOp::kQuery: return "QUERY";
    case NetOp::kRank: return "RANK";
    case NetOp::kFlush: return "FLUSH";
    case NetOp::kStats: return "STATS";
    case NetOp::kResume: return "RESUME";
    case NetOp::kAudit: return "AUDIT";
  }
  return "unknown";
}

const char* NetStatusName(NetStatus status) {
  switch (status) {
    case NetStatus::kOk: return "OK";
    case NetStatus::kBadRequest: return "BAD_REQUEST";
    case NetStatus::kUnknownStream: return "UNKNOWN_STREAM";
    case NetStatus::kStreamExists: return "STREAM_EXISTS";
    case NetStatus::kUnsupported: return "UNSUPPORTED";
    case NetStatus::kWalDead: return "WAL_DEAD";
    case NetStatus::kTooManyStreams: return "TOO_MANY_STREAMS";
    case NetStatus::kInternal: return "INTERNAL";
    case NetStatus::kServerBusy: return "SERVER_BUSY";
  }
  return "unknown";
}

size_t BatchInsertFrameBytes(size_t n_values, size_t stream_name_len) {
  // header + id + op + stream bytes + values PodVector.
  return kFrameHeaderBytes + 8 + 4 + (8 + stream_name_len) +
         (8 + n_values * 8);
}

std::string EncodeRequest(const NetRequest& request) {
  SerdeWriter w;
  w.U64(request.id);
  w.U32(static_cast<uint32_t>(request.op));
  w.Bytes(request.stream);
  switch (request.op) {
    case NetOp::kCreate:
      w.Bytes(request.create.algorithm);
      w.F64(request.create.eps);
      w.U32(request.create.log_universe);
      w.U32(request.create.depth);
      w.U64(request.create.seed);
      w.U32(request.create.shards);
      w.U32(request.create.durable ? 1 : 0);
      break;
    case NetOp::kInsert:
      w.U64(request.value);
      w.I64(request.delta);
      break;
    case NetOp::kBatchInsert:
      w.PodVector(request.values);
      break;
    case NetOp::kQuery:
      w.F64(request.phi);
      break;
    case NetOp::kRank:
      w.U64(request.value);
      break;
    case NetOp::kDrop:
    case NetOp::kFlush:
    case NetOp::kStats:
    case NetOp::kResume:
    case NetOp::kAudit:
      break;
  }
  return FrameSnapshot(SnapshotType::kNetRequest, w.buffer());
}

bool DecodeRequest(const std::string& frame, NetRequest* out) {
  std::string payload;
  if (!UnframeSnapshot(frame, SnapshotType::kNetRequest, &payload)) {
    return false;
  }
  SerdeReader r(payload);
  NetRequest req;
  uint32_t op = 0;
  if (!r.U64(&req.id) || !r.U32(&op) || !r.Bytes(&req.stream) ||
      !ValidOp(op)) {
    return false;
  }
  req.op = static_cast<NetOp>(op);
  switch (req.op) {
    case NetOp::kCreate: {
      uint32_t durable = 0;
      if (!r.Bytes(&req.create.algorithm) || !r.F64(&req.create.eps) ||
          !r.U32(&req.create.log_universe) || !r.U32(&req.create.depth) ||
          !r.U64(&req.create.seed) || !r.U32(&req.create.shards) ||
          !r.U32(&durable)) {
        return false;
      }
      req.create.durable = durable != 0;
      break;
    }
    case NetOp::kInsert: {
      int64_t delta = 0;
      if (!r.U64(&req.value) || !r.I64(&delta)) return false;
      if (delta < INT32_MIN || delta > INT32_MAX) return false;
      req.delta = static_cast<int32_t>(delta);
      break;
    }
    case NetOp::kBatchInsert:
      if (!r.PodVector(&req.values)) return false;
      break;
    case NetOp::kQuery:
      if (!r.F64(&req.phi)) return false;
      break;
    case NetOp::kRank:
      if (!r.U64(&req.value)) return false;
      break;
    case NetOp::kDrop:
    case NetOp::kFlush:
    case NetOp::kStats:
    case NetOp::kResume:
    case NetOp::kAudit:
      break;
  }
  if (!r.Done()) return false;  // trailing bytes = malformed
  *out = std::move(req);
  return true;
}

std::string EncodeResponse(const NetResponse& response) {
  SerdeWriter w;
  w.U64(response.id);
  w.U32(static_cast<uint32_t>(response.op));
  w.U32(static_cast<uint32_t>(response.status));
  w.Bytes(response.message);
  if (response.status == NetStatus::kOk ||
      response.status == NetStatus::kWalDead) {
    w.U64(response.value);
    w.I64(response.rank);
    if (CarriesStats(response.op)) {
      EncodeStats(w, response.stats);
    }
    if (response.op == NetOp::kAudit) {
      EncodeAudit(w, response.audit);
    }
  }
  return FrameSnapshot(SnapshotType::kNetResponse, w.buffer());
}

bool DecodeResponse(const std::string& frame, NetResponse* out) {
  std::string payload;
  if (!UnframeSnapshot(frame, SnapshotType::kNetResponse, &payload)) {
    return false;
  }
  SerdeReader r(payload);
  NetResponse resp;
  uint32_t op = 0, status = 0;
  if (!r.U64(&resp.id) || !r.U32(&op) || !r.U32(&status) ||
      !r.Bytes(&resp.message) || !ValidOp(op)) {
    return false;
  }
  if (status > static_cast<uint32_t>(NetStatus::kServerBusy)) return false;
  resp.op = static_cast<NetOp>(op);
  resp.status = static_cast<NetStatus>(status);
  if (resp.status == NetStatus::kOk || resp.status == NetStatus::kWalDead) {
    if (!r.U64(&resp.value) || !r.I64(&resp.rank)) return false;
    if (CarriesStats(resp.op)) {
      if (!DecodeStats(r, &resp.stats)) return false;
    }
    if (resp.op == NetOp::kAudit) {
      if (!DecodeAudit(r, &resp.audit)) return false;
    }
  }
  if (!r.Done()) return false;
  *out = std::move(resp);
  return true;
}

FrameScan FrameBuffer::Next(std::string* frame) {
  if (poisoned_) return FrameScan::kBad;
  // Compact lazily so long-lived sessions do not accumulate dead prefix.
  if (consumed_ > 0 &&
      (consumed_ == buffer_.size() || consumed_ > (size_t{256} << 10))) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  if (buffered() < kFrameHeaderBytes) return FrameScan::kNeedMore;
  const char* head = buffer_.data() + consumed_;
  uint32_t magic = 0, ver_type = 0, header_crc = 0;
  uint64_t payload_len = 0;
  std::memcpy(&magic, head, 4);
  std::memcpy(&ver_type, head + 4, 4);
  std::memcpy(&payload_len, head + 8, 8);
  std::memcpy(&header_crc, head + kFrameHeaderCrcCoverage, 4);
  const auto type = static_cast<SnapshotType>(ver_type >> 16);
  // The header CRC check here is what keeps a flipped length bit from
  // stalling the session: without it, a corrupt-but-plausible payload_len
  // leaves the scanner in kNeedMore for bytes the peer will never send,
  // and only the peer's io timeout (tens of seconds) breaks the deadlock.
  // With it, any single-bit header damage is kBad -> close -> reconnect.
  if (magic != kFrameMagic || (ver_type & 0xFFFF) != kFrameVersion ||
      (type != SnapshotType::kNetRequest &&
       type != SnapshotType::kNetResponse) ||
      Crc32c(head, kFrameHeaderCrcCoverage) != header_crc ||
      payload_len > kMaxFrameBytes - kFrameHeaderBytes) {
    poisoned_ = true;
    return FrameScan::kBad;
  }
  const size_t total = kFrameHeaderBytes + static_cast<size_t>(payload_len);
  if (buffered() < total) return FrameScan::kNeedMore;
  frame->assign(head, total);
  consumed_ += total;
  return FrameScan::kFrame;
}

}  // namespace streamq::net
