// Wire protocol of the streamq network service (DESIGN.md section 15).
//
// Every message -- request or response -- is one CRC32C-framed snapshot
// (util/serde.h): the 24-byte header  magic | version | type | payload_len
// | crc32c(header prefix) | crc32c(payload)  doubles as the length prefix,
// so a byte stream is parsed frame by frame with the same corruption
// guarantees as every other framed snapshot in the repo:
//
//  * a flipped byte in the PAYLOAD (or its CRC field) fails the payload
//    CRC; the frame boundary is still exact, so the server answers a clean
//    error response and the NEXT pipelined request parses untouched (no
//    desync);
//  * a flipped byte in the boundary-critical HEADER prefix (magic, version,
//    type, payload_len, or the header CRC itself) fails the header CRC;
//    the boundary is untrustworthy, so the connection is closed
//    *immediately at scan time* (the only safe resynchronisation of a byte
//    stream with a corrupt length). Crucially this includes a flipped
//    length bit that still looks plausible -- without the header CRC such
//    a frame "never completes" and both sides stall until an io timeout;
//  * a truncated frame simply never completes and dies with the
//    connection.
//
// Requests carry a client-assigned id echoed verbatim in the response.
// Responses come back in request order per connection (the server is a
// sequential state machine per session), so the id is a cross-check and a
// pipelining convenience, not a reordering mechanism.
//
// The payload encoding is the bounds-checked SerdeReader/Writer; decode
// requires an exact parse (reader.Done()), so trailing garbage inside a
// CRC-valid payload is rejected, mirroring the snapshot deserializers.

#ifndef STREAMQ_NET_PROTOCOL_H_
#define STREAMQ_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "util/serde.h"

namespace streamq::net {

/// Request opcodes. Values are wire format -- append only.
enum class NetOp : uint8_t {
  kCreate = 1,       ///< create a stream (algorithm + params)
  kDrop = 2,         ///< drop a stream (and its durable state)
  kInsert = 3,       ///< one update (value, delta)
  kBatchInsert = 4,  ///< a span of values (delta +1), one frame -> one batch
  kQuery = 5,        ///< phi-quantile of a stream
  kRank = 6,         ///< estimated rank of a value
  kFlush = 7,        ///< durability barrier: ack = everything sent is safe
  kStats = 8,        ///< per-stream introspection
  kResume = 9,       ///< reconnect handshake: where should the producer resume?
  kAudit = 10,       ///< run one accuracy audit round, return the report
};

/// Response status. kOk aside, statuses are terminal for the REQUEST, not
/// the connection: the session keeps serving subsequent frames.
enum class NetStatus : uint16_t {
  kOk = 0,
  kBadRequest = 1,     ///< malformed payload / invalid argument
  kUnknownStream = 2,  ///< no stream by that name
  kStreamExists = 3,   ///< CREATE of a name already being served
  kUnsupported = 4,    ///< algorithm not pipeline-capable, durability off...
  kWalDead = 5,        ///< FLUSH could not reach durability (WAL failed)
  kTooManyStreams = 6,
  kInternal = 7,
  kServerBusy = 8,  ///< admission control: connection limit reached, retry later
};

const char* NetOpName(NetOp op);
const char* NetStatusName(NetStatus status);

/// CREATE parameters (a SketchConfig subset plus server-side knobs).
struct CreateParams {
  std::string algorithm = "Random";  ///< AlgorithmName() spelling
  double eps = 0.001;
  uint32_t log_universe = 32;
  uint32_t depth = 7;
  uint64_t seed = 1;
  uint32_t shards = 0;   ///< 0 = server default
  bool durable = false;  ///< WAL + checkpoints under the server's data dir
};

/// One decoded request. Fields beyond (id, op, stream) are op-specific;
/// unused ones are ignored by Encode and zero after Decode.
struct NetRequest {
  uint64_t id = 0;
  NetOp op = NetOp::kStats;
  std::string stream;
  CreateParams create;           // kCreate
  uint64_t value = 0;            // kInsert / kRank
  int32_t delta = +1;            // kInsert (negative = turnstile delete)
  double phi = 0.5;              // kQuery
  std::vector<uint64_t> values;  // kBatchInsert
};

/// Per-stream introspection payload (kStats response; a subset rides on
/// other acks where noted).
struct StreamStatsPayload {
  uint64_t count = 0;         ///< summarised elements in the published view
  uint64_t pushed = 0;        ///< updates accepted this incarnation
  uint64_t processed = 0;     ///< updates applied to shard sketches
  uint64_t durable_seq = 0;   ///< ack mark (0 = non-durable stream)
  uint64_t resume_seq = 1;    ///< producer restart mark
  uint64_t memory_bytes = 0;  ///< pipeline peak memory accounting
  uint32_t shards = 0;
  bool durable = false;
  bool recovered = false;  ///< this incarnation recovered prior state
  std::string algorithm;
  /// Accuracy-audit summary (zeros when the stream is not audited: the
  /// server was started with auditing off).
  bool audited = false;
  uint64_t audit_rounds = 0;
  uint64_t audit_violations = 0;  ///< lifetime probe violations
  double audit_max_err = 0.0;     ///< last round's max observed rank error
  double audit_eps_budget = 0.0;  ///< resolved eps * slack being enforced
};

/// One decoded response. `value` is the op's principal result: the
/// quantile (kQuery), the accepted-update count (kInsert/kBatchInsert),
/// the durable ack mark (kFlush), the server's last-pushed seq (kResume).
/// `rank` only for kRank. `stats` only for kStats, kCreate (where it
/// reports the recovery outcome) and kResume (shards + durable/resume
/// marks for the replaying producer).
struct NetResponse {
  uint64_t id = 0;
  NetOp op = NetOp::kStats;
  NetStatus status = NetStatus::kOk;
  std::string message;  ///< human-readable error detail ("" on kOk)
  uint64_t value = 0;
  int64_t rank = 0;
  StreamStatsPayload stats;
  /// Full per-phi audit report; only for kAudit with kOk (the shadow's
  /// sample itself never crosses the wire, only the scored probes).
  obs::AuditReport audit;

  bool ok() const { return status == NetStatus::kOk; }
};

/// Hard ceiling on one frame (header + payload). A header advertising a
/// larger payload is treated as corruption (connection close), bounding
/// per-connection memory no matter what arrives on the wire. Large enough
/// for a 1M-element BATCH_INSERT.
inline constexpr size_t kMaxFrameBytes = size_t{16} << 20;

/// Serialized frame size of a BATCH_INSERT of n values (for client-side
/// write-window budgeting).
size_t BatchInsertFrameBytes(size_t n_values, size_t stream_name_len);

std::string EncodeRequest(const NetRequest& request);
std::string EncodeResponse(const NetResponse& response);

/// Full frame validation (magic/version/type/length/CRC32C) plus an exact
/// payload parse. False -- leaving *out untouched -- on any corruption.
bool DecodeRequest(const std::string& frame, NetRequest* out);
bool DecodeResponse(const std::string& frame, NetResponse* out);

// ---------------------------------------------------------------------------
// Stream-to-frame assembly
// ---------------------------------------------------------------------------

/// What FrameBuffer::Next found at the head of the byte stream.
enum class FrameScan {
  kNeedMore,  ///< no complete frame buffered yet
  kFrame,     ///< *frame holds one complete frame (header included)
  kBad,       ///< header invalid: stream cannot be resynchronised
};

/// Accumulates connection bytes and carves them into frames. Header
/// validation (magic, version, a net type tag, the header CRC over the
/// boundary fields, payload_len <= max) happens here -- before payload
/// bytes are even retained -- so a corrupt length can never grow the
/// buffer past kMaxFrameBytes + one read chunk, and a corrupt-but-
/// plausible length is rejected instead of waiting forever for a frame
/// that will never complete. Payload CRC validation is Decode*'s job (a
/// payload CRC failure still has an exact boundary and is recoverable;
/// see the header comment).
class FrameBuffer {
 public:
  void Append(const char* data, size_t n) { buffer_.append(data, n); }

  /// Extracts the next complete frame into *frame (consumed from the
  /// buffer). kBad poisons the buffer: every later call returns kBad.
  FrameScan Next(std::string* frame);

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;
  bool poisoned_ = false;
};

}  // namespace streamq::net

#endif  // STREAMQ_NET_PROTOCOL_H_
