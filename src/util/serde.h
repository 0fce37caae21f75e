// Binary serialisation for sketch snapshots, hardened for transport.
//
// Summaries are shipped between processes (the mergeable-summary use case,
// the distributed monitor) or checkpointed with the stream offset. Two
// layers:
//
//  * SerdeWriter / SerdeReader: compact little-endian primitive encoding.
//    Every read is bounds-checked against the remaining buffer BEFORE any
//    allocation, so a corrupt length field can never trigger a multi-GB
//    resize or bad_alloc — it is rejected as malformed input instead.
//
//  * Framed snapshots: every externally visible snapshot is wrapped in a
//    fixed header  magic | version | type | payload_len | crc32c(payload)
//    (see kFrameHeaderBytes). Deserialize first validates the frame:
//    wrong magic/version, a type tag for a different sketch, a length that
//    does not match the buffer, or a CRC32C mismatch all fail cleanly
//    (nullptr / false) before a single payload byte is interpreted. Any
//    single-byte corruption of a framed snapshot is therefore detected.
//
// The format is versioned per-frame (kFrameVersion); readers reject frames
// from a future version rather than misparse them.

#ifndef STREAMQ_UTIL_SERDE_H_
#define STREAMQ_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace streamq {

class SerdeWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }

  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Raw(&v, sizeof(v));
  }

  template <typename T>
  void PodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(T));
  }

  /// Length-prefixed byte string (e.g. a nested snapshot inside a larger
  /// checkpoint or wire message).
  void Bytes(const std::string& s) {
    U64(s.size());
    if (!s.empty()) Raw(s.data(), s.size());
  }

  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  void Raw(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }
  std::string buffer_;
};

class SerdeReader {
 public:
  explicit SerdeReader(const std::string& buffer) : buffer_(buffer) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }

  template <typename T>
  bool Pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Raw(v, sizeof(*v));
  }

  /// Reads a length-prefixed POD vector. The decoded element count is
  /// bounded by the bytes actually remaining in the buffer before *v is
  /// resized, so a corrupt length can neither over-allocate nor leave *v
  /// partially written: on any failure *v is untouched.
  template <typename T>
  bool PodVector(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t size = 0;
    if (!U64(&size)) return false;
    if (size > Remaining() / sizeof(T)) return false;  // corrupt length
    v->resize(static_cast<size_t>(size));
    return size == 0 || Raw(v->data(), static_cast<size_t>(size) * sizeof(T));
  }

  /// Reads a length-prefixed byte string with the same bounded-allocation
  /// guarantee as PodVector.
  bool Bytes(std::string* s) {
    uint64_t size = 0;
    if (!U64(&size)) return false;
    if (size > Remaining()) return false;  // corrupt length
    s->assign(buffer_.data() + pos_, static_cast<size_t>(size));
    pos_ += static_cast<size_t>(size);
    return true;
  }

  /// Bytes not yet consumed.
  size_t Remaining() const { return buffer_.size() - pos_; }

  /// True when every byte has been consumed (a full, exact parse).
  bool Done() const { return pos_ == buffer_.size(); }

 private:
  bool Raw(void* out, size_t size) {
    if (Remaining() < size) return false;
    std::memcpy(out, buffer_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  const std::string& buffer_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Framed snapshots
// ---------------------------------------------------------------------------

/// Type tag carried in every frame header: a frame for one sketch type is
/// never accepted by another's Deserialize.
enum class SnapshotType : uint16_t {
  kGkTheory = 1,
  kGkAdaptive = 2,
  kGkArray = 3,
  kRandom = 4,
  kMrl99 = 5,
  kFastQDigest = 6,
  kDcm = 7,
  kDcs = 8,
  kRss = 9,
  // Shipping protocol (src/cluster/wire.h), shared by monitor sites and
  // cluster nodes: epoch-numbered summary shipments sender -> coordinator,
  // validated acks coordinator -> sender, and the tiny per-node epoch
  // horizon persisted beside the WAL. Tags 32-34 once framed the monitor's
  // own shipments, acks and site checkpoints; do not reuse them.
  kClusterShipment = 35,
  kClusterAck = 36,
  kClusterNodeMeta = 37,
  // Observability (src/obs/): the accuracy audit plane's reservoir shadow
  // (sample + generator state). Tag 48 once framed a metrics registry
  // snapshot; do not reuse it.
  kAuditShadow = 49,
  // Network service tier (src/net/): request/response frames on the
  // client <-> server byte stream. The frame header doubles as the wire
  // length prefix (payload_len at a fixed offset), so a connection can be
  // stream-parsed frame by frame with the same single-flipped-byte
  // detection guarantee as every other snapshot.
  kNetRequest = 80,
  kNetResponse = 81,
  // Durable ingest (src/durability/): an atomic pipeline checkpoint
  // (per-shard sketch frames + applied sequence numbers).
  kDurableCheckpoint = 64,
};

inline constexpr uint32_t kFrameMagic = 0x53514652u;  // "SQFR"
inline constexpr uint16_t kFrameVersion = 2;
/// magic u32 | version u16 | type u16 | payload_len u64 | header crc32c u32 |
/// payload crc32c u32
inline constexpr size_t kFrameHeaderBytes = 4 + 2 + 2 + 8 + 4 + 4;
/// The header CRC covers the boundary-critical prefix (magic, version/type,
/// payload_len). A streaming scanner must be able to reject a corrupt length
/// *before* committing to wait for payload bytes that will never arrive; the
/// payload CRC cannot help with that, because checking it requires the very
/// byte count the corruption lied about.
inline constexpr size_t kFrameHeaderCrcCoverage = 4 + 2 + 2 + 8;

/// Wraps `payload` in a checksummed frame header.
std::string FrameSnapshot(SnapshotType type, const std::string& payload);

/// Validates a frame (magic, version, type tag, exact length, CRC32C) and on
/// success copies the payload into *payload. Returns false — leaving
/// *payload untouched — on any mismatch; never allocates more than the
/// frame's actual size.
bool UnframeSnapshot(const std::string& frame, SnapshotType expected,
                     std::string* payload);

/// Reads the type tag of a structurally valid frame without checking the
/// payload CRC; false if the header is malformed.
bool PeekSnapshotType(const std::string& frame, SnapshotType* type);

}  // namespace streamq

#endif  // STREAMQ_UTIL_SERDE_H_
