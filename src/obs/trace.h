// streamq_obs: flight-recorder tracing for the ingest data path.
//
// Where obs/metrics.h answers "how much" (counters, pow2 histograms), this
// layer answers "where and when": a fixed-capacity ring of timestamped,
// typed events per thread — span begin/end pairs and instants — recording
// the last few thousand things each thread did. When a writer goes dead,
// the stall watchdog fires, or recovery fails, the rings are frozen into a
// Chrome trace-event JSON file (see obs/trace_export.h), turning a counter
// bump into a replayable timeline.
//
// Design constraints (DESIGN.md section 12):
//
//  * Allocation-free, lock-free hot path. Recording is: one relaxed load of
//    the enabled flag, one TickClock read, three relaxed atomic stores into
//    a preallocated slot, one release store of the head counter. No CAS, no
//    fences beyond the release, no branches on ring occupancy — the ring
//    overwrites its oldest events (drop-oldest policy; a flight recorder
//    keeps the *latest* history, which is the part that explains a crash).
//  * Race-free snapshots without stopping writers. Every slot field is a
//    std::atomic written with relaxed stores; the head counter is published
//    with a release store and read by the exporter with acquire loads. The
//    exporter applies a seqlock-style discard rule (see TraceRing::Snapshot)
//    so a slot that may have been overwritten mid-read is dropped rather
//    than emitted torn. TSan runs clean over concurrent record + snapshot.
//
// Rings are pooled: a thread's first record acquires a ring from
// Tracer::Global() and caches it in a thread_local; thread exit returns the
// ring to the pool for reuse, so hundreds of short-lived worker threads
// (the test suite) share a bounded set of rings instead of growing the
// process monotonically. Rings are never destroyed before process exit and
// the global tracer is intentionally leaked, so recording from late static
// destructors cannot touch freed memory.

#ifndef STREAMQ_OBS_TRACE_H_
#define STREAMQ_OBS_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace streamq::obs {

/// Every instrumented site in the pipeline. Names/categories for export come
/// from TracePointName()/TracePointCategory().
enum class TracePoint : uint8_t {
  kPush = 0,           ///< IngestPipeline::PushBatch (arg: span length)
  kPushBackoff,        ///< ring-full backoff inside PushBatch (arg: shard)
  kRingFull,           ///< instant: TryPushBatch refused (arg: full shard)
  kStallWatchdog,      ///< instant: push stalled >100ms (arg: shard)
  kWorkerBatch,        ///< one worker drain+apply batch (arg: batch size)
  kSketchUpdate,       ///< instant: accepted Insert/Erase (arg: value)
  kSketchCompaction,   ///< compaction span / trigger instant (arg: size)
  kWalAppend,          ///< WalWriter::AppendBatch (arg: shard)
  kWalSync,            ///< WalWriter::Sync (arg: shard)
  kWalRoll,            ///< WalWriter::Roll (arg: shard)
  kWalTruncate,        ///< WAL segment pruning (arg: shard)
  kWalDead,            ///< instant: dead-writer freeze (arg: shard)
  kCheckpointWrite,    ///< checkpoint serialize+rename (arg: checkpoint id)
  kCheckpointPrune,    ///< covered-segment deletion (arg: segments removed)
  kRecoveryReplay,     ///< WAL tail replay at Create() (arg: shard)
  kViewPublish,        ///< merge shard snapshots + publish (arg: shards)
  kViewFlip,           ///< instant: QueryView atomic index flip (arg: epoch)
  kQuery,              ///< Query/QueryMany against the view (arg: phi ppm)
  kChannelSend,        ///< instant: monitor channel send (arg: bytes)
  kChannelRecv,        ///< instant: monitor channel delivery (arg: bytes)
  kCrashDump,          ///< instant: flight-recorder dump written
  kClusterShip,        ///< node snapshot clone + frame + send (arg: epoch)
  kClusterMerge,       ///< coordinator cross-node merge for a query (arg: nodes)
  kClusterProbe,       ///< instant: coordinator staleness probe (arg: node)
  kClusterRecover,     ///< node restart recovery + resync (arg: node)
  kMaxValue = kClusterRecover,
};

enum class TracePhase : uint8_t {
  kBegin = 0,
  kEnd = 1,
  kInstant = 2,
};

/// Short stable name for export ("push", "wal_sync", ...).
const char* TracePointName(TracePoint p);
/// Chrome trace category ("ingest", "wal", "ckpt", "sketch", ...).
const char* TracePointCategory(TracePoint p);

/// One decoded event, as returned by TraceRing::Snapshot.
struct TraceEvent {
  uint64_t ticks = 0;  ///< TickClock::Now() at record time
  uint64_t arg = 0;    ///< site-specific payload (see TracePoint comments)
  TracePoint point = TracePoint::kPush;
  TracePhase phase = TracePhase::kInstant;
};

/// Fixed-capacity single-writer ring of trace events. One thread records
/// (lock-free, overwriting the oldest slot when full); any thread may
/// snapshot concurrently and gets only slots that were provably not being
/// rewritten during the read.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 8 events.
  explicit TraceRing(size_t capacity_events);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Records one event. Writer-side only; callable from exactly one thread
  /// at a time (the owning thread).
  void Record(TracePoint point, TracePhase phase, uint64_t arg) {
    const uint64_t ticks = TickClock::Now();
    const uint64_t i = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[static_cast<size_t>(i) & mask_];
    s.ticks.store(ticks, std::memory_order_relaxed);
    s.arg.store(arg, std::memory_order_relaxed);
    s.meta.store(PackMeta(point, phase), std::memory_order_relaxed);
    // Publish: a reader that observes head > i also observes slot i's
    // fields (acquire on the reader side pairs with this release).
    head_.store(i + 1, std::memory_order_release);
  }

  size_t capacity() const { return mask_ + 1; }

  /// Total events ever recorded (monotonic; >= capacity means wrapped).
  uint64_t recorded() const { return head_.load(std::memory_order_acquire); }

  /// Stable per-thread id for export (assigned by the owning Tracer).
  int tid() const { return tid_.load(std::memory_order_relaxed); }
  void set_tid(int tid) { tid_.store(tid, std::memory_order_relaxed); }

  /// Forgets all recorded events. Only safe when the writer thread is
  /// quiescent (pool reuse, tests, bench lane resets).
  void Reset() { head_.store(0, std::memory_order_relaxed); }

  struct SnapshotResult {
    std::vector<TraceEvent> events;  ///< oldest-first, consistent slots only
    uint64_t recorded = 0;           ///< head at snapshot start
    uint64_t overwritten = 0;        ///< events lost to wrap before snapshot
    uint64_t discarded = 0;          ///< slots dropped by the seqlock rule
  };

  /// Copies out the ring without stopping the writer. Reads head (h1,
  /// acquire), copies candidate slots, re-reads head (h2, acquire), then
  /// keeps only indices i with i + capacity > h2: the writer starts
  /// rewriting slot (i % capacity) when it begins event i + capacity, and
  /// events < h2 have begun, so anything older may be torn and is dropped
  /// (counted in `discarded`) instead of emitted.
  SnapshotResult Snapshot() const;

 private:
  struct Slot {
    std::atomic<uint64_t> ticks{0};
    std::atomic<uint64_t> arg{0};
    std::atomic<uint32_t> meta{0};
  };

  static uint32_t PackMeta(TracePoint point, TracePhase phase) {
    return static_cast<uint32_t>(point) |
           (static_cast<uint32_t>(phase) << 8);
  }

  std::vector<Slot> slots_;
  size_t mask_;
  std::atomic<uint64_t> head_{0};
  std::atomic<int> tid_{0};
};

/// Owns the ring pool, the enabled flag, and the crash-dump latch. One
/// leaked Global() instance serves the whole process; tests may build their
/// own instances and record into explicitly acquired rings.
class Tracer {
 public:
  static constexpr size_t kDefaultRingEvents = 8192;

  Tracer();
  ~Tracer();

  /// The process-wide tracer used by the STREAMQ_TRACE_* macros.
  /// Intentionally leaked: safe to record during static destruction.
  static Tracer& Global();

  /// Master switch. Off (the default) makes every macro site a single
  /// relaxed load + branch; nothing is recorded.
  void SetEnabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Capacity (events) for rings acquired after this call; existing rings
  /// keep their size. Clamped to a power of two >= 8.
  void SetRingEvents(size_t events);
  size_t ring_events() const;

  /// Gets this thread a ring: reuses a pooled one when available, else
  /// allocates. The caller (trace.cc's thread_local holder) must return it
  /// with ReleaseThreadRing on thread exit.
  TraceRing* AcquireThreadRing();
  void ReleaseThreadRing(TraceRing* ring);

  /// Visits every ring ever handed out (including pooled ones, whose events
  /// from finished threads are still part of the flight history until
  /// reuse). Snapshot() on each visited ring is race-free.
  void VisitRings(const std::function<void(const TraceRing&)>& fn) const;

  /// Sum of recorded() over all rings.
  uint64_t TotalRecorded() const;

  /// Resets every ring and re-arms the crash-dump latch. Only safe when no
  /// thread is recording (bench lane boundaries, test setup).
  void Clear();

  size_t RingCount() const;

  /// Arms automatic flight-recorder dumps: the first CrashDump() after this
  /// call writes Chrome trace JSON to `path`. Empty path disarms.
  void SetCrashDumpPath(const std::string& path);
  std::string crash_dump_path() const;

  /// Dumps all rings to the armed path, once: the first caller after
  /// SetCrashDumpPath wins, later calls are no-ops (a dying pipeline hits
  /// several triggers; the earliest has the most history). Returns true if
  /// this call wrote the file. `reason` lands in the JSON's otherData.
  bool CrashDump(const char* reason);

  /// Re-opens the once-latch without changing the path (tests).
  void RearmCrashDump() { dumped_.store(false, std::memory_order_release); }

  /// True once a CrashDump() fired since the last arm/Clear.
  bool crash_dumped() const {
    return dumped_.load(std::memory_order_acquire);
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceRing>> rings_;  // all ever created
  std::vector<TraceRing*> free_;                   // released, reusable
  size_t ring_events_ = kDefaultRingEvents;
  int next_tid_ = 1;
  std::string dump_path_;
  std::atomic<bool> enabled_{false};
  std::atomic<bool> dumped_{false};
};

namespace trace_internal {
/// Mirror of Tracer::Global().enabled() readable without touching the
/// (function-local-static) tracer: the macro fast path is one relaxed load.
extern std::atomic<bool> g_enabled;
}  // namespace trace_internal

/// Fast-path gate used by the macros.
inline bool TraceEnabled() {
  return trace_internal::g_enabled.load(std::memory_order_relaxed);
}

/// Records into this thread's ring of the global tracer (acquiring one on
/// first use). Out of line: the macro only pays for it when enabled.
void TraceRecord(TracePoint point, TracePhase phase, uint64_t arg);

/// RAII span: begin on construction, end on destruction. Latches the
/// enabled flag at construction so a mid-span toggle cannot produce a
/// dangling begin/end.
class TraceSpan {
 public:
  TraceSpan(TracePoint point, uint64_t arg)
      : point_(point), armed_(TraceEnabled()) {
    if (armed_) TraceRecord(point_, TracePhase::kBegin, arg);
  }
  ~TraceSpan() {
    if (armed_) TraceRecord(point_, TracePhase::kEnd, 0);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TracePoint point_;
  bool armed_;
};

}  // namespace streamq::obs

#define STREAMQ_TRACE_CAT2(a, b) a##b
#define STREAMQ_TRACE_CAT(a, b) STREAMQ_TRACE_CAT2(a, b)

/// Traces the rest of the enclosing scope as a span of `point`.
#define STREAMQ_TRACE_SPAN(point, arg)                  \
  ::streamq::obs::TraceSpan STREAMQ_TRACE_CAT(          \
      streamq_trace_span_, __COUNTER__)(                \
      (point), static_cast<uint64_t>(arg))

/// Records a zero-duration instant event.
#define STREAMQ_TRACE_INSTANT(point, arg)                                 \
  do {                                                                    \
    if (::streamq::obs::TraceEnabled()) {                                 \
      ::streamq::obs::TraceRecord((point),                                \
                                  ::streamq::obs::TracePhase::kInstant,   \
                                  static_cast<uint64_t>(arg));            \
    }                                                                     \
  } while (0)

/// Fires the global crash-dump latch (no-op unless armed; see
/// Tracer::SetCrashDumpPath).
#define STREAMQ_TRACE_CRASH_DUMP(reason) \
  ((void)::streamq::obs::Tracer::Global().CrashDump(reason))

#endif  // STREAMQ_OBS_TRACE_H_
