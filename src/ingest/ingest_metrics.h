// Thread-safe counters for the parallel ingest pipeline.
//
// The obs metrics primitives (obs/metrics.h) deliberately do not
// synchronise -- they are built for the single-threaded sketch hot path.
// The pipeline therefore keeps its own std::atomic counters, updated
// lock-free from whichever thread owns the event, and *copies* them into a
// MetricsRegistry on demand (IngestPipeline::PublishMetrics). The registry
// itself is only ever touched by the publishing caller's thread.
//
// Relaxed ordering throughout: these are statistics, not synchronisation.
// The pipeline's correctness-bearing ordering lives in the SPSC rings, the
// snapshot shared_ptrs, and the publish mutex.

#ifndef STREAMQ_INGEST_INGEST_METRICS_H_
#define STREAMQ_INGEST_INGEST_METRICS_H_

#include <atomic>
#include <cstdint>

namespace streamq::ingest {

/// Per-shard statistics, in two cache-line groups: the producer thread
/// writes the first, the shard's worker (and the checkpoint writer) the
/// second, so a push and a worker batch never contend for one line.
struct ShardStats {
  // --- producer side ----------------------------------------------------
  /// Updates routed into this shard's ring.
  alignas(64) std::atomic<uint64_t> pushed{0};
  /// Highest seq the producer routed to this shard (the ack accounting
  /// of DurableSeq).
  std::atomic<uint64_t> last_seq{0};
  /// Ring-full events: every TryPushBatch that this shard's full ring cut
  /// short, and each PushBatch stall episode that began at this shard
  /// (one count per episode, however long the backoff runs).
  std::atomic<uint64_t> ring_full_stalls{0};
  /// 100 ms watchdog periods elapsed inside a single continuous PushBatch
  /// stall while this shard's ring was the one blocking it; a nonzero rate
  /// means this shard's consumer is stuck, not just momentarily behind.
  std::atomic<uint64_t> stall_watchdog_trips{0};
  // --- worker side ------------------------------------------------------
  /// Updates applied to this shard's sketch.
  alignas(64) std::atomic<uint64_t> processed{0};
  /// Updates the shard sketch refused (out-of-universe, unsupported erase).
  std::atomic<uint64_t> rejected{0};
  /// Shard snapshots cloned and installed by the worker.
  std::atomic<uint64_t> snapshots{0};
  /// Processed count captured by the newest installed shard snapshot.
  std::atomic<uint64_t> snapshot_epoch{0};
  /// Maximum MemoryBytes() the shard sketch reached (paper accounting).
  std::atomic<uint64_t> peak_memory_bytes{0};
  // Durable mode only (stay 0 otherwise):
  /// Re-pushed updates skipped because the recovered state already covers
  /// their seq (the replay/restart dedup of DESIGN.md section 11).
  std::atomic<uint64_t> deduped{0};
  /// Highest applied seq covered by a published checkpoint; together with
  /// the WAL's durable seq this forms the shard's durability floor.
  std::atomic<uint64_t> checkpoint_seq{0};
};

/// Pipeline-wide statistics (single struct, shared by all threads).
struct PipelineStats {
  /// Updates accepted by the push entry points across all shards.
  std::atomic<uint64_t> pushed{0};
  /// Merged query-view publications (successful ones).
  std::atomic<uint64_t> publishes{0};
  /// Publication attempts skipped because another publisher held the lock.
  std::atomic<uint64_t> publish_contended{0};
  /// Query() / QueryMany() calls answered from the view.
  std::atomic<uint64_t> queries{0};
  /// Queries answered from a snapshot older than the processed count at
  /// query time (the publish-staleness counter of DESIGN.md section 10).
  std::atomic<uint64_t> stale_queries{0};
  /// Largest combined MemoryBytes() of the two query-view buffers.
  std::atomic<uint64_t> peak_view_bytes{0};
  /// Checkpoint generations published (durable mode).
  std::atomic<uint64_t> checkpoints{0};
  /// Checkpoint attempts that failed at any step (durable mode).
  std::atomic<uint64_t> checkpoint_failures{0};
};

/// max-update for the peak gauges (relaxed CAS loop; uncontended in
/// practice since each peak has one writer).
inline void UpdatePeak(std::atomic<uint64_t>& peak, uint64_t candidate) {
  uint64_t cur = peak.load(std::memory_order_relaxed);
  while (candidate > cur &&
         !peak.compare_exchange_weak(cur, candidate,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace streamq::ingest

#endif  // STREAMQ_INGEST_INGEST_METRICS_H_
