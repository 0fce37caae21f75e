// Sharded multi-threaded ingestion for the mergeable quantile summaries.
//
// Topology (DESIGN.md section 10):
//
//   producer --seq mod N--> [SPSC ring]xN --> N shard workers,
//   each owning a private sketch (no shared mutable state on the hot path)
//
//   workers periodically Clone() their shard sketch into a per-shard
//   snapshot slot (shared_slot.h), then one of them (publish mutex, try_lock)
//   merges all shard snapshots into a fresh sketch and installs it into
//   the double-buffered QueryView. Query(phi) reads the view RCU-style
//   and never blocks -- or is blocked by -- ingestion.
//
// The pipeline accepts any factory-buildable summary that is Mergeable()
// and Clone()-able: Random, MRL99, FastQDigest, DCM, DCS. Create() refuses
// the others (GK family: not mergeable; RSS/DCS+Post: no clone path).
//
// All shards are built from the *same* SketchConfig, identical seed
// included: the dyadic summaries are only merge-compatible when their
// per-level hash functions are identical, and identical construction is
// what guarantees that. The merged result then carries the usual eps * n
// bound at the combined stream length (mergeable-summary property;
// tests/property_test.cc checks it end to end).
//
// Durable mode (DESIGN.md section 11, options.durability.enabled): every
// update carries a producer-assigned sequence number; workers append
// sequence-stamped batches to per-shard write-ahead logs off the hot path
// and periodically publish atomic checkpoints. Create() then *recovers*
// whatever a previous incarnation left in options.durability.dir --
// newest valid checkpoint plus WAL tail replay -- before starting the
// workers. The contract with the producer:
//
//   * DurableSeq() is the acknowledgement mark: every update with
//     seq <= DurableSeq() survives any crash.
//   * After a restart, re-push the source stream starting at position
//     ResumeSeq() - 1 (0-based). ResumeSeq() is 1 + the *minimum* shard
//     high-water mark, which under round-robin can trail the previous
//     crash's DurableSeq() by up to shards - 1: those trailing seqs are
//     already recovered on their shards and the re-pushed duplicates are
//     detected by seq and skipped, so every update below ResumeSeq() is
//     recovered, every update at or above it is re-pushed, and the
//     pipeline converges to exactly the uninterrupted stream.
//
// Routing is round-robin and stateless: the update with seq s goes to
// shard s mod N, which is what makes replayed and re-pushed updates land on
// the shard that already knows their seq. It also fixes where every update
// of a span goes before anything is written: the k-th shard in span order
// owns span indices k, k + N, k + 2N, ..., so one producer routine sizes
// the accepted prefix from each ring's free slots and copies each shard's
// strided run straight into its ring (TryPushBatch; PushBatch, TryPush and
// Push are built on it).
//
// Threading contract:
//  * Push/TryPush/PushBatch/TryPushBatch/Flush: one producer thread at a
//    time.
//  * Query/QueryMany: any threads, any time (serialised internally on a
//    query mutex because QuantileSketch::Query mutates lazy caches; the
//    mutex is never taken by ingestion).
//  * Stop(): once, from the producer thread; joins the workers. The
//    destructor calls it.
//  * PublishMetrics: any single thread; the registry is touched only by
//    that caller.

#ifndef STREAMQ_INGEST_INGEST_PIPELINE_H_
#define STREAMQ_INGEST_INGEST_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "durability/options.h"
#include "ingest/ingest_metrics.h"
#include "obs/audit.h"
#include "ingest/query_view.h"
#include "ingest/shared_slot.h"
#include "ingest/spsc_ring.h"
#include "obs/metrics.h"
#include "quantile/factory.h"
#include "stream/update.h"

namespace streamq::ingest {

struct IngestOptions {
  /// Per-shard summary. Every shard gets an identical sketch (same seed --
  /// required for dyadic merge compatibility, see header comment).
  SketchConfig sketch;
  /// Number of shard workers (>= 1). 1 degenerates to a single-threaded
  /// pipeline with the same queue/publish machinery, which is the bench's
  /// scaling baseline.
  int shards = 4;
  /// Per-shard ring capacity (rounded up to a power of two).
  size_t ring_capacity = size_t{1} << 14;
  /// Max updates a worker dequeues per PopBatch call.
  size_t batch_size = 256;
  /// Worker publishes a fresh shard snapshot (and attempts a merged-view
  /// publish) every `publish_interval` updates it processes. Idle workers
  /// additionally publish whatever they have, so the view goes fresh
  /// whenever ingestion pauses.
  uint64_t publish_interval = uint64_t{1} << 16;
  /// Crash-safety (WAL + checkpoints). Disabled by default; requires a
  /// non-null storage when enabled, otherwise Create() returns nullptr.
  durability::DurabilityOptions durability;
  /// Live accuracy audit (obs/audit.h, DESIGN.md section 17): per-shard
  /// reservoir shadows fed off the producer hot path, audited on demand by
  /// AuditNow(). eps == 0 resolves to sketch.eps, slack == 0 to the
  /// per-algorithm ERROR_SLACK convention (obs::ResolveAuditConfig).
  obs::AuditConfig audit;
};

/// Ring element: the update plus its producer-assigned global sequence
/// number (1-based; seq 0 never occurs and means "nothing" in marks).
struct SeqUpdate {
  uint64_t seq = 0;
  Update update;
};

/// A worker-published shard snapshot: the cloned sketch together with the
/// exact ingest state it covers, so a checkpointer reading the slot gets
/// one consistent (sketch, applied_seq) pair.
struct ShardSnapshot {
  std::shared_ptr<QuantileSketch> sketch;
  /// Highest ingest seq folded into `sketch` (0 before any).
  uint64_t applied_seq = 0;
  /// This-incarnation processed count at snapshot time (epoch bookkeeping).
  uint64_t processed = 0;
  /// Audit shadow cloned at the same instant as `sketch` (null when
  /// auditing is off): the pair covers the same applied multiset, which is
  /// what lets AuditNow compare them without skew.
  std::shared_ptr<const obs::ReservoirShadow> shadow;
};

/// What Create() found on storage (all zeros/false for a fresh start or a
/// non-durable pipeline). Immutable after Create returns.
struct RecoveryInfo {
  bool recovered = false;
  /// Generation id of the checkpoint loaded (0 = none survived).
  uint64_t checkpoint_id = 0;
  /// Valid WAL records scanned across all shards.
  uint64_t replayed_records = 0;
  /// Updates from those records actually applied (beyond the checkpoint).
  uint64_t replayed_updates = 0;
  /// Segments whose scan stopped at a torn/corrupt tail (expected: the
  /// crash tore at most the unsynced suffix of each shard's last segment).
  uint64_t torn_segments = 0;
  /// First seq the producer must (re-)push: 1 + min over shards of the
  /// recovered applied seq.
  uint64_t resume_seq = 1;
};

class IngestPipeline {
 public:
  /// Builds and starts the pipeline (workers are running on return). In
  /// durable mode, recovery -- checkpoint load, WAL replay, a fresh
  /// post-recovery checkpoint -- completes before any worker starts.
  /// Returns nullptr -- building nothing -- when the configured algorithm
  /// cannot back a pipeline (not Mergeable(), no Clone(), or shards < 1),
  /// when durability is requested without a storage, or when the durable
  /// directories cannot be initialised.
  static std::unique_ptr<IngestPipeline> Create(const IngestOptions& options);

  ~IngestPipeline();
  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Non-blocking batch enqueue: accepts the longest PREFIX of `updates`
  /// whose updates all fit their shards' rings right now and returns its
  /// length, possibly 0 or updates.size(). Seqs are assigned only to the
  /// accepted prefix, so they stay contiguous and the caller re-offers
  /// exactly the rejected suffix later. Each shard's strided run lands
  /// with one multi-slot ring push; a refused call (accepted <
  /// updates.size()) ticks the blocking shard's `ring_full_stalls` once. A
  /// call that accepts nothing reads each shard's ring state at most once
  /// and copies nothing. The network tier's backpressure primitive
  /// (src/net/): a server parks the suffix and stops reading the
  /// connection instead of blocking its event loop or buffering
  /// unboundedly. Single producer.
  size_t TryPushBatch(std::span<const Update> updates);

  /// Blocking batch enqueue: TryPushBatch's routine, retried until the
  /// whole span is in. While a ring is full it waits with capped
  /// exponential backoff (yields first, then sleeps doubling up to 1 ms);
  /// progress resets the backoff. However many retries it takes, a call
  /// that has to wait is ONE stall episode: one `ring_full_stalls` tick on
  /// the shard that blocked it and one `ring_full_stall_ns` sample of its
  /// whole duration. Every 100 ms of one episode trips the blocking
  /// shard's stall watchdog counter, so a stuck consumer is observable
  /// instead of silently burning CPU. Single producer.
  void PushBatch(std::span<const Update> updates);

  /// One-update TryPushBatch: false when the target ring is full (the
  /// update was not accepted and its seq was not consumed).
  bool TryPush(const Update& update) {
    return TryPushBatch({&update, 1}) == 1;
  }

  /// One-update PushBatch.
  void Push(const Update& update) { PushBatch({&update, 1}); }

  /// Waits until every pushed update has been applied to its shard sketch
  /// -- and, in durable mode, is covered by the acknowledgement mark or
  /// its shard's WAL has failed dead -- then publishes a merged view
  /// covering all of them. On return, Query(phi) reflects the complete
  /// stream pushed so far. Producer thread only.
  void Flush();

  /// Drains the rings, stops and joins the workers, writes a final
  /// checkpoint (durable mode), and publishes a final complete view.
  /// Idempotent; called by the destructor. After Stop, Push is no longer
  /// allowed but Query keeps answering from the final view.
  void Stop();

  /// eps-approximate phi-quantile from the current published view. Never
  /// blocks ingestion; concurrent callers are serialised on an internal
  /// query mutex. Returns 0 before the first publish (empty summary
  /// semantics, matching QuantileSketch::Query on an empty sketch).
  uint64_t Query(double phi);

  /// Batch quantile query against one consistent snapshot.
  std::vector<uint64_t> QueryMany(const std::vector<double>& phis);

  /// Estimated rank (number of summarised elements < value) from the
  /// current published view, with the same never-blocks-ingestion and
  /// internal-serialisation contract as Query. 0 before the first publish.
  int64_t Rank(uint64_t value);

  /// Clones the currently published merged view into a private, mergeable
  /// sketch (nullptr before the first publish). This is how the cluster
  /// tier builds shipment snapshots: the clone is taken from the RCU view,
  /// so it never blocks -- or is blocked by -- ingestion. Any thread.
  std::unique_ptr<QuantileSketch> CloneView();

  /// Count() of the currently published merged view, read in place (0
  /// before the first publish). Any thread.
  uint64_t ViewCount();

  // --- durability -------------------------------------------------------

  /// Acknowledgement mark: every update with seq <= DurableSeq() is
  /// guaranteed to survive a crash (WAL-synced or checkpoint-covered).
  /// 0 when nothing is guaranteed yet or durability is off. Any thread.
  uint64_t DurableSeq() const;

  /// First seq this incarnation expects from the producer (see the
  /// restart contract in the header comment). 1 for a fresh start.
  uint64_t ResumeSeq() const { return recovery_.resume_seq; }

  /// Highest seq assigned so far (0 before the first push of a fresh
  /// pipeline). DurableSeq() == LastPushedSeq() is the "everything pushed
  /// is durable" condition the network tier's FLUSH ack checks. Any
  /// thread.
  uint64_t LastPushedSeq() const {
    return next_seq_.load(std::memory_order_acquire) - 1;
  }

  /// What recovery found at Create() time.
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Forces a checkpoint now (blocking; waits for the checkpoint lock).
  /// Returns true when a new generation was published -- after which the
  /// WAL segments it covers are truncated. False when durability is off
  /// or the write failed. Call after Flush() for a checkpoint covering
  /// everything pushed. Producer thread.
  bool Checkpoint();

  // --- accuracy audit ---------------------------------------------------

  /// True when options.audit.enabled built an auditor.
  bool AuditEnabled() const { return auditor_ != nullptr; }

  /// Runs one audit round: merges the published per-shard (sketch, shadow)
  /// snapshot pairs -- each pair cloned atomically by its worker, so the
  /// comparison is skew-free per shard -- and scores the merged sketch's
  /// phi-grid answers against the merged shadow. Never blocks ingestion
  /// (reads the RCU snapshot slots only). Returns a default (invalid)
  /// report when auditing is off. Concurrent callers serialise on an
  /// internal audit mutex. Any thread.
  obs::AuditReport AuditNow();

  /// Most recent AuditNow report (default until the first round).
  obs::AuditReport LastAuditReport() const;

  /// Merged shadow representing this pipeline's whole stream (the cluster
  /// tier ships this beside its summary snapshot so the coordinator can
  /// audit the global merge). nullptr when auditing is off or nothing has
  /// been published yet. Any thread.
  std::unique_ptr<obs::ReservoirShadow> CloneAuditShadow() const;

  /// Resolved audit configuration (eps/slack filled in); meaningful only
  /// when AuditEnabled().
  const obs::AuditConfig& audit_config() const { return audit_config_; }

  /// Lifetime audit counters, read without running a round (the stats and
  /// health paths want these cheaply). Zeros when auditing is off.
  struct AuditCounters {
    uint64_t rounds = 0;
    uint64_t violations = 0;        ///< probes over budget, lifetime
    uint64_t unhealthy_streak = 0;  ///< consecutive violating valid rounds
    double max_observed_err = 0.0;  ///< last round's worst probe error
    double eps_budget = 0.0;        ///< resolved eps * slack being enforced
  };
  AuditCounters GetAuditCounters() const;

  // --- introspection ----------------------------------------------------

  uint64_t PushedCount() const;
  uint64_t ProcessedCount() const;
  /// Epoch (update count processed this incarnation) of the currently
  /// published view. After recovery this intentionally counts from 0
  /// again; durable correctness is asserted on Count()/queries, not on
  /// epochs.
  uint64_t ViewEpoch() const { return view_.Epoch(); }

  /// Worst-case footprint of the whole pipeline under the paper's memory
  /// accounting: the sum of the per-shard sketch peaks plus the peak
  /// combined size of the two query-view buffers. Ring slots are transient
  /// I/O buffers, reported separately by RingBytes().
  size_t PeakMemoryBytes() const;
  /// Fixed footprint of the shard rings (capacity * sizeof(SeqUpdate)
  /// each).
  size_t RingBytes() const;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  const ShardStats& shard_stats(int shard) const {
    return shards_[static_cast<size_t>(shard)]->stats;
  }
  const PipelineStats& stats() const { return stats_; }

  /// Copies pipeline and per-shard statistics into `registry` under
  /// "<prefix>.": per-shard queue-depth gauges and throughput counters,
  /// the merge-latency histogram, the publish-staleness counter, the
  /// ring-stall histogram, and -- in durable mode -- WAL byte/fsync/roll
  /// counters, checkpoint counts and latency, replay totals and the
  /// acknowledgement mark.
  void PublishMetrics(obs::MetricsRegistry& registry,
                      const std::string& prefix);

 private:
  struct ShardDurable;     // per-shard WAL state, defined in the .cc
  struct PipelineDurable;  // checkpoint machinery, defined in the .cc

  struct alignas(64) Shard {
    // Constructor and destructor live in the .cc: members reference the
    // forward-declared ShardDurable.
    explicit Shard(size_t ring_capacity);
    SpscRing<SeqUpdate> ring;
    std::unique_ptr<QuantileSketch> sketch;  // worker-private after Start
    SharedSlot<ShardSnapshot> snapshot;      // worker writes, readers read
    std::unique_ptr<ShardDurable> durable;   // null when durability is off
    /// Audit shadow of this shard's applied stream (worker-private after
    /// Start, like `sketch`; null when auditing is off).
    std::unique_ptr<obs::ReservoirShadow> shadow;
    ShardStats stats;
    std::thread worker;
    ~Shard();
  };

  explicit IngestPipeline(const IngestOptions& options);

  /// Durable-mode setup: directories, checkpoint load, WAL replay, the
  /// post-recovery checkpoint, WAL writers. False => Create fails.
  bool InitDurability();
  /// Launches the shard workers (after recovery, if any).
  void Start();

  void WorkerLoop(Shard& shard);
  /// The one producer routine behind every push entry point: pushes the
  /// longest prefix of `updates` that fits the rings right now, stores
  /// every touched shard's last_seq and then next_seq_, and returns the
  /// prefix length. Counts no stall; its callers decide what a refusal is.
  size_t PushPrefix(std::span<const Update> updates);
  /// The shard that receives `seq` (round-robin: seq mod N) -- the only
  /// routing rule; PushPrefix's strided runs follow from it.
  size_t ShardOf(uint64_t seq) const { return seq % shards_.size(); }
  /// Clones the shard sketch into its snapshot slot (worker thread only).
  void PublishShardSnapshot(Shard& shard);
  /// Merges all shard snapshots into a fresh sketch and installs it into
  /// the view, unless the view already covers every shard's latest
  /// snapshot epoch. `block` selects mutex lock vs try_lock (workers use
  /// try_lock so a contended publish never stalls ingestion).
  void PublishMergedView(bool block);
  /// Checkpoint when due (workers: try_lock, cheap interval pre-check) or
  /// unconditionally (block = true).
  void MaybeCheckpoint(bool block);
  /// Serialises all shard snapshots into a new checkpoint generation and
  /// truncates the WAL segments it covers. Checkpoint lock held.
  bool WriteCheckpointLocked();
  /// Deletes the pre-recovery WAL segments still pending after a failed
  /// recovery-time checkpoint. Checkpoint lock held.
  void PruneOldSegmentsLocked();

  IngestOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  /// Next seq the producer will assign (producer-owned; atomic only so
  /// DurableSeq() may read it from other threads).
  std::atomic<uint64_t> next_seq_{1};
  RecoveryInfo recovery_;  // written by Create, immutable afterwards
  std::unique_ptr<PipelineDurable> durable_;  // null when durability off

  QueryView view_;
  std::mutex publish_mutex_;
  // Guarded by publish_mutex_: merge/publish latency distributions (ticks,
  // obs::TickClock) and the sizes of the two resident view buffers.
  obs::Histogram merge_ticks_;
  obs::Histogram publish_ticks_;
  uint64_t slot_bytes_[2] = {0, 0};
  int last_slot_ = 0;

  // Guarded by stall_mutex_ (touched only at the end of a PushBatch stall
  // episode and by PublishMetrics, never on the fast path).
  std::mutex stall_mutex_;
  obs::Histogram ring_full_stall_ns_;

  std::mutex query_mutex_;
  PipelineStats stats_;

  /// Resolved audit config (eps/slack filled from the sketch config).
  obs::AuditConfig audit_config_;
  /// Guards auditor_ (its round state and histogram are not thread-safe).
  mutable std::mutex audit_mutex_;
  std::unique_ptr<obs::AccuracyAuditor> auditor_;  // null = audit off
};

}  // namespace streamq::ingest

#endif  // STREAMQ_INGEST_INGEST_PIPELINE_H_
