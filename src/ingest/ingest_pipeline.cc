#include "ingest/ingest_pipeline.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "durability/checkpoint.h"
#include "durability/storage.h"
#include "durability/wal.h"
#include "obs/trace.h"

namespace streamq::ingest {

namespace {

/// Applies one (value, delta) update to a sketch, expanding multiplicity
/// into |delta| Insert/Erase calls. Returns how many were refused.
uint64_t ApplyUpdate(QuantileSketch& sketch, uint64_t value, int64_t delta) {
  const int64_t reps = delta >= 0 ? delta : -delta;
  uint64_t rejected = 0;
  for (int64_t k = 0; k < reps; ++k) {
    const StreamqStatus status =
        delta >= 0 ? sketch.Insert(value) : sketch.Erase(value);
    if (status != StreamqStatus::kOk) ++rejected;
  }
  return rejected;
}

/// Applies entries[0..n) to `sketch` in order, feeding each maximal run of
/// consecutive delta == +1 entries through the batched UpdateBatch entry
/// point. UpdateBatch is bit-identical to the item-wise Insert loop, so the
/// grouping only amortises virtual dispatch and metrics; any other delta
/// falls back to ApplyUpdate one entry at a time. `value_of`/`delta_of`
/// project the entry, `on_applied` sees the last entry of every applied
/// group (durable mode advances applied_seq there), and `scratch` is
/// reusable gather space for run values. Returns how many updates were
/// refused.
///
/// When `shadow` is non-null, the audit shadow observes exactly what the
/// sketch absorbed, riding the same gather: each unit run goes through
/// ObserveBatch on the already-built scratch array (bulk Algorithm L skip
/// consumption -- O(1) per run in the common case, no second pass over the
/// batch), delta > 1 observes that many copies, and any deletion taints
/// the shadow (a reservoir cannot unsample).
template <typename Entry, typename ValueFn, typename DeltaFn,
          typename AppliedFn>
uint64_t ApplyEntries(QuantileSketch& sketch, obs::ReservoirShadow* shadow,
                      const Entry* entries, size_t n,
                      std::vector<uint64_t>& scratch, ValueFn value_of,
                      DeltaFn delta_of, AppliedFn on_applied) {
  uint64_t rejected = 0;
  size_t i = 0;
  while (i < n) {
    const int64_t delta = delta_of(entries[i]);
    if (delta == 1) {
      scratch.clear();
      do {
        scratch.push_back(value_of(entries[i]));
        ++i;
      } while (i < n && delta_of(entries[i]) == 1);
      rejected += sketch.UpdateBatch(
          std::span<const uint64_t>(scratch.data(), scratch.size()));
      if (shadow != nullptr) {
        shadow->ObserveBatch(scratch.data(), scratch.size());
      }
    } else {
      rejected += ApplyUpdate(sketch, value_of(entries[i]), delta);
      if (shadow != nullptr) {
        if (delta > 1) {
          const uint64_t value = value_of(entries[i]);
          shadow->ObserveSpan(static_cast<size_t>(delta),
                              [value](size_t) { return value; });
        } else if (delta < 0) {
          shadow->Taint();
        }
      }
      ++i;
    }
    on_applied(entries[i - 1]);
  }
  return rejected;
}

/// Per-shard shadow seed: deterministic in (sketch seed, shard index) so a
/// rebuilt pipeline reproduces its samples, distinct across shards so the
/// merged shadow is not sampling correlated positions.
uint64_t ShadowSeed(uint64_t base, size_t shard) {
  return base + 0x9e3779b97f4a7c15ull * (shard + 1);
}

}  // namespace

/// Per-shard durable state. `wal` is used by the shard worker only;
/// TruncateThrough (via the checkpointer) is the one cross-thread entry
/// and synchronises internally. The plain fields are worker-private after
/// Start (recovery writes them before the worker thread exists).
struct IngestPipeline::ShardDurable {
  std::unique_ptr<durability::WalWriter> wal;
  /// Highest seq folded into the shard sketch (recovery seed + live).
  uint64_t applied_seq = 0;
  /// Updates logged since the last WAL fsync.
  uint64_t since_sync = 0;
};

IngestPipeline::Shard::Shard(size_t ring_capacity) : ring(ring_capacity) {}
IngestPipeline::Shard::~Shard() = default;

/// Pipeline-level durable state: the checkpoint store plus the checkpoint
/// lock and everything it guards.
struct IngestPipeline::PipelineDurable {
  std::string wal_dir;
  std::unique_ptr<durability::CheckpointStore> store;
  std::mutex checkpoint_mutex;
  // Guarded by checkpoint_mutex.
  uint64_t next_checkpoint_id = 1;
  obs::Histogram checkpoint_ticks;
  /// Pre-recovery WAL segments, (shard, segment id), pending deletion.
  /// Every record in them is covered by the recovered per-shard state, so
  /// any successful post-recovery checkpoint covers them too; they are
  /// deleted after the first one that publishes and kept (retried on the
  /// next restart) while checkpoint writes keep failing. Guarded by
  /// checkpoint_mutex.
  std::vector<std::pair<int, uint64_t>> old_segments;
  /// Processed total covered by the newest checkpoint (interval trigger).
  std::atomic<uint64_t> last_checkpoint_processed{0};
};

std::unique_ptr<IngestPipeline> IngestPipeline::Create(
    const IngestOptions& options) {
  if (options.shards < 1 || options.batch_size == 0) return nullptr;
  if (options.durability.enabled && options.durability.storage == nullptr) {
    return nullptr;
  }
  // Probe the config: the pipeline needs Merge (to combine shards) and
  // Clone (to snapshot them). GK-family summaries fail the first, RSS and
  // DCS+Post the second.
  const std::unique_ptr<QuantileSketch> probe = MakeSketch(options.sketch);
  if (!probe->Mergeable() || probe->Clone() == nullptr) return nullptr;
  std::unique_ptr<IngestPipeline> pipeline(new IngestPipeline(options));
  if (options.durability.enabled && !pipeline->InitDurability()) {
    return nullptr;
  }
  pipeline->Start();
  return pipeline;
}

IngestPipeline::IngestPipeline(const IngestOptions& options)
    : options_(options) {
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>(options_.ring_capacity);
    shard->sketch = MakeSketch(options_.sketch);
    if (options_.durability.enabled) {
      shard->durable = std::make_unique<ShardDurable>();
    }
    shards_.push_back(std::move(shard));
  }
  if (options_.durability.enabled) {
    durable_ = std::make_unique<PipelineDurable>();
  }
  if (options_.audit.enabled) {
    audit_config_ = obs::ResolveAuditConfig(
        options_.audit, options_.sketch.eps,
        AlgorithmName(options_.sketch.algorithm));
    auditor_ = std::make_unique<obs::AccuracyAuditor>(audit_config_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->shadow = std::make_unique<obs::ReservoirShadow>(
          audit_config_.reservoir, ShadowSeed(options_.sketch.seed, i));
    }
  }
}

bool IngestPipeline::InitDurability() {
  PipelineDurable& d = *durable_;
  durability::Storage& storage = *options_.durability.storage;
  d.wal_dir = options_.durability.dir + "/wal";
  if (!storage.CreateDir(options_.durability.dir) ||
      !storage.CreateDir(d.wal_dir)) {
    STREAMQ_TRACE_CRASH_DUMP("recovery_failure");
    return false;
  }
  d.store = std::make_unique<durability::CheckpointStore>(
      &storage, options_.durability.dir + "/ckpt");
  if (!d.store->Init()) {
    STREAMQ_TRACE_CRASH_DUMP("recovery_failure");
    return false;
  }

  // 1. Newest valid checkpoint, all-or-nothing: shard count must match
  // and every nested sketch frame must deserialize into something
  // merge-compatible with this pipeline's config, else the whole
  // generation is rejected and the previous one is tried.
  const std::unique_ptr<QuantileSketch> probe = MakeSketch(options_.sketch);
  std::vector<std::unique_ptr<QuantileSketch>> restored;
  const auto validate = [&](const durability::CheckpointData& c) {
    if (c.shards.size() != shards_.size()) return false;
    std::vector<std::unique_ptr<QuantileSketch>> sketches;
    for (const durability::CheckpointShard& s : c.shards) {
      std::unique_ptr<QuantileSketch> sketch =
          DeserializeSketch(s.sketch_frame);
      if (sketch == nullptr || !probe->CanMerge(*sketch)) return false;
      sketches.push_back(std::move(sketch));
    }
    restored = std::move(sketches);
    return true;
  };
  durability::CheckpointData checkpoint;
  const bool have_checkpoint = d.store->LoadNewest(validate, &checkpoint);
  if (have_checkpoint) {
    recovery_.checkpoint_id = checkpoint.id;
    d.next_checkpoint_id = checkpoint.id + 1;
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->sketch = std::move(restored[i]);
      shards_[i]->durable->applied_seq = checkpoint.shards[i].applied_seq;
    }
  }

  // 2. Replay the WAL tails: per shard, every valid record with a seq
  // beyond the recovered high-water mark, in segment order, stopping at
  // the first torn/corrupt record of each segment. Monotone seq skipping
  // makes rolled-segment duplicates harmless (wal.h).
  uint64_t max_segment = 0;
  std::vector<std::pair<int, uint64_t>>& old_segments = d.old_segments;
  std::vector<durability::WalEntry> replay;
  std::vector<uint64_t> apply_scratch;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    STREAMQ_TRACE_SPAN(obs::TracePoint::kRecoveryReplay, i);
    uint64_t hw = shard.durable->applied_seq;
    for (const uint64_t seg : durability::ListWalSegments(
             storage, d.wal_dir, static_cast<int>(i))) {
      old_segments.emplace_back(static_cast<int>(i), seg);
      max_segment = std::max(max_segment, seg);
      std::string contents;
      if (!storage.ReadFile(
              d.wal_dir + "/" +
                  durability::WalSegmentName(static_cast<int>(i), seg),
              &contents)) {
        // An existing segment that cannot be read may hold acknowledged
        // records. Skipping it would replay later segments across the
        // gap, advance the resume point past the missing seqs, and
        // eventually delete the unread segment -- turning a transient
        // read error into permanent silent loss. Fail recovery loudly
        // instead; a later restart retries the read.
        STREAMQ_TRACE_CRASH_DUMP("recovery_failure");
        return false;
      }
      const durability::WalSegmentScan scan =
          durability::ScanWalSegment(contents, static_cast<int>(i));
      recovery_.replayed_records += scan.records;
      if (!scan.clean) ++recovery_.torn_segments;
      replay.clear();
      for (const durability::WalEntry& e : scan.entries) {
        if (e.seq <= hw) continue;
        replay.push_back(e);
        hw = e.seq;
      }
      // The workers' apply path, so the replayed tail reaches the sketch
      // and the shadow exactly as it did live (UpdateBatch and
      // ObserveBatch match their item-wise forms). Feeding the shadow
      // leaves only the checkpoint-covered prefix, whose raw values are
      // gone, to the auditor's coverage-gap guard.
      ApplyEntries(
          *shard.sketch, shard.shadow.get(), replay.data(), replay.size(),
          apply_scratch, [](const durability::WalEntry& e) { return e.value; },
          [](const durability::WalEntry& e) { return e.delta; },
          [](const durability::WalEntry&) {});
      recovery_.replayed_updates += replay.size();
    }
    shard.durable->applied_seq = hw;
    UpdatePeak(shard.stats.peak_memory_bytes,
               static_cast<uint64_t>(shard.sketch->MemoryBytes()));
  }
  recovery_.recovered = have_checkpoint || !old_segments.empty();

  // 3. Resume point: everything below the minimum shard high-water mark
  // is recovered on every shard, so the producer restarts there. Shards
  // ahead of it dedup the re-pushed seqs they already hold.
  uint64_t min_applied = UINT64_MAX;
  for (const auto& shard : shards_) {
    min_applied = std::min(min_applied, shard->durable->applied_seq);
  }
  recovery_.resume_seq = min_applied + 1;
  next_seq_.store(recovery_.resume_seq, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    // Re-seed the ack accounting: the recovered prefix counts as routed
    // and durable once the post-recovery checkpoint below publishes.
    shard->stats.last_seq.store(shard->durable->applied_seq,
                                std::memory_order_relaxed);
  }

  // 4. Make the recovered state durable in its own right: replayed WAL
  // bytes were read back, but nothing guarantees an unsynced tail
  // survives a *second* crash. A fresh checkpoint generation covering the
  // recovered state closes that window; only after it publishes are the
  // old segments deleted. If the write fails (storage still faulty) the
  // old checkpoint + segments stay authoritative and we carry on; the
  // kept segments are pruned by the first later checkpoint that does
  // publish (WriteCheckpointLocked), so they cannot accumulate forever.
  if (recovery_.recovered) {
    std::lock_guard<std::mutex> lock(d.checkpoint_mutex);
    durability::CheckpointData data;
    data.id = d.next_checkpoint_id;
    bool serializable = true;
    for (const auto& shard : shards_) {
      durability::CheckpointShard cs;
      cs.applied_seq = shard->durable->applied_seq;
      cs.sketch_frame = SerializeSketch(*shard->sketch);
      serializable = serializable && !cs.sketch_frame.empty();
      data.shards.push_back(std::move(cs));
    }
    if (serializable &&
        d.store->Write(data, options_.durability.keep_checkpoints)) {
      ++d.next_checkpoint_id;
      stats_.checkpoints.fetch_add(1, std::memory_order_relaxed);
      d.last_checkpoint_processed.store(0, std::memory_order_relaxed);
      for (size_t i = 0; i < shards_.size(); ++i) {
        shards_[i]->stats.checkpoint_seq.store(
            data.shards[i].applied_seq, std::memory_order_release);
      }
      PruneOldSegmentsLocked();
    } else {
      stats_.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
      for (size_t i = 0; i < shards_.size(); ++i) {
        shards_[i]->stats.checkpoint_seq.store(
            have_checkpoint ? checkpoint.shards[i].applied_seq : 0,
            std::memory_order_release);
      }
    }
  }

  // 5. WAL writers start after every pre-existing segment id: closed
  // segments are immutable, even the ones recovery failed to delete.
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->durable->wal = std::make_unique<durability::WalWriter>(
        &storage, d.wal_dir, static_cast<int>(i), max_segment + 1,
        options_.durability.segment_bytes);
  }

  // 6. Seed the snapshot slots with the recovered sketches (pre-Start, so
  // single-threaded). Without this, a checkpoint racing the workers'
  // first publish would serialize empty sketches at applied_seq 0 --
  // silently regressing the newest generation below the recovered state
  // -- and a recovered-but-idle pipeline would merge an empty view.
  for (auto& shard : shards_) PublishShardSnapshot(*shard);
  // ...and fold the seeds into an initial merged view. Workers only
  // publish on new activity, so without this a recovered-but-idle
  // pipeline would answer Query/Rank/CloneView from an empty view until
  // the first post-restart update arrived.
  if (recovery_.recovered) PublishMergedView(/*block=*/true);
  return true;
}

void IngestPipeline::Start() {
  // Workers start only after every shard exists (and recovery finished):
  // a worker publishing a merged view iterates over all of shards_.
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->worker = std::thread([this, s] { WorkerLoop(*s); });
  }
  started_ = true;
}

IngestPipeline::~IngestPipeline() { Stop(); }

size_t IngestPipeline::PushPrefix(std::span<const Update> updates) {
  const size_t n = updates.size();
  const size_t shards = shards_.size();
  const uint64_t seq0 = next_seq_.load(std::memory_order_relaxed);
  const size_t first = ShardOf(seq0);
  const auto shard_at = [&](size_t k) -> Shard& {
    return *shards_[first + k < shards ? first + k : first + k - shards];
  };
  // Round-robin routing fixes every update's shard up front: the k-th
  // shard in span order, (first + k) mod N, owns span indices k, k + N,
  // k + 2N, ... A shard with `free` slots therefore blocks the span at
  // index k + free * N, and the accepted prefix ends at the smallest such
  // index. Shards are probed in span order and the probe stops once k
  // reaches the prefix found so far, since no later shard can shorten it:
  // a span refused at its first update reads one ring. Every shard wants
  // at most ceil(n / N) slots, so a cached head showing that many free
  // spares the probe its consumer-index load.
  const size_t want = n <= shards ? 1 : (n + shards - 1) / shards;
  size_t accepted = n;
  for (size_t k = 0; k < shards && k < accepted; ++k) {
    const size_t free = shard_at(k).ring.FreeSlots(want);
    accepted = std::min(accepted, k + free * shards);
  }
  if (accepted == 0) return 0;
  // Shard k takes ceil((accepted - k) / N) of the prefix: q each, plus
  // one for the first r shards.
  const size_t q = accepted < shards ? 0 : accepted / shards;
  const size_t r = accepted < shards ? accepted : accepted % shards;
  for (size_t k = 0; k < shards && k < accepted; ++k) {
    Shard& shard = shard_at(k);
    const size_t count = q + (k < r ? 1 : 0);
    const uint64_t seq = seq0 + k;
    const Update* run = updates.data() + k;
    shard.ring.Push(count, [seq, run, shards](size_t j) {
      return SeqUpdate{seq + j * shards, run[j * shards]};
    });
    // Every shard's last_seq strictly before next_seq_ (all release, and
    // DurableSeq loads next_seq_ first with acquire): DurableSeq starts
    // from next_seq_ - 1 and only clamps on shards whose floor < last_seq,
    // so publishing the new seq ceiling while a shard still shows its old
    // last_seq would report merely-enqueued, un-logged updates as durable.
    // This order can only underclaim, which is safe.
    shard.stats.last_seq.store(seq + (count - 1) * shards,
                               std::memory_order_release);
    shard.stats.pushed.fetch_add(count, std::memory_order_relaxed);
  }
  next_seq_.store(seq0 + accepted, std::memory_order_release);
  stats_.pushed.fetch_add(accepted, std::memory_order_relaxed);
  return accepted;
}

size_t IngestPipeline::TryPushBatch(std::span<const Update> updates) {
  const size_t accepted = PushPrefix(updates);
  if (accepted < updates.size()) {
    // The first refused update's shard is the one whose ring is full.
    const size_t blocked = ShardOf(next_seq_.load(std::memory_order_relaxed));
    shards_[blocked]->stats.ring_full_stalls.fetch_add(
        1, std::memory_order_relaxed);
    STREAMQ_TRACE_INSTANT(obs::TracePoint::kRingFull, blocked);
  }
  return accepted;
}

void IngestPipeline::PushBatch(std::span<const Update> updates) {
  STREAMQ_TRACE_SPAN(obs::TracePoint::kPush, updates.size());
  size_t done = PushPrefix(updates);
  if (done == updates.size()) return;
  // Backpressure: the ring bounds memory, so a producer outrunning a
  // worker waits here instead of growing a queue. Capped exponential
  // backoff: brief yields catch the common blip without latency cost,
  // then doubling sleeps stop a long stall from burning a core. The whole
  // episode -- however many partial pushes it takes -- ticks
  // ring_full_stalls ONCE and records its total duration ONCE, so batched
  // producers neither inflate nor starve the stall signal relative to
  // item-wise ones. Progress resets the backoff ladder (a partial push
  // means the workers are draining, so the next retry yields before it
  // sleeps again) but not the episode. The watchdog ticks every 100 ms of
  // continuous stalling so a wedged consumer shows up in metrics while the
  // stall is still in progress (and, on the first trip, freezes the flight
  // recorder into a crash dump while the evidence is fresh).
  const size_t blocked = ShardOf(next_seq_.load(std::memory_order_relaxed));
  STREAMQ_TRACE_SPAN(obs::TracePoint::kPushBackoff, blocked);
  shards_[blocked]->stats.ring_full_stalls.fetch_add(
      1, std::memory_order_relaxed);
  using Clock = std::chrono::steady_clock;
  constexpr auto kMaxDelay = std::chrono::microseconds(1000);
  constexpr auto kWatchdogPeriod = std::chrono::milliseconds(100);
  constexpr int kYieldSpins = 16;
  const Clock::time_point start = Clock::now();
  Clock::time_point next_watchdog = start + kWatchdogPeriod;
  auto delay = std::chrono::microseconds(1);
  int spins = 0;
  while (done < updates.size()) {
    const size_t pushed = PushPrefix(updates.subspan(done));
    if (pushed > 0) {
      done += pushed;
      spins = 0;
      delay = std::chrono::microseconds(1);
      continue;
    }
    if (spins < kYieldSpins) {
      ++spins;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(delay);
      delay = std::min(delay * 2, kMaxDelay);
      const Clock::time_point now = Clock::now();
      if (now >= next_watchdog) {
        const size_t stuck =
            ShardOf(next_seq_.load(std::memory_order_relaxed));
        shards_[stuck]->stats.stall_watchdog_trips.fetch_add(
            1, std::memory_order_relaxed);
        STREAMQ_TRACE_INSTANT(obs::TracePoint::kStallWatchdog, stuck);
        STREAMQ_TRACE_CRASH_DUMP("stall_watchdog");
        next_watchdog = now + kWatchdogPeriod;
      }
    }
  }
  const uint64_t stall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  std::lock_guard<std::mutex> lock(stall_mutex_);
  ring_full_stall_ns_.Record(stall_ns);
}

void IngestPipeline::WorkerLoop(Shard& shard) {
  std::vector<SeqUpdate> batch(options_.batch_size);
  // Gather scratch for ApplyEntries' delta == +1 runs (reused per batch).
  std::vector<uint64_t> apply_scratch;
  apply_scratch.reserve(options_.batch_size);
  const bool durable = shard.durable != nullptr;
  std::vector<durability::WalEntry> wal_batch;
  if (durable) wal_batch.reserve(options_.batch_size);
  obs::ReservoirShadow* const shadow = shard.shadow.get();
  uint64_t since_publish = 0;
  for (;;) {
    // The producer stops pushing before setting stop_, so an empty ring
    // observed after the flag is a drained ring. Read the flag BEFORE the
    // pop: reading it after the idle work below would let values pushed
    // during that work be left in the ring at exit.
    const bool stopping = stop_.load(std::memory_order_acquire);
    const size_t n = shard.ring.PopBatch(batch.data(), batch.size());
    if (n == 0) {
      if (durable && shard.durable->since_sync > 0) {
        // Idle fsync: the ack mark catches up to everything applied
        // whenever ingestion pauses (this is also what lets Flush wait
        // for durability without signalling the worker).
        if (shard.durable->wal->Sync()) shard.durable->since_sync = 0;
      }
      // Idle: bring the shard snapshot up to date so Flush (and queries)
      // see everything processed, then help refresh the merged view.
      if (shard.stats.snapshot_epoch.load(std::memory_order_relaxed) !=
          shard.stats.processed.load(std::memory_order_relaxed)) {
        PublishShardSnapshot(shard);
        PublishMergedView(/*block=*/false);
      }
      if (stopping) break;
      std::this_thread::yield();
      continue;
    }
    uint64_t rejected = 0;
    STREAMQ_TRACE_SPAN(obs::TracePoint::kWorkerBatch, n);
    if (durable) {
      // Log-ahead, then apply. Seqs at or below the recovered high-water
      // mark are re-pushed duplicates: already durable, already in the
      // sketch -- skipped entirely (and not re-logged, which keeps shard
      // seqs strictly increasing across WAL segments).
      wal_batch.clear();
      for (size_t i = 0; i < n; ++i) {
        const SeqUpdate& u = batch[i];
        if (u.seq <= shard.durable->applied_seq) continue;
        wal_batch.push_back(durability::WalEntry{
            u.seq, u.update.value, static_cast<int64_t>(u.update.delta)});
      }
      if (wal_batch.size() < n) {
        shard.stats.deduped.fetch_add(n - wal_batch.size(),
                                      std::memory_order_relaxed);
      }
      if (!wal_batch.empty()) {
        // A dead WAL stops acknowledging (durable_seq freezes) but the
        // pipeline keeps serving -- availability over durability.
        shard.durable->wal->AppendBatch(wal_batch.data(), wal_batch.size());
        // The shadow rides ApplyEntries' gather, post-dedup, so a
        // replayed duplicate is never sampled twice.
        rejected += ApplyEntries(
            *shard.sketch, shadow, wal_batch.data(), wal_batch.size(),
            apply_scratch,
            [](const durability::WalEntry& e) { return e.value; },
            [](const durability::WalEntry& e) { return e.delta; },
            [&shard](const durability::WalEntry& e) {
              shard.durable->applied_seq = e.seq;
            });
        shard.durable->since_sync += wal_batch.size();
        if (shard.durable->since_sync >=
            options_.durability.sync_interval) {
          if (shard.durable->wal->Sync()) shard.durable->since_sync = 0;
        }
      }
    } else {
      rejected += ApplyEntries(
          *shard.sketch, shadow, batch.data(), n, apply_scratch,
          [](const SeqUpdate& u) { return u.update.value; },
          [](const SeqUpdate& u) {
            return static_cast<int64_t>(u.update.delta);
          },
          [](const SeqUpdate&) {});
    }
    shard.stats.processed.fetch_add(n, std::memory_order_release);
    if (rejected != 0) {
      shard.stats.rejected.fetch_add(rejected, std::memory_order_relaxed);
    }
    UpdatePeak(shard.stats.peak_memory_bytes,
               static_cast<uint64_t>(shard.sketch->MemoryBytes()));
    since_publish += n;
    if (since_publish >= options_.publish_interval) {
      since_publish = 0;
      PublishShardSnapshot(shard);
      PublishMergedView(/*block=*/false);
      MaybeCheckpoint(/*block=*/false);
    }
  }
}

void IngestPipeline::PublishShardSnapshot(Shard& shard) {
  const uint64_t processed =
      shard.stats.processed.load(std::memory_order_relaxed);
  auto snapshot = std::make_shared<ShardSnapshot>();
  snapshot->sketch = shard.sketch->Clone();
  assert(snapshot->sketch != nullptr);  // Create() verified clonability
  snapshot->processed = processed;
  if (shard.durable != nullptr) {
    snapshot->applied_seq = shard.durable->applied_seq;
  }
  if (shard.shadow != nullptr) snapshot->shadow = shard.shadow->Clone();
  shard.snapshot.Store(std::move(snapshot));
  // Epoch strictly after the snapshot: a reader that sees the new epoch is
  // guaranteed a snapshot at least that fresh (it may see an even newer
  // snapshot with an older epoch, which only overstates staleness).
  shard.stats.snapshot_epoch.store(processed, std::memory_order_release);
  shard.stats.snapshots.fetch_add(1, std::memory_order_relaxed);
}

void IngestPipeline::PublishMergedView(bool block) {
  std::unique_lock<std::mutex> lock(publish_mutex_, std::defer_lock);
  if (block) {
    lock.lock();
  } else if (!lock.try_lock()) {
    // Another worker is already building a view; skipping keeps the hot
    // path free of lock waits (the other publisher's view is nearly as
    // fresh anyway).
    stats_.publish_contended.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Nothing new to fold in: epochs only grow, so an unchanged sum means an
  // unchanged epoch per shard, and the view's snapshots are at least as
  // fresh as those epochs. A worker stores a new epoch before it publishes,
  // so no newer snapshot is left out.
  uint64_t latest = 0;
  for (const auto& shard : shards_) {
    latest += shard->stats.snapshot_epoch.load(std::memory_order_acquire);
  }
  const QueryView::Snapshot current = view_.Load();
  if (current.sketch != nullptr && current.epoch == latest) return;
  const obs::ScopedTimer publish_timer(&publish_ticks_);
  STREAMQ_TRACE_SPAN(obs::TracePoint::kViewPublish, shards_.size());
  std::unique_ptr<QuantileSketch> merged = MakeSketch(options_.sketch);
  uint64_t epoch = 0;
  for (const auto& shard : shards_) {
    // Epoch before snapshot (each with acquire), mirroring the publisher's
    // snapshot-then-epoch stores: the loaded snapshot is at least as fresh
    // as the loaded epoch, so the view's epoch never overclaims.
    const uint64_t shard_epoch =
        shard->stats.snapshot_epoch.load(std::memory_order_acquire);
    const std::shared_ptr<ShardSnapshot> snap = shard->snapshot.Load();
    if (snap == nullptr) continue;
    const uint64_t t0 = obs::TickClock::Now();
    const StreamqStatus status = merged->Merge(*snap->sketch);
    merge_ticks_.Record(obs::TickClock::Now() - t0);
    assert(status == StreamqStatus::kOk);  // identical configs by design
    (void)status;
    epoch += shard_epoch;
  }
  // Account the new resident before it goes live: with double buffering
  // the previous snapshot stays resident in the other slot, so the view's
  // footprint is the sum of both.
  const int slot = 1 - last_slot_;
  slot_bytes_[slot] = static_cast<uint64_t>(merged->MemoryBytes());
  last_slot_ = slot;
  UpdatePeak(stats_.peak_view_bytes, slot_bytes_[0] + slot_bytes_[1]);
  view_.Publish(std::move(merged), epoch);
  stats_.publishes.fetch_add(1, std::memory_order_relaxed);
}

void IngestPipeline::MaybeCheckpoint(bool block) {
  if (durable_ == nullptr) return;
  PipelineDurable& d = *durable_;
  if (!block) {
    // Cheap pre-check off the lock; re-checked under it.
    const uint64_t covered =
        d.last_checkpoint_processed.load(std::memory_order_relaxed);
    if (ProcessedCount() - covered < options_.durability.checkpoint_interval) {
      return;
    }
  }
  std::unique_lock<std::mutex> lock(d.checkpoint_mutex, std::defer_lock);
  if (block) {
    lock.lock();
  } else {
    if (!lock.try_lock()) return;  // someone else is checkpointing
    const uint64_t covered =
        d.last_checkpoint_processed.load(std::memory_order_relaxed);
    if (ProcessedCount() - covered < options_.durability.checkpoint_interval) {
      return;
    }
  }
  WriteCheckpointLocked();
}

bool IngestPipeline::WriteCheckpointLocked() {
  PipelineDurable& d = *durable_;
  const obs::ScopedTimer timer(&d.checkpoint_ticks);
  STREAMQ_TRACE_SPAN(obs::TracePoint::kCheckpointWrite, d.next_checkpoint_id);
  // Checkpoint from the published snapshots: each is a consistent
  // (sketch, applied_seq) pair, and serializing a snapshot clone is safe
  // against the worker mutating its live sketch concurrently.
  durability::CheckpointData data;
  data.id = d.next_checkpoint_id;
  uint64_t covered_processed = 0;
  for (const auto& shard : shards_) {
    const std::shared_ptr<ShardSnapshot> snap = shard->snapshot.Load();
    durability::CheckpointShard cs;
    if (snap != nullptr) {
      cs.applied_seq = snap->applied_seq;
      cs.sketch_frame = SerializeSketch(*snap->sketch);
      covered_processed += snap->processed;
    } else {
      // Shard never published (no updates yet): checkpoint it as empty.
      const std::unique_ptr<QuantileSketch> empty = MakeSketch(options_.sketch);
      cs.applied_seq = 0;
      cs.sketch_frame = SerializeSketch(*empty);
    }
    if (cs.sketch_frame.empty()) {
      stats_.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
      return false;  // unreachable for pipeline-capable types
    }
    data.shards.push_back(std::move(cs));
  }
  if (!d.store->Write(data, options_.durability.keep_checkpoints)) {
    stats_.checkpoint_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ++d.next_checkpoint_id;
  d.last_checkpoint_processed.store(covered_processed,
                                    std::memory_order_relaxed);
  stats_.checkpoints.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Publish the new durability floor, then drop the WAL segments the
    // checkpoint covers (every record in them has seq <= applied_seq).
    shards_[i]->stats.checkpoint_seq.store(data.shards[i].applied_seq,
                                           std::memory_order_release);
    shards_[i]->durable->wal->TruncateThrough(data.shards[i].applied_seq);
  }
  // Pre-recovery segments the recovery-time checkpoint failed to cover
  // (its write failed) are covered by this one: recovery seeded every
  // shard snapshot at its replayed high-water mark, and applied_seq only
  // grows from there, so this checkpoint dominates every old record.
  PruneOldSegmentsLocked();
  return true;
}

void IngestPipeline::PruneOldSegmentsLocked() {
  PipelineDurable& d = *durable_;
  if (d.old_segments.empty()) return;
  STREAMQ_TRACE_SPAN(obs::TracePoint::kCheckpointPrune, d.old_segments.size());
  for (const auto& [shard_idx, seg] : d.old_segments) {
    options_.durability.storage->Delete(
        d.wal_dir + "/" + durability::WalSegmentName(shard_idx, seg));
  }
  d.old_segments.clear();
}

bool IngestPipeline::Checkpoint() {
  if (durable_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(durable_->checkpoint_mutex);
  return WriteCheckpointLocked();
}

uint64_t IngestPipeline::DurableSeq() const {
  if (durable_ == nullptr) return 0;
  // A shard constrains the global mark only while some seq routed to it
  // is still above its durability floor (max of WAL-synced and
  // checkpoint-covered). Shards with nothing pending -- including ones
  // that never received an update -- do not hold the mark back.
  // Acquire pairs with the producer's release store: any seq visible in
  // next_seq_ is already recorded in its shard's last_seq, so an
  // enqueued-but-unlogged update always clamps the result below itself.
  uint64_t result = next_seq_.load(std::memory_order_acquire) - 1;
  for (const auto& shard : shards_) {
    const uint64_t floor =
        std::max(shard->durable->wal != nullptr
                     ? shard->durable->wal->durable_seq()
                     : 0,
                 shard->stats.checkpoint_seq.load(std::memory_order_acquire));
    const uint64_t last = shard->stats.last_seq.load(std::memory_order_acquire);
    if (floor < last) result = std::min(result, floor);
  }
  return result;
}

void IngestPipeline::Flush() {
  for (const auto& shard : shards_) {
    // First wait for the worker to drain its ring, then for its snapshot
    // to cover everything drained (idle workers re-snapshot on their own).
    while (shard->stats.processed.load(std::memory_order_acquire) <
               shard->stats.pushed.load(std::memory_order_acquire) ||
           shard->stats.snapshot_epoch.load(std::memory_order_acquire) <
               shard->stats.processed.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    if (shard->durable != nullptr) {
      // Then for durability: idle workers fsync on their own, so the
      // shard's floor climbs to its last routed seq -- unless its WAL
      // died, in which case waiting longer would change nothing.
      while (!shard->durable->wal->dead()) {
        const uint64_t floor = std::max(
            shard->durable->wal->durable_seq(),
            shard->stats.checkpoint_seq.load(std::memory_order_acquire));
        if (floor >= shard->stats.last_seq.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::yield();
      }
    }
  }
  PublishMergedView(/*block=*/true);
}

void IngestPipeline::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  started_ = false;
  // Workers fsynced their WALs and published final shard snapshots before
  // exiting; persist one final checkpoint so a restart recovers the whole
  // stream without replay, then fold the snapshots into one last complete
  // view so post-Stop queries see it too.
  if (durable_ != nullptr) MaybeCheckpoint(/*block=*/true);
  PublishMergedView(/*block=*/true);
}

uint64_t IngestPipeline::Query(double phi) {
  // arg: phi in parts-per-million (trace args are integers).
  STREAMQ_TRACE_SPAN(obs::TracePoint::kQuery,
                     static_cast<uint64_t>(phi * 1e6));
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  const QueryView::Snapshot snap = view_.Load();
  if (snap.epoch < ProcessedCount()) {
    stats_.stale_queries.fetch_add(1, std::memory_order_relaxed);
  }
  if (snap.sketch == nullptr) return 0;
  // QuantileSketch::Query mutates lazy caches and metrics, so concurrent
  // queries serialise here. Ingestion never takes this mutex.
  std::lock_guard<std::mutex> lock(query_mutex_);
  return snap.sketch->Query(phi);
}

std::vector<uint64_t> IngestPipeline::QueryMany(
    const std::vector<double>& phis) {
  STREAMQ_TRACE_SPAN(obs::TracePoint::kQuery, phis.size());
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  const QueryView::Snapshot snap = view_.Load();
  if (snap.epoch < ProcessedCount()) {
    stats_.stale_queries.fetch_add(1, std::memory_order_relaxed);
  }
  if (snap.sketch == nullptr) return std::vector<uint64_t>(phis.size(), 0);
  std::lock_guard<std::mutex> lock(query_mutex_);
  return snap.sketch->QueryMany(phis);
}

int64_t IngestPipeline::Rank(uint64_t value) {
  STREAMQ_TRACE_SPAN(obs::TracePoint::kQuery, value);
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  const QueryView::Snapshot snap = view_.Load();
  if (snap.epoch < ProcessedCount()) {
    stats_.stale_queries.fetch_add(1, std::memory_order_relaxed);
  }
  if (snap.sketch == nullptr) return 0;
  // EstimateRank may touch the same lazy caches as Query; serialise on the
  // query mutex (never taken by ingestion).
  std::lock_guard<std::mutex> lock(query_mutex_);
  return snap.sketch->EstimateRank(value);
}

std::unique_ptr<QuantileSketch> IngestPipeline::CloneView() {
  const QueryView::Snapshot snap = view_.Load();
  if (snap.sketch == nullptr) return nullptr;
  // Clone() walks the sketch's full state while concurrent Query() calls
  // mutate lazy caches, so cloning serialises on the same query mutex.
  std::lock_guard<std::mutex> lock(query_mutex_);
  return snap.sketch->Clone();
}

uint64_t IngestPipeline::ViewCount() {
  const QueryView::Snapshot snap = view_.Load();
  if (snap.sketch == nullptr) return 0;
  // Serialised on the query mutex for the same reason as CloneView.
  std::lock_guard<std::mutex> lock(query_mutex_);
  return snap.sketch->Count();
}

uint64_t IngestPipeline::PushedCount() const {
  return stats_.pushed.load(std::memory_order_acquire);
}

uint64_t IngestPipeline::ProcessedCount() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->stats.processed.load(std::memory_order_acquire);
  }
  return total;
}

size_t IngestPipeline::PeakMemoryBytes() const {
  uint64_t total = stats_.peak_view_bytes.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    total += shard->stats.peak_memory_bytes.load(std::memory_order_acquire);
  }
  return static_cast<size_t>(total);
}

size_t IngestPipeline::RingBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ring.capacity() * sizeof(SeqUpdate);
  }
  return total;
}

void IngestPipeline::PublishMetrics(obs::MetricsRegistry& registry,
                                    const std::string& prefix) {
  const auto set_counter = [&registry](const std::string& name, uint64_t v) {
    obs::Counter& c = registry.GetCounter(name);
    c.Reset();
    c.Add(v);
  };
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    const std::string p = prefix + ".shard" + std::to_string(i);
    registry.GetGauge(p + ".queue_depth")
        .Set(static_cast<int64_t>(shard.ring.SizeApprox()));
    registry.GetGauge(p + ".peak_memory_bytes")
        .Set(static_cast<int64_t>(
            shard.stats.peak_memory_bytes.load(std::memory_order_acquire)));
    set_counter(p + ".pushed",
                shard.stats.pushed.load(std::memory_order_acquire));
    set_counter(p + ".processed",
                shard.stats.processed.load(std::memory_order_acquire));
    set_counter(p + ".rejected",
                shard.stats.rejected.load(std::memory_order_acquire));
    set_counter(p + ".ring_full_stalls",
                shard.stats.ring_full_stalls.load(std::memory_order_acquire));
    set_counter(
        p + ".stall_watchdog_trips",
        shard.stats.stall_watchdog_trips.load(std::memory_order_acquire));
    set_counter(p + ".snapshots",
                shard.stats.snapshots.load(std::memory_order_acquire));
    if (shard.durable != nullptr && shard.durable->wal != nullptr) {
      const durability::WalStats& w = shard.durable->wal->stats();
      set_counter(p + ".deduped",
                  shard.stats.deduped.load(std::memory_order_acquire));
      set_counter(p + ".wal_records",
                  w.records.load(std::memory_order_acquire));
      set_counter(p + ".wal_bytes", w.bytes.load(std::memory_order_acquire));
      set_counter(p + ".wal_syncs", w.syncs.load(std::memory_order_acquire));
      set_counter(p + ".wal_failed_syncs",
                  w.failed_syncs.load(std::memory_order_acquire));
      set_counter(p + ".wal_rolls", w.rolls.load(std::memory_order_acquire));
      set_counter(p + ".wal_truncated_segments",
                  w.truncated_segments.load(std::memory_order_acquire));
      registry.GetGauge(p + ".wal_durable_seq")
          .Set(static_cast<int64_t>(shard.durable->wal->durable_seq()));
      registry.GetGauge(p + ".wal_dead")
          .Set(shard.durable->wal->dead() ? 1 : 0);
      registry.GetGauge(p + ".checkpoint_seq")
          .Set(static_cast<int64_t>(
              shard.stats.checkpoint_seq.load(std::memory_order_acquire)));
    }
  }
  set_counter(prefix + ".pushed",
              stats_.pushed.load(std::memory_order_acquire));
  set_counter(prefix + ".publishes",
              stats_.publishes.load(std::memory_order_acquire));
  set_counter(prefix + ".publish_contended",
              stats_.publish_contended.load(std::memory_order_acquire));
  set_counter(prefix + ".queries",
              stats_.queries.load(std::memory_order_acquire));
  set_counter(prefix + ".stale_queries",
              stats_.stale_queries.load(std::memory_order_acquire));
  registry.GetGauge(prefix + ".view_epoch")
      .Set(static_cast<int64_t>(view_.Epoch()));
  registry.GetGauge(prefix + ".peak_view_bytes")
      .Set(static_cast<int64_t>(
          stats_.peak_view_bytes.load(std::memory_order_acquire)));
  registry.GetGauge(prefix + ".peak_memory_bytes")
      .Set(static_cast<int64_t>(PeakMemoryBytes()));
  registry.GetGauge(prefix + ".ring_bytes")
      .Set(static_cast<int64_t>(RingBytes()));
  if (durable_ != nullptr) {
    set_counter(prefix + ".checkpoints",
                stats_.checkpoints.load(std::memory_order_acquire));
    set_counter(prefix + ".checkpoint_failures",
                stats_.checkpoint_failures.load(std::memory_order_acquire));
    set_counter(prefix + ".replayed_records", recovery_.replayed_records);
    set_counter(prefix + ".replayed_updates", recovery_.replayed_updates);
    registry.GetGauge(prefix + ".durable_seq")
        .Set(static_cast<int64_t>(DurableSeq()));
    registry.GetGauge(prefix + ".resume_seq")
        .Set(static_cast<int64_t>(recovery_.resume_seq));
    {
      std::lock_guard<std::mutex> lock(durable_->checkpoint_mutex);
      registry.GetHistogram(prefix + ".checkpoint_ticks") =
          durable_->checkpoint_ticks;
    }
  }
  {
    // The latency histograms are guarded by the publish mutex; copy them
    // out under it.
    std::lock_guard<std::mutex> lock(publish_mutex_);
    registry.GetHistogram(prefix + ".merge_ticks") = merge_ticks_;
    registry.GetHistogram(prefix + ".publish_ticks") = publish_ticks_;
  }
  {
    std::lock_guard<std::mutex> lock(stall_mutex_);
    registry.GetHistogram(prefix + ".ring_full_stall_ns") =
        ring_full_stall_ns_;
  }
  if (auditor_ != nullptr) {
    std::lock_guard<std::mutex> lock(audit_mutex_);
    obs::PublishAuditMetrics(*auditor_, registry, prefix + ".audit");
  }
}

obs::AuditReport IngestPipeline::AuditNow() {
  if (auditor_ == nullptr) return obs::AuditReport{};
  // Collect the published per-shard (sketch, shadow) pairs. Each pair was
  // cloned atomically by its worker, so sketch and shadow cover the same
  // applied multiset per shard; merging both sides over the same snapshot
  // set keeps the comparison skew-free. Snapshot reads are RCU loads --
  // ingestion is never blocked.
  std::unique_ptr<QuantileSketch> merged = MakeSketch(options_.sketch);
  std::vector<std::shared_ptr<ShardSnapshot>> pins;  // keep shadows alive
  std::vector<const obs::ReservoirShadow*> shadows;
  pins.reserve(shards_.size());
  shadows.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_ptr<ShardSnapshot> snap = shard->snapshot.Load();
    if (snap == nullptr) continue;
    const StreamqStatus status = merged->Merge(*snap->sketch);
    assert(status == StreamqStatus::kOk);
    (void)status;
    if (snap->shadow != nullptr) shadows.push_back(snap->shadow.get());
    pins.push_back(std::move(snap));
  }
  std::lock_guard<std::mutex> lock(audit_mutex_);
  // Vary the merge seed per round so successive audits draw independent
  // merged samples (deterministic given the round number).
  std::unique_ptr<obs::ReservoirShadow> shadow = obs::ReservoirShadow::Merged(
      shadows, audit_config_.reservoir,
      ShadowSeed(options_.sketch.seed, shards_.size() + 1) +
          auditor_->rounds());
  if (shadow == nullptr) {
    shadow = std::make_unique<obs::ReservoirShadow>(audit_config_.reservoir,
                                                    options_.sketch.seed);
  }
  const uint64_t count = static_cast<uint64_t>(merged->Count());
  return auditor_->Audit(
      [&merged](double phi) { return merged->Query(phi); }, count, *shadow);
}

obs::AuditReport IngestPipeline::LastAuditReport() const {
  if (auditor_ == nullptr) return obs::AuditReport{};
  std::lock_guard<std::mutex> lock(audit_mutex_);
  return auditor_->last();
}

IngestPipeline::AuditCounters IngestPipeline::GetAuditCounters() const {
  AuditCounters c;
  if (auditor_ == nullptr) return c;
  std::lock_guard<std::mutex> lock(audit_mutex_);
  c.rounds = auditor_->rounds();
  c.violations = auditor_->violations_total();
  c.unhealthy_streak = auditor_->consecutive_violation_rounds();
  c.max_observed_err = auditor_->last().max_observed_err;
  c.eps_budget = audit_config_.eps * audit_config_.slack;
  return c;
}

std::unique_ptr<obs::ReservoirShadow> IngestPipeline::CloneAuditShadow()
    const {
  if (auditor_ == nullptr) return nullptr;
  std::vector<std::shared_ptr<ShardSnapshot>> pins;
  std::vector<const obs::ReservoirShadow*> shadows;
  for (const auto& shard : shards_) {
    std::shared_ptr<ShardSnapshot> snap = shard->snapshot.Load();
    if (snap == nullptr || snap->shadow == nullptr) continue;
    shadows.push_back(snap->shadow.get());
    pins.push_back(std::move(snap));
  }
  return obs::ReservoirShadow::Merged(
      shadows, audit_config_.reservoir,
      ShadowSeed(options_.sketch.seed, shards_.size() + 2));
}

}  // namespace streamq::ingest
