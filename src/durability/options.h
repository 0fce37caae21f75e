// Durability knobs for the ingest pipeline (IngestOptions::durability).
// Durability is a runtime choice: a pipeline built with `enabled` false
// never touches the WAL or checkpoint code.

#ifndef STREAMQ_DURABILITY_OPTIONS_H_
#define STREAMQ_DURABILITY_OPTIONS_H_

#include <cstdint>
#include <string>

namespace streamq::durability {

class Storage;

struct DurabilityOptions {
  /// Master switch. When false the pipeline runs exactly as before (no
  /// WAL, no checkpoints, no recovery). When true, `storage` must be
  /// non-null, otherwise IngestPipeline::Create returns nullptr.
  bool enabled = false;

  /// Unowned; must outlive the pipeline. Typically PosixStorage in
  /// production, MemStorage (possibly wrapped in FaultyStorage) in tests.
  Storage* storage = nullptr;

  /// Root directory for this pipeline's durable state; the pipeline
  /// creates "<dir>/wal" and "<dir>/ckpt" under it. Recovery reads
  /// whatever a previous incarnation left at the same dir.
  std::string dir = "streamq-data";

  /// A shard worker fsyncs its WAL after this many logged updates (and
  /// whenever it goes idle or is asked to flush). Smaller = acks advance
  /// faster, more fsyncs.
  uint64_t sync_interval = 4096;

  /// A checkpoint is attempted after this many newly applied updates
  /// pipeline-wide (plus one final checkpoint at Stop). Each checkpoint
  /// truncates the WAL segments it covers.
  uint64_t checkpoint_interval = uint64_t{1} << 18;

  /// Target size of one WAL segment file before the writer rolls to the
  /// next (segments are the unit of truncation).
  uint64_t segment_bytes = uint64_t{4} << 20;

  /// Checkpoint generations to retain. Keep >= 2: recovery falls back to
  /// the previous generation when the newest is torn or corrupt.
  int keep_checkpoints = 2;
};

}  // namespace streamq::durability

#endif  // STREAMQ_DURABILITY_OPTIONS_H_
