// Common interface for all streaming quantile summaries in the library.

#ifndef STREAMQ_QUANTILE_QUANTILE_SKETCH_H_
#define STREAMQ_QUANTILE_QUANTILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/sketch_metrics.h"

namespace streamq {

/// Result of a sketch mutation or query. The library's single error-path
/// convention: operations that can be refused return a StreamqStatus
/// instead of aborting, and refuse WITHOUT mutating the sketch.
///
/// Contract (established in PR 1, "error-path semantics"):
///  * A non-kOk return guarantees the summary is bit-identical to its state
///    before the call -- callers may retry, skip, or surface the error
///    without resynchronising.
///  * No library operation aborts the process on bad input; aborts are
///    reserved for internal invariant violations (assert, debug builds).
///  * Statuses are ordered benign-to-worse only for reading convenience;
///    no code may rely on their numeric values (the serialised form is the
///    name, never the integer).
enum class StreamqStatus {
  kOk = 0,
  /// The operation is not supported by this summary's stream model
  /// (e.g. Erase on a cash-register summary).
  kUnsupported,
  /// The value lies outside the fixed universe [0, 2^log_u) of a
  /// fixed-universe summary; the update was rejected, not clamped.
  kOutOfUniverse,
  /// A parameter was malformed (e.g. phi outside [0, 1] or NaN).
  kInvalidArgument,
  /// The two summaries cannot be merged: different concrete types, or the
  /// same type built with incompatible parameters (eps, universe, depth,
  /// seed). Neither summary was modified.
  kMergeIncompatible,
};

/// Human-readable status name (for logs and test failure messages).
/// Never returns nullptr; out-of-range values map to "unknown".
const char* StreamqStatusName(StreamqStatus status);

/// Abstract streaming quantile summary.
///
/// All implementations process one update at a time and can answer quantile
/// queries at any point of the stream (no a-priori knowledge of n).
///
/// The public mutators and queries are non-virtual: they validate input,
/// maintain the per-sketch metrics (obs/sketch_metrics.h), and dispatch to
/// the protected *Impl virtuals that concrete summaries override. Query()
/// is non-const because several summaries (GKArray, FastQDigest, DCS+Post)
/// flush buffers or run a finalisation pass on query; this never changes
/// the summarised multiset.
///
/// Thread-safety: none. A sketch may be used from one thread at a time;
/// concurrent Insert/Query on the same instance is a data race. Distinct
/// instances are fully independent (no shared mutable state).
class QuantileSketch {
 public:
  virtual ~QuantileSketch() = default;

  /// Inserts one value.
  ///
  /// Preconditions: none (any uint64_t is a legal argument).
  /// Returns kOk on success. Fixed-universe (turnstile) summaries reject
  /// values outside their universe with kOutOfUniverse and leave the
  /// summary unchanged; comparison-based summaries accept any value.
  StreamqStatus Insert(uint64_t value) {
    STREAMQ_TRACE_INSTANT(obs::TracePoint::kSketchUpdate, value);
    const StreamqStatus status = InsertImpl(value);
    if (status == StreamqStatus::kOk) {
      metrics_.inserts.Inc();
    } else {
      metrics_.rejected.Inc();
    }
    return status;
  }

  /// Inserts a batch of values, in order, as if by calling Insert() on each
  /// element of `values` front to back.
  ///
  /// Preconditions: none (any values, any length including 0).
  /// Returns the number of rejected elements (0 means the whole batch was
  /// accepted). Rejection is per element and independent -- a rejected
  /// element (e.g. out-of-universe on a fixed-universe summary) leaves the
  /// summary exactly as if that element had been skipped; the rest of the
  /// batch is still applied. The resulting summary state is bit-identical
  /// to the item-wise loop (same compaction points, same RNG draws), which
  /// the batch property tests assert for every algorithm.
  ///
  /// Metrics are counted once per batch (`values.size() - rejected` into
  /// inserts, `rejected` into rejected) and one trace instant covers the
  /// whole batch -- this, plus one virtual dispatch per batch instead of
  /// per item, is the NVI-level amortization; concrete summaries override
  /// InsertBatchImpl to amortize their interiors too (DESIGN.md section 14).
  size_t UpdateBatch(std::span<const uint64_t> values) {
    if (values.empty()) return 0;
    STREAMQ_TRACE_INSTANT(obs::TracePoint::kSketchUpdate,
                          static_cast<uint64_t>(values.size()));
    const size_t rejected = InsertBatchImpl(values.data(), values.size());
    metrics_.inserts.Add(static_cast<uint64_t>(values.size() - rejected));
    if (rejected != 0) {
      metrics_.rejected.Add(static_cast<uint64_t>(rejected));
    }
    return rejected;
  }

  /// Deletes one previously inserted occurrence of value.
  ///
  /// Preconditions: `value` was inserted more often than erased (the
  /// turnstile model's "strict" assumption; violating it silently corrupts
  /// rank estimates but does not crash).
  /// Returns kOk on success. Only supported in the turnstile model:
  /// cash-register summaries return kUnsupported, fixed-universe summaries
  /// reject out-of-universe values with kOutOfUniverse -- in both cases the
  /// summary is unchanged (no abort).
  StreamqStatus Erase(uint64_t value) {
    STREAMQ_TRACE_INSTANT(obs::TracePoint::kSketchUpdate, value);
    const StreamqStatus status = EraseImpl(value);
    if (status == StreamqStatus::kOk) {
      metrics_.erases.Inc();
    } else {
      metrics_.rejected.Inc();
    }
    return status;
  }

  /// Whether Erase is supported (turnstile model).
  virtual bool SupportsDeletion() const { return false; }

  // --- mergeability ----------------------------------------------------

  /// Whether this summary type supports Merge at all. Mergeable summaries
  /// (Random, MRL99, FastQDigest, and the dyadic turnstile family) combine
  /// with a compatible sibling into a summary of the union stream with the
  /// same eps*n_total error bound -- the property the parallel ingest
  /// subsystem (src/ingest/) is built on. The GK family is not mergeable:
  /// its (g, Delta) tuple invariants are tied to one linear scan of a
  /// single stream and repeated pairwise merging grows its error.
  virtual bool Mergeable() const { return false; }

  /// Whether Merge(other) would be accepted: both summaries mergeable, same
  /// concrete type, compatible construction parameters. Never mutates.
  bool CanMerge(const QuantileSketch& other) const {
    return &other != this &&
           MergeCompatibility(other) == StreamqStatus::kOk;
  }

  /// Folds `other` into this summary so that it summarises the union of
  /// both input streams. `other` is not modified; the metrics of `other`
  /// are not transferred (this summary's counters keep counting its own
  /// Insert/Merge calls).
  ///
  /// Returns kOk on success. A non-mergeable summary type returns
  /// kUnsupported; a mergeable one refuses a sibling of different concrete
  /// type or incompatible parameters (and self-merge) with
  /// kMergeIncompatible. Per the library error-path contract, a non-kOk
  /// return leaves this summary bit-identical to its prior state; rejected
  /// merges count into the `rejected` metric like any refused mutation.
  StreamqStatus Merge(const QuantileSketch& other) {
    StreamqStatus status = &other == this ? StreamqStatus::kMergeIncompatible
                                          : MergeCompatibility(other);
    if (status == StreamqStatus::kOk) status = MergeImpl(other);
    if (status == StreamqStatus::kOk) {
      metrics_.merges.Inc();
    } else {
      metrics_.rejected.Inc();
    }
    return status;
  }

  /// Deep copy of this summary (same parameters, same summarised state,
  /// fresh metrics). Supported by the mergeable summaries -- the parallel
  /// ingest workers clone their shard summaries to publish consistent
  /// snapshots -- and returns nullptr for every other type.
  virtual std::unique_ptr<QuantileSketch> Clone() const { return nullptr; }

  /// Returns an eps-approximate phi-quantile of the elements currently
  /// summarised.
  ///
  /// Preconditions: phi in [0, 1] (NaN rejected); an invalid phi yields 0
  /// without consulting the summary. An empty summary also yields 0 (there
  /// is nothing to report).
  uint64_t Query(double phi) {
    metrics_.queries.Inc();
    if (!PhiIsValid(phi)) return 0;
    return QueryImpl(phi);
  }

  /// Batch quantile query.
  ///
  /// Preconditions: phis sorted ascending, each valid per Query(). Any
  /// invalid phi yields an all-zero result of the same length; an unsorted
  /// list yields unspecified (but in-range) answers on the summaries with
  /// single-pass batch paths.
  std::vector<uint64_t> QueryMany(const std::vector<double>& phis) {
    metrics_.queries.Inc();
    for (double phi : phis) {
      if (!PhiIsValid(phi)) return std::vector<uint64_t>(phis.size(), 0);
    }
    return QueryManyImpl(phis);
  }

  /// The Query() validity test: phi in [0, 1], rejecting NaN.
  static bool PhiIsValid(double phi) { return phi >= 0.0 && phi <= 1.0; }

  /// Estimated rank (number of summarised elements < value). Exposed for
  /// diagnostics and tests; all summaries can answer it. No preconditions;
  /// out-of-universe values clamp naturally (rank 0 or n).
  virtual int64_t EstimateRank(uint64_t value) = 0;

  /// Number of elements currently summarised (insertions minus deletions).
  virtual uint64_t Count() const = 0;

  /// Current memory footprint under the paper's accounting conventions
  /// (see util/memory.h). Harnesses track the maximum over the stream.
  virtual size_t MemoryBytes() const = 0;

  /// Algorithm name as used in the paper's figures. Stable across versions;
  /// parseable back through ParseAlgorithm() for the factory-built sketches.
  virtual std::string Name() const = 0;

  // --- observability (src/obs/) ---------------------------------------

  /// This sketch's live metrics (update/query/compaction counters; see
  /// obs/sketch_metrics.h).
  const obs::SketchMetrics& metrics() const { return metrics_; }

  /// Publishes the metrics into `registry` under "<prefix>.<metric>",
  /// sampling MemoryBytes() into the memory gauge at the same moment.
  /// Cold path: allocates registry entries on first publish of a prefix.
  void PublishMetrics(obs::MetricsRegistry& registry,
                      const std::string& prefix) {
    metrics_.memory_bytes.Set(static_cast<int64_t>(MemoryBytes()));
    metrics_.PublishTo(registry, prefix);
  }

 protected:
  /// Insertion with metrics accounting handled by the caller (Insert).
  virtual StreamqStatus InsertImpl(uint64_t value) = 0;

  /// Batch insertion with metrics accounting handled by the caller
  /// (UpdateBatch); returns the number of rejected elements. The default
  /// loops over InsertImpl -- already amortizing dispatch and metrics --
  /// and overrides must preserve bit-identity with that loop (same state,
  /// same compaction boundaries, same RNG consumption). `n` is >= 1.
  virtual size_t InsertBatchImpl(const uint64_t* values, size_t n);

  /// Deletion; the default refuses (cash-register model).
  virtual StreamqStatus EraseImpl(uint64_t value);

  /// Full merge-compatibility check, called by Merge() before MergeImpl and
  /// by CanMerge(). The default refuses (non-mergeable summary). Overrides
  /// must check everything MergeImpl relies on, so that an accepted merge
  /// cannot fail halfway (which would violate the no-mutation-on-error
  /// contract). Self-merge is rejected by the non-virtual callers before
  /// this hook runs, so overrides may assume `&other != this`.
  virtual StreamqStatus MergeCompatibility(const QuantileSketch& other) const;

  /// The merge itself, with compatibility already verified by
  /// MergeCompatibility. The default refuses with kUnsupported.
  virtual StreamqStatus MergeImpl(const QuantileSketch& other);

  /// Quantile query with phi already validated.
  virtual uint64_t QueryImpl(double phi) = 0;

  /// Batch query with all phis validated. The default loops over
  /// QueryImpl(); summaries with linear-scan query paths override this with
  /// a single pass.
  virtual std::vector<uint64_t> QueryManyImpl(const std::vector<double>& phis);

  /// Hook for concrete summaries (and the template impls they wrap) to
  /// record compaction events into the shared metrics object. The pointer
  /// is stable for the sketch's lifetime.
  obs::SketchMetrics* mutable_metrics() { return &metrics_; }

 private:
  obs::SketchMetrics metrics_;
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_QUANTILE_SKETCH_H_
