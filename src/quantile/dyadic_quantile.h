// Common machinery of the turnstile quantile algorithms (section 3 of the
// paper): a frequency estimator per dyadic level, rank queries by prefix
// decomposition, quantile queries by binary search over the universe.

#ifndef STREAMQ_QUANTILE_DYADIC_QUANTILE_H_
#define STREAMQ_QUANTILE_DYADIC_QUANTILE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "quantile/quantile_sketch.h"
#include "sketch/frequency_estimator.h"
#include "util/serde.h"

namespace streamq {

/// Base of DCM / DCS / RSS-based quantiles. Subclasses populate one
/// FrequencyEstimator per level in their constructor; levels whose reduced
/// universe is no larger than the sketch use ExactCounts instead.
class DyadicQuantileBase : public QuantileSketch {
 public:
  bool SupportsDeletion() const override { return true; }

  /// The dyadic sketches are linear: merging is exact counter addition, so
  /// a merged sketch summarises the sum of both update streams with the
  /// per-level width/depth guarantee at the combined stream length.
  /// Compatibility requires the same concrete type built with the same
  /// (log_u, width, depth, seed) -- identical seeds make the per-level hash
  /// functions identical, which counter addition relies on.
  bool Mergeable() const override { return true; }

  int64_t EstimateRank(uint64_t value) override;
  uint64_t Count() const override { return static_cast<uint64_t>(n_); }
  size_t MemoryBytes() const override;

  // --- accessors used by the OLS post-processing and by tests ---

  int log_universe() const { return log_u_; }

  /// Estimated count of cell `index` at `level`; level == log_universe()
  /// returns the exact stream count n.
  double CellEstimate(int level, uint64_t index) const;

  /// Whether `level` stores exact frequencies (level log_universe() is
  /// always exact).
  bool LevelIsExact(int level) const;

  /// Variance proxy of one cell estimate at `level` (0 when exact).
  double LevelVariance(int level) const;

  /// Framed snapshot of the sketch (construction parameters + all
  /// counters). Restore with the matching Deserialize of the concrete
  /// class; a snapshot of one dyadic sketch type is rejected by another's.
  std::string Serialize() const;

 protected:
  explicit DyadicQuantileBase(int log_u) : log_u_(log_u), levels_(log_u) {}

  /// Values outside the configured universe [0, 2^log_u) are rejected with
  /// kOutOfUniverse; the sketch is not modified (no clamping, no
  /// out-of-bounds write).
  StreamqStatus InsertImpl(uint64_t value) override {
    return ApplyUpdate(value, +1);
  }
  StreamqStatus EraseImpl(uint64_t value) override {
    return ApplyUpdate(value, -1);
  }

  /// Batched insert: filter in-universe values into a scratch chunk, then
  /// feed each level's estimator the whole chunk at once (the estimators
  /// are linear, so per-level reordering leaves identical counters). The
  /// level-i item is value >> i, maintained by shifting the chunk in place
  /// between levels.
  size_t InsertBatchImpl(const uint64_t* values, size_t n) override;

  /// The paper's quantile query: binary search over [u] for the largest
  /// value whose estimated rank (sum over the dyadic decomposition, one
  /// estimate per level) stays below phi*n. Unbiased per-level estimators
  /// (DCS) profit from error cancellation across levels here; Count-Min's
  /// one-sided bias accumulates, which is the mechanism behind the paper's
  /// Fig. 10 separation between DCM and DCS.
  uint64_t QueryImpl(double phi) override;

  /// Frame type tag for Serialize (one per concrete sketch).
  virtual SnapshotType snapshot_type() const = 0;

  StreamqStatus MergeCompatibility(
      const QuantileSketch& other) const override;
  StreamqStatus MergeImpl(const QuantileSketch& other) override;

  StreamqStatus ApplyUpdate(uint64_t value, int64_t delta);
  bool LoadFrom(class SerdeReader& r);

  int log_u_;
  int64_t n_ = 0;
  uint64_t width_ = 0;  // per-level sketch width (0 before BuildLevels)
  int depth_ = 0;
  uint64_t seed_ = 0;
  std::vector<std::unique_ptr<FrequencyEstimator>> levels_;  // [0, log_u)
  std::vector<uint64_t> batch_scratch_;  // InsertBatchImpl working chunk
};

/// DCM: Dyadic Count-Min (Cormode & Muthukrishnan). Per-level width
/// w = (1/eps) * log2(u), depth d (paper's tuning: d = 7).
class Dcm : public DyadicQuantileBase {
 public:
  Dcm(double eps, int log_u, int depth = 7, uint64_t seed = 1);
  /// Explicit per-level dimensions (used by the tuning benches).
  static std::unique_ptr<Dcm> WithWidth(uint64_t width, int depth, int log_u,
                                        uint64_t seed);
  /// Restores a Serialize() snapshot; nullptr on corrupt input.
  static std::unique_ptr<Dcm> Deserialize(const std::string& bytes);
  std::string Name() const override { return "DCM"; }
  /// Deep copy via the snapshot path (cold; used by the ingest publishers).
  std::unique_ptr<QuantileSketch> Clone() const override {
    return Deserialize(Serialize());
  }

 protected:
  SnapshotType snapshot_type() const override { return SnapshotType::kDcm; }

 private:
  Dcm(int log_u) : DyadicQuantileBase(log_u) {}
  void BuildLevels(uint64_t width, int depth, uint64_t seed);
};

/// DCS: Dyadic Count-Sketch -- the paper's new turnstile algorithm. Per-level
/// width w = sqrt(log2(u))/eps, depth d (paper's tuning: d = 7).
class Dcs : public DyadicQuantileBase {
 public:
  Dcs(double eps, int log_u, int depth = 7, uint64_t seed = 1);
  static std::unique_ptr<Dcs> WithWidth(uint64_t width, int depth, int log_u,
                                        uint64_t seed);
  /// Restores a Serialize() snapshot; nullptr on corrupt input.
  static std::unique_ptr<Dcs> Deserialize(const std::string& bytes);
  std::string Name() const override { return "DCS"; }
  /// Deep copy via the snapshot path (cold; used by the ingest publishers).
  std::unique_ptr<QuantileSketch> Clone() const override {
    return Deserialize(Serialize());
  }

 protected:
  SnapshotType snapshot_type() const override { return SnapshotType::kDcs; }

 private:
  Dcs(int log_u) : DyadicQuantileBase(log_u) {}
  void BuildLevels(uint64_t width, int depth, uint64_t seed);
};

/// Dyadic random-subset-sum (Gilbert et al.): the baseline turnstile
/// algorithm. Width would need to be ~1/eps^2 for eps-accuracy; callers
/// bound it explicitly because of its prohibitive cost.
class RssQuantile : public DyadicQuantileBase {
 public:
  RssQuantile(uint64_t width, int depth, int log_u, uint64_t seed = 1);
  std::string Name() const override { return "RSS"; }

 protected:
  SnapshotType snapshot_type() const override { return SnapshotType::kRss; }
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_DYADIC_QUANTILE_H_
