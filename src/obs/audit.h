// Live accuracy audit plane (DESIGN.md section 17): continuous
// self-verification that a sketch's eps guarantee actually holds on the
// traffic it is serving.
//
// The source paper measures observed rank error offline, against a frozen
// exact multiset. This module turns that methodology into runtime
// observability with two pieces:
//
//  * ReservoirShadow -- a seed-deterministic fixed-size uniform sample of
//    the live stream, maintained off the hot path. The fill phase is
//    Algorithm R; once full it switches to Vitter's Algorithm L, whose
//    geometric skip counter makes the common case of Observe() a single
//    decrement (O(k log(n/k)) RNG work over the whole stream, not O(n)).
//    Allocation-free after construction. Shadows merge exactly: the
//    hypergeometric weighted merge of independent uniform reservoirs is
//    itself a uniform reservoir of the union, which is what lets the
//    pipeline keep one worker-private shadow per shard and the cluster
//    tier fold per-node shadows into a global one.
//
//  * AccuracyAuditor -- replays a phi-grid against the sketch's answers
//    and the shadow's empirical ranks, computing the paper's normalized
//    rank error (distance of phi from the sample rank interval of the
//    returned quantile). A round is a VIOLATION when observed error
//    exceeds  eps_budget + guard, where the guard absorbs the two honest
//    noise sources so sampling noise never fires false alarms:
//
//      guard = z * sqrt(phi (1 - phi) / k)   (binomial CI of the shadow's
//                                             rank estimate at phi; k =
//                                             samples held)
//            + 1 / k                         (rank discreteness)
//            + |n_sketch - n_shadow| / n     (coverage gap: elements the
//                                             sketch covers but the shadow
//                                             never saw -- a recovered
//                                             checkpoint prefix, a dead
//                                             node's lost shadow, unshipped
//                                             cluster staleness -- shift
//                                             any normalized rank by at
//                                             most the gap fraction)
//
//    Deletions (turnstile deltas) taint a shadow: a reservoir cannot
//    unsample, so audits of tainted shadows report valid = false instead
//    of guessing.
//
// The shadow's snapshot is CRC32C-framed (SnapshotType::kAuditShadow) with
// the generator state included, so a restored shadow continues the exact
// sampling sequence -- and any single flipped byte is rejected.
//
// Auditing is a run-time choice: the owning layer builds shadows and an
// auditor only when its AuditConfig::enabled is set.
//
// Thread-safety: none. Shadows are single-owner (a shard worker, a merge
// scratch); auditors are serialised by their owning layer.

#ifndef STREAMQ_OBS_AUDIT_H_
#define STREAMQ_OBS_AUDIT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "util/random.h"

namespace streamq::obs {

class ReservoirShadow {
 public:
  /// `capacity` samples are reserved up front (the only allocation this
  /// object ever makes); `seed` fully determines the sample for a given
  /// observation sequence.
  explicit ReservoirShadow(size_t capacity, uint64_t seed);

  /// Observes one stream element. Hot-path shape: once the reservoir is
  /// full, the overwhelmingly common case is one branch + one decrement
  /// (the Algorithm L skip); only 1-in-(n/k) elements take the slow path.
  void Observe(uint64_t value) {
    if (skip_ > 0) {
      --skip_;
      ++stream_n_;
      return;
    }
    ObserveSlow(value);
  }

  /// Observes a contiguous span, consuming the skip counter in bulk: a
  /// batch that falls entirely inside one skip costs O(1) regardless of
  /// its length.
  void ObserveBatch(const uint64_t* values, size_t n);

  /// ObserveBatch for non-contiguous storage: observes `n` elements where
  /// `value_at(i)` yields the i-th. The getter is only called for the
  /// 1-in-(n/k) elements that actually enter the sample, so span
  /// consumption stays O(1) per skip regardless of how the caller stores
  /// its batch. Produces the exact sample sequence of n Observe() calls.
  template <typename ValueAt>
  void ObserveSpan(size_t n, ValueAt value_at) {
    size_t i = 0;
    while (i < n) {
      if (skip_ > 0) {
        const uint64_t take =
            std::min<uint64_t>(skip_, static_cast<uint64_t>(n - i));
        skip_ -= take;
        stream_n_ += take;
        i += static_cast<size_t>(take);
        continue;
      }
      ObserveSlow(value_at(i));
      ++i;
    }
  }

  /// Marks the shadow unusable for auditing: the stream did something a
  /// uniform sample cannot represent (turnstile deletion).
  void Taint() { tainted_ = true; }
  bool tainted() const { return tainted_; }

  /// Stream elements represented (observed, or accounted by Restore).
  uint64_t stream_n() const { return stream_n_; }
  /// Samples currently held: min(stream_n, capacity).
  size_t size() const { return sample_.size(); }
  size_t capacity() const { return capacity_; }
  size_t MemoryBytes() const;

  /// The held sample, sorted ascending (cached; invalidated by Observe).
  const std::vector<uint64_t>& SortedSample() const;

  /// Rank interval of `value` within the sample, as fractions of size():
  /// *lo = fraction strictly below, *hi = fraction at or below. With
  /// size() == 0 both are 0.
  void SampleRankFractions(uint64_t value, double* lo, double* hi) const;

  /// phi-quantile of the held sample under the paper's rank convention
  /// (element of rank ceil(phi * k)); 0 when empty.
  uint64_t SampleQuantile(double phi) const;

  /// Exact uniform merge: folds `parts` (each representing its own stream)
  /// into one shadow of `capacity` samples representing the union, via the
  /// hypergeometric weighted draw. Deterministic in (`seed`, parts' states).
  /// Tainted parts taint the result. nullptr when parts is empty.
  static std::unique_ptr<ReservoirShadow> Merged(
      const std::vector<const ReservoirShadow*>& parts, size_t capacity,
      uint64_t seed);

  std::unique_ptr<ReservoirShadow> Clone() const;

  /// CRC32C-framed snapshot (SnapshotType::kAuditShadow); a restored
  /// shadow continues the exact sampling sequence.
  std::string Snapshot() const;
  /// nullptr on any corruption (frame, CRC, truncation, trailing bytes,
  /// internal inconsistency).
  static std::unique_ptr<ReservoirShadow> Restore(const std::string& frame);

 private:
  /// Fill phase, replacement draws, and skip re-arming.
  void ObserveSlow(uint64_t value);
  /// Draws the next Algorithm L (w, skip) pair once the reservoir is full.
  void ArmSkip();

  size_t capacity_;
  uint64_t seed_;
  uint64_t stream_n_ = 0;
  std::vector<uint64_t> sample_;
  Xoshiro256 rng_;
  /// Algorithm L state: current acceptance weight and elements left to
  /// skip before the next replacement.
  double w_ = 1.0;
  uint64_t skip_ = 0;
  bool tainted_ = false;

  mutable std::vector<uint64_t> sorted_;
  mutable bool sorted_valid_ = false;
};

// ---------------------------------------------------------------------------
// Auditor
// ---------------------------------------------------------------------------

struct AuditConfig {
  /// Master switch for the owning layer's wiring (the types themselves
  /// always work).
  bool enabled = false;
  /// Reservoir capacity; per shard in the pipeline. 4096 gives a ~±1.6%
  /// one-sigma rank CI at the median -- tight enough to audit eps >= 0.01
  /// budgets without false alarms at z = 4.
  size_t reservoir = 4096;
  /// The phi-grid replayed each round.
  std::vector<double> phis = {0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99};
  /// Error budget: observed error above eps * slack (+ guard) is a
  /// violation. 0 = the sketch config's eps (ResolveAuditConfig).
  double eps = 0.0;
  /// Guarantee latitude multiplier; 0 = resolve per algorithm
  /// (ResolveAuditConfig, AuditSlackForAlgorithm). Deterministic summaries
  /// get 1, randomized ones 3 -- the repo's ERROR_SLACK convention.
  double slack = 0.0;
  /// CI guard width in binomial standard deviations.
  double z = 4.0;
  /// Rounds below this many held samples report valid = false (too little
  /// evidence to judge anything).
  uint64_t min_samples = 256;
};

/// One phi probe of one audit round.
struct AuditProbe {
  double phi = 0.0;
  uint64_t quantile = 0;      ///< the sketch's answer
  double observed_err = 0.0;  ///< normalized rank error vs the shadow
  double budget = 0.0;        ///< eps_budget + guard at this phi
  bool violation = false;
};

/// Outcome of one audit round.
struct AuditReport {
  /// False when the round could not judge: shadow below min_samples,
  /// tainted, or empty sketch.
  bool valid = false;
  bool tainted = false;
  uint64_t sketch_count = 0;  ///< elements the audited answers cover
  uint64_t shadow_n = 0;      ///< elements the shadow represents
  uint64_t shadow_k = 0;      ///< samples held
  uint64_t shadow_bytes = 0;
  /// |sketch_count - shadow_n| / max(sketch_count, 1): the coverage gap
  /// folded into every probe's guard.
  double gap_frac = 0.0;
  double eps_budget = 0.0;  ///< resolved eps * slack (guard excluded)
  double max_observed_err = 0.0;
  int violations = 0;  ///< probes over budget this round
  std::vector<AuditProbe> probes;
};

/// Repo-wide guarantee-latitude convention (check_bench_json.py's
/// ERROR_SLACK), by AlgorithmName() spelling: deterministic summaries
/// (GK family, FastQDigest) audit at 1x eps; the randomized/probabilistic
/// ones (MRL99, Random, DCM, DCS, RSS, Post) at 3x. Unknown names get the
/// conservative 3x.
double AuditSlackForAlgorithm(std::string_view algorithm);

/// `config` with its zeros resolved against the audited sketch: eps <= 0
/// takes `sketch_eps`, slack <= 0 takes AuditSlackForAlgorithm(`algorithm`)
/// (an AlgorithmName() spelling).
AuditConfig ResolveAuditConfig(AuditConfig config, double sketch_eps,
                               std::string_view algorithm);

class AccuracyAuditor {
 public:
  explicit AccuracyAuditor(const AuditConfig& config);

  /// Runs one audit round: queries `query(phi)` for each grid phi and
  /// scores it against `shadow`. `sketch_count` is the element count the
  /// answers cover (the coverage-gap guard derives from it). Returns the
  /// round's report (also retained as last()).
  const AuditReport& Audit(const std::function<uint64_t(double)>& query,
                           uint64_t sketch_count,
                           const ReservoirShadow& shadow);

  const AuditReport& last() const { return last_; }
  const AuditConfig& config() const { return config_; }
  uint64_t rounds() const { return rounds_; }
  /// Probes over budget, lifetime total.
  uint64_t violations_total() const { return violations_total_; }
  /// Consecutive most-recent *valid* rounds with at least one violation
  /// (the /healthz "sustained violations" signal; an in-budget valid round
  /// resets it, an invalid round leaves it unchanged).
  uint64_t consecutive_violation_rounds() const {
    return consecutive_violation_rounds_;
  }
  /// Observed error distribution across all probes of all rounds, in
  /// parts-per-million (pow2 histogram, exported as
  /// streamq_audit_observed_err).
  const Histogram& observed_err_ppm() const { return observed_err_ppm_; }

 private:
  AuditConfig config_;
  AuditReport last_;
  Histogram observed_err_ppm_;
  uint64_t rounds_ = 0;
  uint64_t violations_total_ = 0;
  uint64_t consecutive_violation_rounds_ = 0;
};

// --- export helpers (audit_export.cc) --------------------------------------

/// Copies the auditor's state into `registry` under "<prefix>.*":
/// observed_err (histogram, ppm), violations + rounds (counters),
/// shadow_bytes / shadow_samples / coverage gap / unhealthy streak
/// (gauges). Family names under prefix "audit" match the /metrics families
/// documented in README (streamq_audit_observed_err,
/// streamq_audit_violations_total, streamq_audit_shadow_bytes).
void PublishAuditMetrics(const AccuracyAuditor& auditor,
                         MetricsRegistry& registry, const std::string& prefix);

/// Human-readable per-phi table of one report (the CLI `audit` output):
/// header line, one row per probe, verdict line.
std::string FormatAuditTable(const AuditReport& report);

}  // namespace streamq::obs

#endif  // STREAMQ_OBS_AUDIT_H_
