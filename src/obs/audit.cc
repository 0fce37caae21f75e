#include "obs/audit.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/serde.h"

namespace streamq::obs {

namespace {

/// NextDouble can return 0; log(0) would arm an infinite skip.
constexpr double kTinyUniform = 1e-18;

double ClampedUniform(Xoshiro256& rng) {
  return std::max(rng.NextDouble(), kTinyUniform);
}

}  // namespace

ReservoirShadow::ReservoirShadow(size_t capacity, uint64_t seed)
    : capacity_(std::max<size_t>(capacity, 1)), seed_(seed), rng_(seed) {
  sample_.reserve(capacity_);
  sorted_.reserve(capacity_);
}

void ReservoirShadow::ArmSkip() {
  // Vitter's Algorithm L: W is the running max-order-statistic weight; the
  // geometric skip is how many elements certainly miss the reservoir
  // before the next replacement.
  w_ *= std::exp(std::log(ClampedUniform(rng_)) /
                 static_cast<double>(capacity_));
  const double s =
      std::floor(std::log(ClampedUniform(rng_)) / std::log1p(-w_));
  skip_ = (s >= 9e18 || !(s >= 0.0)) ? UINT64_MAX : static_cast<uint64_t>(s);
}

void ReservoirShadow::ObserveSlow(uint64_t value) {
  sorted_valid_ = false;
  if (sample_.size() < capacity_) {
    sample_.push_back(value);
    ++stream_n_;
    if (sample_.size() == capacity_) ArmSkip();
    return;
  }
  // skip_ hit zero: this element replaces a uniform slot, then the next
  // skip is drawn.
  sample_[rng_.Below(capacity_)] = value;
  ++stream_n_;
  ArmSkip();
}

void ReservoirShadow::ObserveBatch(const uint64_t* values, size_t n) {
  ObserveSpan(n, [values](size_t i) { return values[i]; });
}

size_t ReservoirShadow::MemoryBytes() const {
  // Two reserved capacity_-sized arrays (sample + sort cache) plus the
  // fixed state; what streamq_audit_shadow_bytes reports.
  return sizeof(*this) + 2 * capacity_ * sizeof(uint64_t);
}

const std::vector<uint64_t>& ReservoirShadow::SortedSample() const {
  if (!sorted_valid_) {
    sorted_ = sample_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

void ReservoirShadow::SampleRankFractions(uint64_t value, double* lo,
                                          double* hi) const {
  const std::vector<uint64_t>& sorted = SortedSample();
  if (sorted.empty()) {
    *lo = *hi = 0.0;
    return;
  }
  const double k = static_cast<double>(sorted.size());
  const auto below =
      std::lower_bound(sorted.begin(), sorted.end(), value) - sorted.begin();
  const auto at_or_below =
      std::upper_bound(sorted.begin(), sorted.end(), value) - sorted.begin();
  *lo = static_cast<double>(below) / k;
  *hi = static_cast<double>(at_or_below) / k;
}

uint64_t ReservoirShadow::SampleQuantile(double phi) const {
  const std::vector<uint64_t>& sorted = SortedSample();
  if (sorted.empty()) return 0;
  const double k = static_cast<double>(sorted.size());
  // The paper's rank convention: the element of rank ceil(phi * k).
  size_t rank = static_cast<size_t>(std::ceil(phi * k));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::unique_ptr<ReservoirShadow> ReservoirShadow::Merged(
    const std::vector<const ReservoirShadow*>& parts, size_t capacity,
    uint64_t seed) {
  if (parts.empty()) return nullptr;
  auto out = std::make_unique<ReservoirShadow>(capacity, seed);

  // One pool per part: a consumable copy of its sample plus the virtual
  // element count it represents.
  struct Pool {
    std::vector<uint64_t> items;
    uint64_t remaining = 0;
  };
  std::vector<Pool> pools;
  pools.reserve(parts.size());
  uint64_t total = 0;
  uint64_t union_n = 0;
  for (const ReservoirShadow* part : parts) {
    if (part == nullptr) continue;
    if (part->tainted_) out->tainted_ = true;
    union_n += part->stream_n_;
    if (part->sample_.empty()) continue;
    pools.push_back(Pool{part->sample_, part->stream_n_});
    total += part->stream_n_;
  }

  // Hypergeometric weighted draw: each output slot picks a source pool
  // with probability proportional to its remaining virtual count, then a
  // uniform not-yet-taken sample from it. Because each input is an
  // exchangeable uniform sample of its stream, the result is an exact
  // uniform sample of the union.
  Xoshiro256 rng(seed);
  const uint64_t draws = std::min<uint64_t>(out->capacity_, total);
  for (uint64_t d = 0; d < draws && total > 0; ++d) {
    uint64_t r = rng.Below(total);
    size_t j = 0;
    while (j < pools.size() && r >= pools[j].remaining) {
      r -= pools[j].remaining;
      ++j;
    }
    Pool& pool = pools[j];
    if (pool.items.empty()) {
      // Undersized input (capacity smaller than this merge's draw count):
      // the pool's unsampled remainder is unreachable; drop its weight.
      total -= pool.remaining;
      pool.remaining = 0;
      --d;  // the draw did not produce an output
      continue;
    }
    const size_t idx = static_cast<size_t>(rng.Below(pool.items.size()));
    out->sample_.push_back(pool.items[idx]);
    pool.items[idx] = pool.items.back();
    pool.items.pop_back();
    --pool.remaining;
    --total;
  }
  out->stream_n_ = union_n;
  // A merged shadow is an audit scratch, queried rather than fed. Arm the
  // skip anyway so accidental Observe calls behave like a freshly filled
  // reservoir instead of replacing on every element.
  if (out->sample_.size() == out->capacity_) out->ArmSkip();
  out->sorted_valid_ = false;
  return out;
}

std::unique_ptr<ReservoirShadow> ReservoirShadow::Clone() const {
  auto out = std::make_unique<ReservoirShadow>(capacity_, seed_);
  out->stream_n_ = stream_n_;
  out->sample_ = sample_;
  out->rng_ = rng_;
  out->w_ = w_;
  out->skip_ = skip_;
  out->tainted_ = tainted_;
  return out;
}

std::string ReservoirShadow::Snapshot() const {
  SerdeWriter w;
  w.U64(capacity_);
  w.U64(seed_);
  w.U64(stream_n_);
  w.PodVector(sample_);
  w.Pod(rng_.GetState());
  w.F64(w_);
  w.U64(skip_);
  w.U32(tainted_ ? 1u : 0u);
  return FrameSnapshot(SnapshotType::kAuditShadow, w.buffer());
}

std::unique_ptr<ReservoirShadow> ReservoirShadow::Restore(
    const std::string& frame) {
  std::string payload;
  if (!UnframeSnapshot(frame, SnapshotType::kAuditShadow, &payload)) {
    return nullptr;
  }
  SerdeReader r(payload);
  uint64_t capacity = 0, seed = 0, stream_n = 0, skip = 0;
  std::vector<uint64_t> sample;
  Xoshiro256::State rng_state;
  double w = 0.0;
  uint32_t flags = 0;
  if (!r.U64(&capacity) || !r.U64(&seed) || !r.U64(&stream_n) ||
      !r.PodVector(&sample) || !r.Pod(&rng_state) || !r.F64(&w) ||
      !r.U64(&skip) || !r.U32(&flags) || !r.Done()) {
    return nullptr;
  }
  // Structural consistency: the sample must be exactly the reservoir a
  // stream of stream_n elements leaves behind, and w must be a valid
  // acceptance weight. PodVector already bounded the allocation.
  if (capacity == 0 || sample.size() > capacity ||
      sample.size() != std::min<uint64_t>(stream_n, capacity) ||
      !(w > 0.0) || w > 1.0 || (flags & ~1u) != 0) {
    return nullptr;
  }
  auto out = std::make_unique<ReservoirShadow>(static_cast<size_t>(capacity),
                                               seed);
  out->stream_n_ = stream_n;
  out->sample_ = std::move(sample);
  out->rng_.SetState(rng_state);
  out->w_ = w;
  out->skip_ = skip;
  out->tainted_ = (flags & 1u) != 0;
  return out;
}

// ---------------------------------------------------------------------------
// Auditor
// ---------------------------------------------------------------------------

double AuditSlackForAlgorithm(std::string_view algorithm) {
  // Mirror of ERROR_SLACK in scripts/check_bench_json.py, which its gate
  // table applies to every cell's observed error.
  if (algorithm == "GKTheory" || algorithm == "GKAdaptive" ||
      algorithm == "GKArray" || algorithm == "FastQDigest") {
    return 1.0;
  }
  return 3.0;  // randomized / probabilistic / unknown: the repo's latitude
}

AuditConfig ResolveAuditConfig(AuditConfig config, double sketch_eps,
                               std::string_view algorithm) {
  if (config.eps <= 0.0) config.eps = sketch_eps;
  if (config.slack <= 0.0) config.slack = AuditSlackForAlgorithm(algorithm);
  return config;
}

AccuracyAuditor::AccuracyAuditor(const AuditConfig& config)
    : config_(config) {
  if (config_.reservoir == 0) config_.reservoir = 1;
  if (config_.phis.empty()) {
    config_.phis = {0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99};
  }
}

const AuditReport& AccuracyAuditor::Audit(
    const std::function<uint64_t(double)>& query, uint64_t sketch_count,
    const ReservoirShadow& shadow) {
  AuditReport r;
  r.sketch_count = sketch_count;
  r.shadow_n = shadow.stream_n();
  r.shadow_k = shadow.size();
  r.shadow_bytes = shadow.MemoryBytes();
  r.tainted = shadow.tainted();
  const uint64_t base = std::max<uint64_t>(
      std::max(sketch_count, r.shadow_n), 1);
  const uint64_t gap_units = sketch_count >= r.shadow_n
                                 ? sketch_count - r.shadow_n
                                 : r.shadow_n - sketch_count;
  r.gap_frac = static_cast<double>(gap_units) / static_cast<double>(base);
  const double slack = config_.slack > 0.0 ? config_.slack : 1.0;
  r.eps_budget = config_.eps * slack;
  r.valid = !r.tainted && sketch_count > 0 &&
            r.shadow_k >= config_.min_samples;

  const double k = static_cast<double>(std::max<uint64_t>(r.shadow_k, 1));
  r.probes.reserve(config_.phis.size());
  for (const double phi : config_.phis) {
    AuditProbe probe;
    probe.phi = phi;
    probe.quantile = query(phi);
    double lo = 0.0, hi = 0.0;
    shadow.SampleRankFractions(probe.quantile, &lo, &hi);
    probe.observed_err =
        phi < lo ? lo - phi : (phi > hi ? phi - hi : 0.0);
    const double ci = config_.z * std::sqrt(phi * (1.0 - phi) / k);
    probe.budget = r.eps_budget + ci + 1.0 / k + r.gap_frac;
    probe.violation = r.valid && probe.observed_err > probe.budget;
    if (r.valid) {
      observed_err_ppm_.Record(
          static_cast<uint64_t>(probe.observed_err * 1e6));
      r.max_observed_err = std::max(r.max_observed_err, probe.observed_err);
      if (probe.violation) ++r.violations;
    }
    r.probes.push_back(probe);
  }

  ++rounds_;
  violations_total_ += static_cast<uint64_t>(r.violations);
  if (r.valid) {
    consecutive_violation_rounds_ =
        r.violations > 0 ? consecutive_violation_rounds_ + 1 : 0;
  }
  last_ = std::move(r);
  return last_;
}

}  // namespace streamq::obs
