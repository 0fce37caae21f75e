#include "quantile/dyadic_quantile.h"

#include <algorithm>
#include <cmath>
#include <typeinfo>

#include "sketch/count_min.h"
#include "sketch/count_sketch.h"
#include "sketch/dyadic.h"
#include "sketch/exact_counts.h"
#include "sketch/rss_sketch.h"
#include "util/memory.h"
#include "util/serde.h"

namespace streamq {

StreamqStatus DyadicQuantileBase::ApplyUpdate(uint64_t value, int64_t delta) {
  // Values outside the configured universe are rejected, not clamped: a
  // clamp would silently bias the top cell, and an unchecked update would
  // be an out-of-bounds write into an exact-level counter array. Insert and
  // Erase reject identically, so no rejected insertion can leave a stray
  // deletion behind.
  if (log_u_ < 64 && value >= (uint64_t{1} << log_u_)) {
    return StreamqStatus::kOutOfUniverse;
  }
  n_ += delta;
  for (int i = 0; i < log_u_; ++i) {
    levels_[i]->Update(value >> i, delta);
  }
  return StreamqStatus::kOk;
}

size_t DyadicQuantileBase::InsertBatchImpl(const uint64_t* values, size_t n) {
  // Chunked so the scratch stays cache-resident however large the caller's
  // batch is. Within a chunk the accepted values visit the levels in level-
  // major order; the estimators are linear (counter adds commute), so the
  // final state matches the item-wise value-major loop bit-for-bit.
  constexpr size_t kChunk = 4096;
  const bool bounded = log_u_ < 64;
  const uint64_t limit = bounded ? (uint64_t{1} << log_u_) : 0;
  size_t rejected = 0;
  batch_scratch_.reserve(std::min(n, kChunk));
  for (size_t off = 0; off < n; off += kChunk) {
    const size_t m = std::min(kChunk, n - off);
    batch_scratch_.clear();
    for (size_t j = 0; j < m; ++j) {
      const uint64_t v = values[off + j];
      if (bounded && v >= limit) {
        ++rejected;
      } else {
        batch_scratch_.push_back(v);
      }
    }
    if (batch_scratch_.empty()) continue;
    n_ += static_cast<int64_t>(batch_scratch_.size());
    for (int i = 0; i < log_u_; ++i) {
      levels_[i]->UpdateBatch(batch_scratch_.data(), batch_scratch_.size(),
                              +1);
      if (i + 1 < log_u_) {
        for (uint64_t& v : batch_scratch_) v >>= 1;
      }
    }
  }
  return rejected;
}

StreamqStatus DyadicQuantileBase::MergeCompatibility(
    const QuantileSketch& other) const {
  // typeid (not dynamic_cast) so a DCM never absorbs a DCS or RSS sibling
  // through the shared base: their per-level estimators are different
  // sketches even at equal dimensions.
  if (typeid(*this) != typeid(other)) return StreamqStatus::kMergeIncompatible;
  const auto& peer = static_cast<const DyadicQuantileBase&>(other);
  if (peer.log_u_ != log_u_ || peer.width_ != width_ ||
      peer.depth_ != depth_ || peer.seed_ != seed_) {
    return StreamqStatus::kMergeIncompatible;
  }
  // Defense in depth: equal construction parameters imply structurally
  // identical levels, but verify before MergeImpl commits to mutating (an
  // accepted merge must not fail halfway).
  for (int i = 0; i < log_u_; ++i) {
    if (!levels_[i]->CompatibleForMerge(*peer.levels_[i])) {
      return StreamqStatus::kMergeIncompatible;
    }
  }
  return StreamqStatus::kOk;
}

StreamqStatus DyadicQuantileBase::MergeImpl(const QuantileSketch& other) {
  const auto& peer = static_cast<const DyadicQuantileBase&>(other);
  n_ += peer.n_;
  for (int i = 0; i < log_u_; ++i) {
    levels_[i]->MergeFrom(*peer.levels_[i]);
  }
  return StreamqStatus::kOk;
}

double DyadicQuantileBase::CellEstimate(int level, uint64_t index) const {
  if (level >= log_u_) return static_cast<double>(n_);
  return levels_[level]->Estimate(index);
}

bool DyadicQuantileBase::LevelIsExact(int level) const {
  if (level >= log_u_) return true;
  return levels_[level]->IsExact();
}

double DyadicQuantileBase::LevelVariance(int level) const {
  if (level >= log_u_) return 0.0;
  return levels_[level]->VarianceEstimate();
}

int64_t DyadicQuantileBase::EstimateRank(uint64_t value) {
  double rank = 0.0;
  for (const DyadicCell& cell : PrefixDecomposition(value, log_u_)) {
    rank += CellEstimate(cell.level, cell.index);
  }
  return static_cast<int64_t>(std::llround(rank));
}

uint64_t DyadicQuantileBase::QueryImpl(double phi) {
  // Build the answer bit by bit: x stays the largest prefix whose estimated
  // rank is below the target (binary search on [u], as in the paper).
  double target = std::clamp(phi * static_cast<double>(n_), 0.0,
                             static_cast<double>(n_));
  if (target <= 0.0) target = 0.5;  // phi ~ 0: the minimum still has rank 0
  uint64_t x = 0;
  for (int bit = log_u_ - 1; bit >= 0; --bit) {
    const uint64_t candidate = x | (uint64_t{1} << bit);
    double rank = 0.0;
    for (const DyadicCell& cell : PrefixDecomposition(candidate, log_u_)) {
      rank += CellEstimate(cell.level, cell.index);
    }
    if (rank < target) x = candidate;
  }
  return x;
}

std::string DyadicQuantileBase::Serialize() const {
  SerdeWriter w;
  w.U32(static_cast<uint32_t>(log_u_));
  w.U64(width_);
  w.U32(static_cast<uint32_t>(depth_));
  w.U64(seed_);
  w.I64(n_);
  for (const auto& level : levels_) level->SaveCounters(w);
  return FrameSnapshot(snapshot_type(), w.Take());
}

bool DyadicQuantileBase::LoadFrom(SerdeReader& r) {
  // Header (log_u/width/depth/seed) was already consumed by the caller to
  // rebuild the structure; restore the stream count and counters.
  if (!r.I64(&n_)) return false;
  for (auto& level : levels_) {
    if (!level->LoadCounters(r)) return false;
  }
  return r.Done();
}

namespace {
struct DyadicHeader {
  int log_u;
  uint64_t width;
  int depth;
  uint64_t seed;
};

bool ReadDyadicHeader(SerdeReader& r, DyadicHeader* h) {
  uint32_t log_u = 0, depth = 0;
  if (!r.U32(&log_u) || !r.U64(&h->width) || !r.U32(&depth) ||
      !r.U64(&h->seed)) {
    return false;
  }
  if (log_u > 63 || depth == 0 || depth > 64 || h->width == 0) return false;
  h->log_u = static_cast<int>(log_u);
  h->depth = static_cast<int>(depth);
  return true;
}
}  // namespace

size_t DyadicQuantileBase::MemoryBytes() const {
  size_t total = kBytesPerCounter;  // the exact stream count n
  for (const auto& level : levels_) total += level->MemoryBytes();
  return total;
}

namespace {

// Builds per-level estimators, replacing the sketch by exact counters
// whenever the reduced universe is no larger than the sketch's counter
// array.
template <typename Sketch>
void PopulateLevels(std::vector<std::unique_ptr<FrequencyEstimator>>& levels,
                    int log_u, uint64_t width, int depth, uint64_t seed) {
  const uint64_t sketch_counters = width * static_cast<uint64_t>(depth);
  for (int i = 0; i < log_u; ++i) {
    const int reduced_bits = log_u - i;
    const bool small = reduced_bits < 63 &&
                       (uint64_t{1} << reduced_bits) <= sketch_counters;
    if (small) {
      levels[i] = std::make_unique<ExactCounts>(uint64_t{1} << reduced_bits);
    } else {
      levels[i] = std::make_unique<Sketch>(width, depth,
                                           seed * 0x9E3779B97F4A7C15ULL + i);
    }
  }
}

}  // namespace

Dcm::Dcm(double eps, int log_u, int depth, uint64_t seed)
    : DyadicQuantileBase(log_u) {
  const uint64_t width = static_cast<uint64_t>(
      std::ceil(static_cast<double>(log_u) / eps));
  BuildLevels(width, depth, seed);
}

std::unique_ptr<Dcm> Dcm::WithWidth(uint64_t width, int depth, int log_u,
                                    uint64_t seed) {
  std::unique_ptr<Dcm> dcm(new Dcm(log_u));
  dcm->BuildLevels(width, depth, seed);
  return dcm;
}

void Dcm::BuildLevels(uint64_t width, int depth, uint64_t seed) {
  width_ = width;
  depth_ = depth;
  seed_ = seed;
  PopulateLevels<CountMin>(levels_, log_u_, width, depth, seed);
}

std::unique_ptr<Dcm> Dcm::Deserialize(const std::string& bytes) {
  std::string payload;
  if (!UnframeSnapshot(bytes, SnapshotType::kDcm, &payload)) return nullptr;
  SerdeReader r(payload);
  DyadicHeader h;
  if (!ReadDyadicHeader(r, &h)) return nullptr;
  auto dcm = WithWidth(h.width, h.depth, h.log_u, h.seed);
  if (!dcm->LoadFrom(r)) return nullptr;
  return dcm;
}

Dcs::Dcs(double eps, int log_u, int depth, uint64_t seed)
    : DyadicQuantileBase(log_u) {
  const uint64_t width = static_cast<uint64_t>(
      std::ceil(std::sqrt(static_cast<double>(log_u)) / eps));
  BuildLevels(width, depth, seed);
}

std::unique_ptr<Dcs> Dcs::WithWidth(uint64_t width, int depth, int log_u,
                                    uint64_t seed) {
  std::unique_ptr<Dcs> dcs(new Dcs(log_u));
  dcs->BuildLevels(width, depth, seed);
  return dcs;
}

void Dcs::BuildLevels(uint64_t width, int depth, uint64_t seed) {
  width_ = width;
  depth_ = depth;
  seed_ = seed;
  PopulateLevels<CountSketch>(levels_, log_u_, width, depth, seed);
}

std::unique_ptr<Dcs> Dcs::Deserialize(const std::string& bytes) {
  std::string payload;
  if (!UnframeSnapshot(bytes, SnapshotType::kDcs, &payload)) return nullptr;
  SerdeReader r(payload);
  DyadicHeader h;
  if (!ReadDyadicHeader(r, &h)) return nullptr;
  auto dcs = WithWidth(h.width, h.depth, h.log_u, h.seed);
  if (!dcs->LoadFrom(r)) return nullptr;
  return dcs;
}

RssQuantile::RssQuantile(uint64_t width, int depth, int log_u, uint64_t seed)
    : DyadicQuantileBase(log_u) {
  width_ = width;
  depth_ = depth;
  seed_ = seed;
  PopulateLevels<RssSketch>(levels_, log_u_, width, depth, seed);
}

}  // namespace streamq
