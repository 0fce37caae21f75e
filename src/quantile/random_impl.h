// "Random": the paper's simplified randomized quantile summary (section 2.2),
// a streamlined MRL99 inspired by the mergeable summaries of Agarwal et al.
//
// With h = log2(1/eps), it keeps b = h+1 buffers of s = (1/eps) sqrt(h)
// elements each. A buffer is filled at the current active level l by keeping
// one uniformly random element out of every block of 2^l consecutive stream
// elements. When every buffer is full, the two buffers at the lowest level
// are merged: their elements are merged in sorted order and either the odd
// or the even positions are kept (fair coin), producing one buffer one level
// higher. The estimated rank of v sums 2^l(X) * |{x in X : x < v}| over all
// buffers. Space O((1/eps) log^1.5(1/eps)); all quantiles correct with
// constant probability.
//
// When all full buffers sit at pairwise distinct levels (possible once the
// active level has advanced past stale low-level buffers), we merge the two
// lowest-level buffers: the lower one is first promoted to the higher level
// by keeping a random stride-2^(lb-la) subsequence of its sorted elements,
// which preserves unbiasedness; the standard odd/even merge then applies.

#ifndef STREAMQ_QUANTILE_RANDOM_IMPL_H_
#define STREAMQ_QUANTILE_RANDOM_IMPL_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/sketch_metrics.h"
#include "quantile/weighted_sample.h"
#include "util/bits.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/simd.h"

namespace streamq {

template <typename T, typename Less = std::less<T>>
class RandomSketchImpl {
 public:
  RandomSketchImpl(double eps, uint64_t seed) : rng_(seed) {
    const double inv_eps = 1.0 / eps;
    h_ = std::max(1, CeilLog2(static_cast<uint64_t>(std::ceil(inv_eps))));
    const double root = std::sqrt(static_cast<double>(h_));
    s_ = std::max<size_t>(8, static_cast<size_t>(std::ceil(inv_eps * root)));
    buffers_.resize(static_cast<size_t>(h_) + 1);
    for (Buffer& b : buffers_) b.data.reserve(s_);
    scratch_lift_.reserve(s_);
    scratch_merge_.reserve(2 * s_);
  }

  /// Optional instrumentation hook (owned by the wrapping QuantileSketch);
  /// never serialized, may stay null.
  void set_metrics(obs::SketchMetrics* metrics) { metrics_ = metrics; }

  void Insert(const T& v) {
    ++n_;
    if (fill_ < 0) AcquireFillBuffer();
    Buffer& buf = buffers_[fill_];
    // One uniform choice per block of 2^level elements, drawn up front:
    // skipped elements cost no randomness, so the per-element update time
    // *drops* as the sampling rate rises (the paper's Fig. 7a observation).
    if (block_seen_ == 0) {
      block_pick_ = rng_.BelowPow2(static_cast<unsigned>(buf.level));
    }
    if (block_seen_ == block_pick_) block_choice_ = v;
    ++block_seen_;
    if (block_seen_ == (uint64_t{1} << buf.level)) {
      buf.data.push_back(block_choice_);
      block_seen_ = 0;
      if (buf.data.size() == s_) CompleteFill(buf);
    }
  }

  /// Inserts values[0..n) in order, bit-identically to calling Insert() on
  /// each (same buffer fills, same PRNG draws), but in O(1) work per whole
  /// sampling block: within a block of 2^level elements only the one picked
  /// element is ever read, so at high levels the amortized per-item cost
  /// approaches a pointer bump -- the batch-mode headline of this summary.
  void InsertBatch(const T* values, size_t n) {
    size_t i = 0;
    while (i < n) {
      if (fill_ < 0) {
        // Item-wise, AcquireFillBuffer runs after the ++n_ of its
        // triggering element; mirror that so ActiveLevel() sees the same
        // count (the element itself is re-counted with its span below).
        ++n_;
        AcquireFillBuffer();
        --n_;
      }
      Buffer& buf = buffers_[fill_];
      const uint64_t block = uint64_t{1} << buf.level;
      if (block_seen_ == 0 && n - i >= block) {
        // Whole-block fast loop: every complete sampling block the span
        // covers costs one register-resident PRNG draw and one element
        // load -- no span-splitting state is touched (block_seen_ stays 0),
        // and the draws, picks, and buffer fills land exactly as item-wise.
        const unsigned lvl = static_cast<unsigned>(buf.level);
        const size_t nb = static_cast<size_t>(std::min<uint64_t>(
            (n - i) >> lvl, static_cast<uint64_t>(s_ - buf.data.size())));
        const size_t old_size = buf.data.size();
        buf.data.resize(old_size + nb);
        T* out = buf.data.data() + old_size;
        Xoshiro256 rng = rng_;  // keep the generator state in registers
        uint64_t pick = 0;
        for (size_t j = 0; j < nb; ++j) {
          pick = rng.BelowPow2(lvl);
          out[j] = values[i + (j << lvl) + pick];
        }
        rng_ = rng;
        block_pick_ = pick;
        block_choice_ = out[nb - 1];
        i += nb << lvl;
        n_ += nb << lvl;
        if (buf.data.size() == s_) CompleteFill(buf);
        continue;  // partial trailing block falls through to the slow path
      }
      if (block_seen_ == 0) {
        block_pick_ = rng_.BelowPow2(static_cast<unsigned>(buf.level));
      }
      const uint64_t take = std::min<uint64_t>(block - block_seen_,
                                               static_cast<uint64_t>(n - i));
      // One pick test per span instead of per element; unsigned wrap
      // rejects picks already consumed in an earlier span of this block.
      const uint64_t rel = block_pick_ - block_seen_;
      if (rel < take) block_choice_ = values[i + rel];
      block_seen_ += take;
      n_ += take;
      i += static_cast<size_t>(take);
      if (block_seen_ == block) {
        buf.data.push_back(block_choice_);
        block_seen_ = 0;
        if (buf.data.size() == s_) CompleteFill(buf);
      }
    }
  }

  T Query(double phi) const {
    WeightedRunsView<T, Less> runs = Runs();
    if (runs.Empty()) return T{};  // empty summary: nothing to report
    runs.SortRuns();
    return runs.Quantile(phi * static_cast<double>(n_));
  }

  std::vector<T> QueryMany(const std::vector<double>& phis) const {
    WeightedRunsView<T, Less> runs = Runs();
    std::vector<T> out;
    if (runs.Empty()) {
      out.assign(phis.size(), T{});
      return out;
    }
    runs.SortRuns();
    out.reserve(phis.size());
    for (double phi : phis) out.push_back(runs.Quantile(phi * static_cast<double>(n_)));
    return out;
  }

  int64_t EstimateRank(const T& v) const { return Runs().EstimateRank(v); }

  uint64_t Count() const { return n_; }

  size_t MemoryBytes() const {
    // Buffers are pre-allocated: b * s elements plus per-buffer level
    // counters and the in-progress block sample. Space is constant in n.
    return buffers_.size() * (s_ * kBytesPerElement + 2 * kBytesPerCounter) +
           kBytesPerElement + 2 * kBytesPerCounter;
  }

  int height() const { return h_; }
  size_t buffer_size() const { return s_; }

  /// Snapshot to a byte buffer, including the PRNG state: a reloaded sketch
  /// continues the exact stream-processing sequence of the original.
  void Serialize(SerdeWriter& w) const
    requires std::is_trivially_copyable_v<T>
  {
    w.U32(static_cast<uint32_t>(h_));
    w.U64(s_);
    w.U64(n_);
    w.U32(static_cast<uint32_t>(fill_));
    w.U64(block_seen_);
    w.U64(block_pick_);
    w.Pod(block_choice_);
    w.Pod(rng_.GetState());
    w.U64(buffers_.size());
    for (const Buffer& b : buffers_) {
      w.U32(static_cast<uint32_t>(b.level));
      w.U32(b.full ? 1 : 0);
      w.PodVector(b.data);
    }
  }

  /// Restores a snapshot; returns false on corrupt input.
  bool Deserialize(SerdeReader& r)
    requires std::is_trivially_copyable_v<T>
  {
    uint32_t h = 0, fill = 0;
    uint64_t s = 0;
    Xoshiro256::State state{};
    if (!r.U32(&h) || !r.U64(&s) || !r.U64(&n_) || !r.U32(&fill) ||
        !r.U64(&block_seen_) || !r.U64(&block_pick_) ||
        !r.Pod(&block_choice_) || !r.Pod(&state)) {
      return false;
    }
    s_ = s;
    h_ = static_cast<int>(h);
    fill_ = static_cast<int32_t>(fill);
    rng_.SetState(state);
    uint64_t count = 0;
    if (!r.U64(&count) || count > 4096) return false;
    buffers_.assign(count, Buffer{});
    for (Buffer& b : buffers_) {
      uint32_t level = 0, full = 0;
      if (!r.U32(&level) || !r.U32(&full) || !r.PodVector(&b.data)) {
        return false;
      }
      b.level = static_cast<int>(level);
      b.full = full != 0;
      // Merge and the queries read every full buffer as a sorted run.
      if (b.full && !std::is_sorted(b.data.begin(), b.data.end(), Less())) {
        return false;
      }
    }
    return fill_ < static_cast<int>(buffers_.size());
  }

  /// Folds `other` (built with the same eps, hence the same h and s) into
  /// this summary. Random inherits the mergeable-summary property of
  /// Agarwal et al. that inspired it: pools both buffer sets and re-merges
  /// lowest-level pairs until the buffer budget is respected. The other
  /// summary's in-progress sampling block (at most one element standing for
  /// up to 2^l inputs) is re-inserted by repetition, which keeps counts
  /// exact at a rank error of at most 2^l = O(eps n).
  void Merge(const RandomSketchImpl& other) {
    assert(other.s_ == s_ && other.h_ == h_);
    // Pool every non-empty buffer from both summaries.
    std::vector<Buffer> pool;
    for (Buffer& b : buffers_) {
      if (!b.data.empty()) pool.push_back(std::move(b));
      b = Buffer{};
    }
    for (const Buffer& b : other.buffers_) {
      if (!b.data.empty()) pool.push_back(b);
    }
    n_ += other.n_;
    fill_ = -1;
    block_seen_ = 0;

    // The partially filled buffer breaks the full-merge flow; top it up by
    // declaring it full at its current size, sorted like every full buffer
    // already is.
    for (Buffer& b : pool) {
      if (!b.full) SortSample<T, Less>(b.data, scratch_merge_);
      b.full = true;
    }
    // Reduce to at most b-1 buffers so an empty slot remains for filling.
    while (pool.size() + 1 > buffers_.size()) {
      size_t ia = 0, ib = 1;
      for (size_t i = 0; i < pool.size(); ++i) {
        if (pool[i].level < pool[ia].level) {
          ib = ia;
          ia = i;
        } else if (i != ia && pool[i].level < pool[ib].level) {
          ib = i;
        }
      }
      if (pool[ia].level > pool[ib].level) std::swap(ia, ib);
      Combine(pool[ia], pool[ib]);
      pool.erase(pool.begin() + ia);
    }
    for (size_t i = 0; i < pool.size(); ++i) buffers_[i] = std::move(pool[i]);

    // Re-insert the other summary's in-progress block by repetition (only
    // meaningful once that block has committed to its sample).
    if (other.fill_ >= 0 && other.block_seen_ > other.block_pick_) {
      n_ -= other.block_seen_;  // Insert() re-counts them
      for (uint64_t i = 0; i < other.block_seen_; ++i) {
        Insert(other.block_choice_);
      }
    }
  }

 private:
  struct Buffer {
    std::vector<T> data;
    int level = 0;
    bool full = false;
    bool Empty() const { return data.empty() && !full; }
  };

  int ActiveLevel() const {
    // l = max(0, ceil(log2(n / (s * 2^(h-1))))).
    const double denom = static_cast<double>(s_) * std::pow(2.0, h_ - 1);
    const double ratio = static_cast<double>(n_) / denom;
    if (ratio <= 1.0) return 0;
    return CeilLog2(static_cast<uint64_t>(std::ceil(ratio)));
  }

  bool AnyEmpty() const {
    for (const Buffer& b : buffers_) {
      if (b.Empty()) return true;
    }
    return false;
  }

  // Fill buffer reached s_ elements: sort it, mark it full, and merge if
  // every buffer is now occupied. Shared by Insert and both InsertBatch
  // paths so the three sites cannot drift. The fill-time sort dominates the
  // batched ingest profile, hence the radix sort for uint64 keys; the merge
  // scratch doubles as radix scratch -- it is idle here.
  void CompleteFill(Buffer& buf) {
    SortSample<T, Less>(buf.data, scratch_merge_);
    buf.full = true;
    fill_ = -1;
    if (!AnyEmpty()) MergeOnce();
  }

  void AcquireFillBuffer() {
    for (size_t i = 0; i < buffers_.size(); ++i) {
      if (buffers_[i].Empty()) {
        fill_ = static_cast<int>(i);
        buffers_[i].level = ActiveLevel();
        buffers_[i].data.clear();
        block_seen_ = 0;
        return;
      }
    }
    assert(false && "no empty buffer available");
  }

  // Merges two full buffers, freeing one slot.
  void MergeOnce() {
    STREAMQ_COMPACTION_EVENT(metrics_, s_);
    STREAMQ_COMPACTION_TIMER(metrics_);
    // Prefer the lowest level holding >= 2 full buffers.
    int best_level = -1;
    for (const Buffer& b : buffers_) {
      if (!b.full) continue;
      int count = 0;
      for (const Buffer& o : buffers_) {
        if (o.full && o.level == b.level) ++count;
      }
      if (count >= 2 && (best_level < 0 || b.level < best_level)) {
        best_level = b.level;
      }
    }
    int ia = -1, ib = -1;
    if (best_level >= 0) {
      for (size_t i = 0; i < buffers_.size(); ++i) {
        if (!buffers_[i].full || buffers_[i].level != best_level) continue;
        if (ia < 0) {
          ia = static_cast<int>(i);
        } else {
          ib = static_cast<int>(i);
          break;
        }
      }
    } else {
      // All levels distinct: take the two lowest.
      for (size_t i = 0; i < buffers_.size(); ++i) {
        if (!buffers_[i].full) continue;
        if (ia < 0 || buffers_[i].level < buffers_[ia].level) {
          ib = ia;
          ia = static_cast<int>(i);
        } else if (ib < 0 || buffers_[i].level < buffers_[ib].level) {
          ib = static_cast<int>(i);
        }
      }
    }
    assert(ia >= 0 && ib >= 0);
    Buffer& a = buffers_[ia];
    Buffer& b = buffers_[ib];
    if (a.level > b.level) std::swap(ia, ib);
    Combine(buffers_[ia], buffers_[ib]);
  }

  // Combines a (level la) into b (level lb >= la); result replaces b at
  // level lb + 1, a becomes empty. Allocation-free once the scratch
  // vectors (promoted subsequence + merged pair, reserved up front) have
  // reached their steady capacity: both buffers keep their storage, and
  // the kept subsequence is decimated straight into b. Same elements,
  // same PRNG draws as the textbook three-vector version it replaced.
  void Combine(Buffer& a, Buffer& b) {
    assert(a.level <= b.level);
    const int gap = b.level - a.level;
    const T* lo = a.data.data();
    size_t lo_n = a.data.size();
    if (gap > 0) {
      // Promote a to b's level: keep a random stride-2^gap subsequence.
      const uint64_t stride = uint64_t{1} << gap;
      const uint64_t offset = rng_.BelowPow2(static_cast<unsigned>(gap));
      scratch_lift_.clear();
      if (offset < a.data.size()) {
        if constexpr (std::is_same_v<T, uint64_t>) {
          // Vectorized strided copy (util/simd.h); same elements kept.
          scratch_lift_.resize(static_cast<size_t>(
              (a.data.size() - offset + stride - 1) / stride));
          simd::DecimateStride(a.data.data(), a.data.size(),
                               static_cast<size_t>(offset),
                               static_cast<size_t>(stride),
                               scratch_lift_.data(), scratch_lift_.size());
        } else {
          for (uint64_t i = offset; i < a.data.size(); i += stride) {
            scratch_lift_.push_back(a.data[i]);
          }
        }
      }
      lo = scratch_lift_.data();
      lo_n = scratch_lift_.size();
    }
    // Sorted merge, then keep odd or even positions with equal probability.
    scratch_merge_.resize(lo_n + b.data.size());
    std::merge(lo, lo + lo_n, b.data.begin(), b.data.end(),
               scratch_merge_.begin(), Less());
    const size_t start = rng_.NextBool() ? 1 : 0;
    const size_t count = scratch_merge_.size() > start
                             ? (scratch_merge_.size() - start + 1) / 2
                             : 0;
    b.data.resize(count);
    if constexpr (std::is_same_v<T, uint64_t>) {
      simd::DecimateStride(scratch_merge_.data(), scratch_merge_.size(),
                           start, 2, b.data.data(), count);
    } else {
      for (size_t i = 0; i < count; ++i) {
        b.data[i] = scratch_merge_[start + 2 * i];
      }
    }
    b.level += 1;
    b.full = true;
    a.data.clear();
    a.full = false;
    a.level = 0;
  }

  // All stored elements as weighted runs: every buffer as it stands (the
  // full ones sorted, the partially filled one not), and the in-progress
  // block sample.
  WeightedRunsView<T, Less> Runs() const {
    WeightedRunsView<T, Less> runs;
    for (const Buffer& b : buffers_) {
      const int64_t w = int64_t{1} << b.level;
      runs.Add(b.data, w, /*sorted=*/b.full);
    }
    if (fill_ >= 0 && block_seen_ > block_pick_) {
      // The in-progress block has committed to its sample; it stands for
      // the block_seen_ elements consumed so far.
      runs.Add(std::span<const T>(&block_choice_, 1),
               static_cast<int64_t>(block_seen_), /*sorted=*/true);
    }
    return runs;
  }

  int h_ = 1;
  size_t s_ = 8;
  uint64_t n_ = 0;
  int fill_ = -1;  // index of the buffer being filled, -1 if none
  uint64_t block_seen_ = 0;
  uint64_t block_pick_ = 0;  // position within the block chosen as sample
  T block_choice_{};
  std::vector<Buffer> buffers_;
  // Compaction scratch (working memory, not summary state -- MemoryBytes
  // counts the summary only, as it did when these were per-merge
  // temporaries); reserved once so Combine never allocates while streaming.
  std::vector<T> scratch_lift_;
  std::vector<T> scratch_merge_;
  mutable Xoshiro256 rng_;
  obs::SketchMetrics* metrics_ = nullptr;
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_RANDOM_IMPL_H_
