// The sampled buffer tree behind the paper's two randomized comparison
// summaries (section 2.2).
//
// With h = max(1, ceil(log2(1/eps))), both keep b = h+1 buffers of one
// capacity. A buffer is filled at the current active level l by keeping one
// uniformly random element out of every block of 2^l consecutive stream
// elements, so each of its elements stands for 2^l inputs: the buffer's
// weight. A filled buffer is sorted, and once no buffer is empty the
// algorithm compacts full buffers into one to free a slot. The estimated
// rank of v sums weight(X) * |{x in X : x < v}| over all buffers X, which
// the queries read as weighted sorted runs (WeightedRunsView).
//
// The two algorithms differ only in what the derived class supplies:
//   static size_t Capacity(double inv_eps, int h)   elements per buffer
//   static constexpr size_t kCountersPerBuffer       space accounting
//   void Compact()                  free a buffer while streaming (every
//                                   buffer full, none being filled)
//   void ReduceOnce(std::vector<Buffer>& pool)
//                                   one merge-time step: fold the full
//                                   buffers of `pool` into fewer
//   SerializeBuffer / DeserializeBuffer
//                                   a buffer's snapshot record, written
//                                   around WriteBuffer / ReadBuffer
// A compaction keeps every buffer's `weight` the number of stream elements
// each of its elements stands for.

#ifndef STREAMQ_QUANTILE_SAMPLED_BUFFER_TREE_H_
#define STREAMQ_QUANTILE_SAMPLED_BUFFER_TREE_H_

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

namespace streamq {

template <typename Derived, typename T, typename Less>
class SampledBufferTree {
 public:
  struct Buffer {
    std::vector<T> data;
    int64_t weight = 1;  // stream elements each stored element stands for
    int level = 0;
    bool full = false;
    bool Empty() const { return data.empty() && !full; }
  };

  /// Optional instrumentation hook (owned by the wrapping QuantileSketch);
  /// never serialized, may stay null.
  void set_metrics(obs::SketchMetrics* metrics) { metrics_ = metrics; }

  void Insert(const T& v) {
    ++n_;
    if (fill_ < 0) AcquireFillBuffer();
    Buffer& buf = buffers_[fill_];
    // One uniform choice per block of 2^level elements (the fill buffer's
    // weight), drawn up front: skipped elements cost no randomness, so the
    // per-element update time *drops* as the sampling rate rises (the
    // paper's Fig. 7a observation).
    if (block_seen_ == 0) {
      block_pick_ = rng_.BelowPow2(static_cast<unsigned>(buf.level));
    }
    if (block_seen_ == block_pick_) block_choice_ = v;
    ++block_seen_;
    if (block_seen_ == static_cast<uint64_t>(buf.weight)) {
      buf.data.push_back(block_choice_);
      block_seen_ = 0;
      if (buf.data.size() == capacity_) CompleteFill(buf);
    }
  }

  /// Inserts values[0..n) in order, bit-identically to calling Insert() on
  /// each (same buffer fills, same PRNG draws), but in O(1) work per whole
  /// sampling block: within a block of 2^level elements only the one picked
  /// element is ever read, so at high levels the amortized per-item cost
  /// approaches a pointer bump -- the batch-mode headline of both summaries.
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
            (n - i) >> lvl, static_cast<uint64_t>(capacity_ - buf.data.size())));
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
        if (buf.data.size() == capacity_) CompleteFill(buf);
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
        if (buf.data.size() == capacity_) CompleteFill(buf);
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
    // Buffers are pre-allocated: b * capacity elements plus the algorithm's
    // per-buffer counters, and the in-progress block sample. Space is
    // constant in n.
    return buffers_.size() * (capacity_ * kBytesPerElement +
                              Derived::kCountersPerBuffer * kBytesPerCounter) +
           kBytesPerElement + 2 * kBytesPerCounter;
  }

  int height() const { return h_; }
  size_t buffer_size() const { return capacity_; }

  /// Snapshot to a byte buffer, including the PRNG state: a reloaded sketch
  /// continues the exact stream-processing sequence of the original.
  void Serialize(SerdeWriter& w) const
    requires std::is_trivially_copyable_v<T>
  {
    w.U32(static_cast<uint32_t>(h_));
    w.U64(capacity_);
    w.U64(n_);
    w.U32(static_cast<uint32_t>(fill_));
    w.U64(block_seen_);
    w.U64(block_pick_);
    w.Pod(block_choice_);
    w.Pod(rng_.GetState());
    w.U64(buffers_.size());
    for (const Buffer& b : buffers_) derived().SerializeBuffer(w, b);
  }

  /// Restores a snapshot; returns false on corrupt input, including a
  /// structure the summary could never reach.
  bool Deserialize(SerdeReader& r)
    requires std::is_trivially_copyable_v<T>
  {
    uint32_t h = 0, fill = 0;
    uint64_t capacity = 0, count = 0;
    Xoshiro256::State state{};
    if (!r.U32(&h) || !r.U64(&capacity) || !r.U64(&n_) || !r.U32(&fill) ||
        !r.U64(&block_seen_) || !r.U64(&block_pick_) ||
        !r.Pod(&block_choice_) || !r.Pod(&state) || !r.U64(&count)) {
      return false;
    }
    // h+1 buffers of at least the constructor's floor.
    if (h < 1 || count > 4096 || count != uint64_t{h} + 1 ||
        capacity < kMinCapacity) {
      return false;
    }
    h_ = static_cast<int>(h);
    capacity_ = capacity;
    fill_ = static_cast<int32_t>(fill);
    rng_.SetState(state);
    buffers_.assign(count, Buffer{});
    // The ranks and the compactions sum weights, and weights times
    // buffer lengths, in int64: all of them together stay within 2^62.
    uint64_t total = 0;
    for (Buffer& b : buffers_) {
      if (!derived().DeserializeBuffer(r, b)) return false;
      const uint64_t weight = static_cast<uint64_t>(b.weight);
      const uint64_t length = std::max<uint64_t>(1, b.data.size());
      if (weight > (kMaxTotalWeight - total) / length) return false;
      total += weight * length;
    }
    // No buffer being filled and no block in progress, or a fill buffer
    // that is not full, whose weight is its block size, with the block's
    // position and pick inside it.
    if (fill_ == -1) return block_seen_ == 0;
    if (fill_ < 0 || fill_ >= static_cast<int>(buffers_.size())) return false;
    const Buffer& buf = buffers_[fill_];
    const uint64_t block = uint64_t{1} << buf.level;
    return !buf.full && static_cast<uint64_t>(buf.weight) == block &&
           block_seen_ < block && block_pick_ < block;
  }

  /// Folds `other` (built with the same eps, hence the same h and capacity)
  /// into this summary: pools both buffer sets, then reduces the pool until
  /// it leaves a slot free for filling, which keeps the guarantee on the
  /// union stream (the mergeable-summary argument of Agarwal et al.). The
  /// other summary's in-progress sampling block (at most one element
  /// standing for up to 2^l inputs) is re-inserted by repetition, which
  /// keeps counts exact at a rank error of at most 2^l = O(eps n).
  void Merge(const Derived& other) {
    const SampledBufferTree& o = other;
    assert(o.capacity_ == capacity_ && o.h_ == h_);
    std::vector<Buffer> pool;
    for (Buffer& b : buffers_) {
      if (!b.data.empty()) pool.push_back(std::move(b));
      b = Buffer{};
    }
    for (const Buffer& b : o.buffers_) {
      if (!b.data.empty()) pool.push_back(b);
    }
    n_ += o.n_;
    fill_ = -1;
    block_seen_ = 0;

    // The partially filled buffer breaks the full-buffer flow; top it up
    // by declaring it full at its current size, sorted like every full
    // buffer already is. Its weight stays the block weight of its level.
    for (Buffer& b : pool) {
      if (!b.full) SortSample<T, Less>(b.data, scratch_);
      b.full = true;
    }
    // Reduce to at most b-1 buffers so an empty slot remains for filling.
    while (pool.size() + 1 > buffers_.size()) derived().ReduceOnce(pool);
    for (size_t i = 0; i < pool.size(); ++i) buffers_[i] = std::move(pool[i]);

    // Re-insert the other summary's in-progress block by repetition (only
    // meaningful once that block has committed to its sample).
    if (o.fill_ >= 0 && o.block_seen_ > o.block_pick_) {
      n_ -= o.block_seen_;  // Insert() re-counts them
      for (uint64_t i = 0; i < o.block_seen_; ++i) Insert(o.block_choice_);
    }
  }

 protected:
  // The constructors never build a buffer smaller than this.
  static constexpr size_t kMinCapacity = 8;
  // A loaded snapshot's bound on the weight its buffers carry in all.
  static constexpr uint64_t kMaxTotalWeight = uint64_t{1} << 62;

  SampledBufferTree(double eps, uint64_t seed) : rng_(seed) {
    const double inv_eps = 1.0 / eps;
    h_ = std::max(1, CeilLog2(static_cast<uint64_t>(std::ceil(inv_eps))));
    capacity_ = std::max(kMinCapacity, Derived::Capacity(inv_eps, h_));
    buffers_.resize(static_cast<size_t>(h_) + 1);
    for (Buffer& b : buffers_) b.data.reserve(capacity_);
    scratch_.reserve(2 * capacity_);
  }

  // A buffer's level, fullness and elements: the part of its snapshot
  // record both algorithms write.
  static void WriteBuffer(SerdeWriter& w, const Buffer& b) {
    w.U32(static_cast<uint32_t>(b.level));
    w.U32(b.full ? 1 : 0);
    w.PodVector(b.data);
  }

  // Reads what WriteBuffer wrote, refusing a level whose weight 2^level
  // would not fit the int64 weight, and more elements than a buffer holds.
  bool ReadBuffer(SerdeReader& r, Buffer& b) const {
    uint32_t level = 0, full = 0;
    if (!r.U32(&level) || !r.U32(&full) || !r.PodVector(&b.data) ||
        level > 62 || b.data.size() > capacity_) {
      return false;
    }
    b.level = static_cast<int>(level);
    b.full = full != 0;
    // Merge and the queries read every full buffer as a sorted run.
    return !b.full || std::is_sorted(b.data.begin(), b.data.end(), Less());
  }

  int h_ = 1;
  size_t capacity_ = kMinCapacity;
  uint64_t n_ = 0;
  int fill_ = -1;  // index of the buffer being filled, -1 if none
  uint64_t block_seen_ = 0;
  uint64_t block_pick_ = 0;  // position within the block chosen as sample
  T block_choice_{};
  std::vector<Buffer> buffers_;
  // Working memory, not summary state (MemoryBytes counts the summary
  // only): the fill-time radix sort's scratch, which the compactions may
  // use too -- it is idle while they run. Reserved once at 2 * capacity.
  std::vector<T> scratch_;
  Xoshiro256 rng_;
  obs::SketchMetrics* metrics_ = nullptr;

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  // l = max(0, ceil(log2(n / (capacity * 2^(h-1))))).
  int ActiveLevel() const {
    const double denom = static_cast<double>(capacity_) * std::pow(2.0, h_ - 1);
    const double ratio = static_cast<double>(n_) / denom;
    if (ratio <= 1.0) return 0;
    return CeilLog2(static_cast<uint64_t>(std::ceil(ratio)));
  }

  void AcquireFillBuffer() {
    for (size_t i = 0; i < buffers_.size(); ++i) {
      Buffer& b = buffers_[i];
      if (!b.Empty()) continue;
      fill_ = static_cast<int>(i);
      b.level = ActiveLevel();
      b.weight = int64_t{1} << b.level;
      b.data.clear();
      block_seen_ = 0;
      return;
    }
    assert(false && "no empty buffer available");
  }

  // Fill buffer reached capacity: sort it, mark it full, and compact if
  // every buffer is now occupied. Shared by Insert and both InsertBatch
  // paths so the three sites cannot drift. The fill-time sort dominates the
  // batched ingest profile, hence the radix sort for uint64 keys.
  void CompleteFill(Buffer& buf) {
    SortSample<T, Less>(buf.data, scratch_);
    buf.full = true;
    fill_ = -1;
    if (std::any_of(buffers_.begin(), buffers_.end(),
                    [](const Buffer& b) { return b.Empty(); })) {
      return;
    }
    STREAMQ_COMPACTION_EVENT(metrics_, capacity_);
    STREAMQ_COMPACTION_TIMER(metrics_);
    derived().Compact();
  }

  // All stored elements as weighted runs: every buffer as it stands (the
  // full ones sorted, the partially filled one not), and the in-progress
  // block sample.
  WeightedRunsView<T, Less> Runs() const {
    WeightedRunsView<T, Less> runs;
    for (const Buffer& b : buffers_) runs.Add(b.data, b.weight, /*sorted=*/b.full);
    if (fill_ >= 0 && block_seen_ > block_pick_) {
      // The in-progress block has committed to its sample; it stands for
      // the block_seen_ elements consumed so far.
      runs.Add(std::span<const T>(&block_choice_, 1),
               static_cast<int64_t>(block_seen_), /*sorted=*/true);
    }
    return runs;
  }
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_SAMPLED_BUFFER_TREE_H_
