// MRL99: the randomized quantile summary of Manku, Rajagopalan and Lindsay
// (SIGMOD'99), as evaluated by the paper (section 1.2.1 / 2.2).
//
// The algorithm keeps b buffers of k elements, each carrying an integer
// weight. NEW fills an empty buffer with k elements sampled from the stream
// (one uniform choice per block of 2^l elements at the current active level
// l, weight 2^l), exactly as in Random. COLLAPSE fires when every buffer is
// full: all buffers at the lowest level are merged into one buffer whose
// weight W is the sum of the input weights. In the weighted-expanded sorted
// sequence of the inputs, the output keeps the k elements at positions
// offset + j*W (offset uniform in [0, W)), i.e. evenly spaced selection with
// a random start -- MRL99's key difference from Random's per-pair coin flip.
// The output buffer sits one level above the lowest input level.
//
// Parameters: the original paper picks (b, k, h) by solving a small
// optimisation problem to minimise b*k subject to its coverage constraint;
// following its O((1/eps) log^2(1/eps)) space shape we use b = h+1 buffers
// with h = ceil(log2(1/eps)) and k = ceil((1/(2 eps)) * log2(1/eps)).

#ifndef STREAMQ_QUANTILE_MRL99_IMPL_H_
#define STREAMQ_QUANTILE_MRL99_IMPL_H_

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
#include "util/radix_sort.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/simd.h"

namespace streamq {

template <typename T, typename Less = std::less<T>>
class Mrl99Impl {
 public:
  Mrl99Impl(double eps, uint64_t seed) : rng_(seed) {
    const double inv_eps = 1.0 / eps;
    h_ = std::max(1, CeilLog2(static_cast<uint64_t>(std::ceil(inv_eps))));
    k_ = std::max<size_t>(8, static_cast<size_t>(
                                 std::ceil(0.5 * inv_eps * std::max(1, h_))));
    buffers_.resize(static_cast<size_t>(h_) + 1);
    for (Buffer& b : buffers_) b.data.reserve(k_);
    scratch_pool_.reserve(2 * k_);
    scratch_pool2_.reserve(2 * k_);
  }

  void Insert(const T& v) {
    ++n_;
    if (fill_ < 0) AcquireFillBuffer();
    Buffer& buf = buffers_[fill_];
    // One uniform choice per weight-sized block, drawn up front (see
    // random_impl.h). The fill buffer always has weight 1 << level
    // (AcquireFillBuffer), so the pow2 draw is exact.
    if (block_seen_ == 0) {
      assert(buf.weight == int64_t{1} << buf.level);
      block_pick_ = rng_.BelowPow2(static_cast<unsigned>(buf.level));
    }
    if (block_seen_ == block_pick_) block_choice_ = v;
    ++block_seen_;
    if (block_seen_ == static_cast<uint64_t>(buf.weight)) {
      buf.data.push_back(block_choice_);
      block_seen_ = 0;
      if (buf.data.size() == k_) CompleteFill(buf);
    }
  }

  /// Inserts values[0..n) in order, bit-identically to the item-wise loop
  /// (same buffer fills, same PRNG draws) in O(1) work per weighted block:
  /// only the picked element of each block is read, as in
  /// RandomSketchImpl::InsertBatch.
  void InsertBatch(const T* values, size_t n) {
    size_t i = 0;
    while (i < n) {
      if (fill_ < 0) {
        // Mirror the item-wise ordering: AcquireFillBuffer runs after the
        // ++n_ of its triggering element (ActiveLevel reads n_).
        ++n_;
        AcquireFillBuffer();
        --n_;
      }
      Buffer& buf = buffers_[fill_];
      const uint64_t block = static_cast<uint64_t>(buf.weight);
      if (block_seen_ == 0 && n - i >= block) {
        // Whole-block fast loop, as in RandomSketchImpl::InsertBatch: one
        // register-resident PRNG draw and one element load per complete
        // block, with the draw order matching the item-wise loop exactly.
        const unsigned lvl = static_cast<unsigned>(buf.level);
        const size_t nb = static_cast<size_t>(std::min<uint64_t>(
            (n - i) >> lvl, static_cast<uint64_t>(k_ - buf.data.size())));
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
        if (buf.data.size() == k_) CompleteFill(buf);
        continue;  // partial trailing block falls through to the slow path
      }
      if (block_seen_ == 0) {
        block_pick_ = rng_.BelowPow2(static_cast<unsigned>(buf.level));
      }
      const uint64_t take = std::min<uint64_t>(block - block_seen_,
                                               static_cast<uint64_t>(n - i));
      // One pick test per span; unsigned wrap rejects already-passed picks.
      const uint64_t rel = block_pick_ - block_seen_;
      if (rel < take) block_choice_ = values[i + rel];
      block_seen_ += take;
      n_ += take;
      i += static_cast<size_t>(take);
      if (block_seen_ == block) {
        buf.data.push_back(block_choice_);
        block_seen_ = 0;
        if (buf.data.size() == k_) CompleteFill(buf);
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
    return buffers_.size() * (k_ * kBytesPerElement + 3 * kBytesPerCounter) +
           kBytesPerElement + 2 * kBytesPerCounter;
  }

  size_t buffer_size() const { return k_; }
  int height() const { return h_; }

  /// Optional instrumentation hook (owned by the wrapping QuantileSketch);
  /// never serialized, may stay null.
  void set_metrics(obs::SketchMetrics* metrics) { metrics_ = metrics; }

  /// Snapshot to a byte buffer, including the PRNG state (see
  /// random_impl.h for the format conventions).
  void Serialize(SerdeWriter& w) const
    requires std::is_trivially_copyable_v<T>
  {
    w.U32(static_cast<uint32_t>(h_));
    w.U64(k_);
    w.U64(n_);
    w.U32(static_cast<uint32_t>(fill_));
    w.U64(block_seen_);
    w.U64(block_pick_);
    w.Pod(block_choice_);
    w.Pod(rng_.GetState());
    w.U64(buffers_.size());
    for (const Buffer& b : buffers_) {
      w.I64(b.weight);
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
    uint64_t k = 0;
    Xoshiro256::State state{};
    if (!r.U32(&h) || !r.U64(&k) || !r.U64(&n_) || !r.U32(&fill) ||
        !r.U64(&block_seen_) || !r.U64(&block_pick_) ||
        !r.Pod(&block_choice_) || !r.Pod(&state)) {
      return false;
    }
    h_ = static_cast<int>(h);
    k_ = k;
    fill_ = static_cast<int32_t>(fill);
    rng_.SetState(state);
    uint64_t count = 0;
    if (!r.U64(&count) || count > 4096) return false;
    buffers_.assign(count, Buffer{});
    for (Buffer& b : buffers_) {
      uint32_t level = 0, full = 0;
      if (!r.I64(&b.weight) || !r.U32(&level) || !r.U32(&full) ||
          !r.PodVector(&b.data) || b.weight <= 0) {
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

  /// Folds `other` (built with the same eps, hence the same h and k) into
  /// this summary: the buffer sets of both summaries are pooled level-wise
  /// and COLLAPSE passes (the same evenly-spaced weighted selection as the
  /// streaming path) run until the pooled set respects the buffer budget,
  /// which preserves MRL99's coverage guarantee on the union stream (the
  /// mergeable-summary argument of Agarwal et al.). The other summary's
  /// in-progress sampling block (one element standing for up to 2^l inputs)
  /// is re-inserted by repetition, keeping counts exact at a rank error of
  /// at most its weight = O(eps n), as in RandomSketchImpl::Merge.
  void Merge(const Mrl99Impl& other) {
    assert(other.k_ == k_ && other.h_ == h_);
    // Pool every non-empty buffer from both summaries. The partially
    // filled buffer is sorted, like every full buffer already is, and
    // declared full at its current size; its weight stays the per-element
    // block weight of its level.
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
    for (Buffer& b : pool) {
      if (!b.full) SortSample<T, Less>(b.data, scratch_pool_);
      b.full = true;
    }
    // Collapse lowest-level groups until an empty slot remains for filling.
    while (pool.size() + 1 > buffers_.size()) {
      STREAMQ_COMPACTION_EVENT(metrics_, k_);
      std::vector<int> chosen;
      const int out_level = SelectCollapseGroup(pool, &chosen);
      CollapseGroup(pool, chosen, out_level);
      // CollapseGroup empties every chosen buffer but the first; drop them.
      pool.erase(std::remove_if(pool.begin(), pool.end(),
                                [](const Buffer& b) { return b.Empty(); }),
                 pool.end());
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
    int64_t weight = 1;
    int level = 0;
    bool full = false;
    bool Empty() const { return data.empty() && !full; }
  };

  int ActiveLevel() const {
    const double denom = static_cast<double>(k_) * std::pow(2.0, h_ - 1);
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

  // Fill buffer reached k_ elements: sort it, mark it full, and collapse if
  // every buffer is now occupied. Shared by Insert and both InsertBatch
  // paths so the three sites cannot drift. The COLLAPSE scratch doubles as
  // radix scratch -- it is idle here.
  void CompleteFill(Buffer& buf) {
    SortSample<T, Less>(buf.data, scratch_pool_);
    buf.full = true;
    fill_ = -1;
    if (!AnyEmpty()) Collapse();
  }

  void AcquireFillBuffer() {
    for (size_t i = 0; i < buffers_.size(); ++i) {
      if (buffers_[i].Empty()) {
        fill_ = static_cast<int>(i);
        buffers_[i].level = ActiveLevel();
        buffers_[i].weight = int64_t{1} << buffers_[i].level;
        buffers_[i].data.clear();
        block_seen_ = 0;
        return;
      }
    }
    assert(false && "no empty buffer available");
  }

  // Gathers the indices of all full buffers of `bufs` at the minimum level;
  // if only one exists, widens to the two lowest levels so a collapse is
  // always possible. Returns the output level of the collapsed buffer.
  static int SelectCollapseGroup(const std::vector<Buffer>& bufs,
                                 std::vector<int>* chosen) {
    int min_level = INT32_MAX;
    for (const Buffer& b : bufs) {
      if (b.full) min_level = std::min(min_level, b.level);
    }
    for (size_t i = 0; i < bufs.size(); ++i) {
      if (bufs[i].full && bufs[i].level == min_level) {
        chosen->push_back(static_cast<int>(i));
      }
    }
    int out_level = min_level + 1;
    if (chosen->size() < 2) {
      int second = INT32_MAX;
      for (const Buffer& b : bufs) {
        if (b.full && b.level > min_level) second = std::min(second, b.level);
      }
      for (size_t i = 0; i < bufs.size(); ++i) {
        if (bufs[i].full && bufs[i].level == second) {
          chosen->push_back(static_cast<int>(i));
        }
      }
      out_level = second + 1;
    }
    assert(chosen->size() >= 2);
    return out_level;
  }

  // COLLAPSE of the chosen buffers: weighted k-way merge with evenly spaced
  // selection and a uniform random start. The collapsed buffer replaces
  // bufs[chosen[0]] at `out_level`; the other chosen buffers become empty.
  void CollapseGroup(std::vector<Buffer>& bufs, const std::vector<int>& chosen,
                     int out_level) {
    int64_t total_weight = 0;
    bool equal_weights = true;
    const int64_t we = bufs[chosen[0]].weight;  // per-element weight
    for (int idx : chosen) {
      total_weight += bufs[idx].weight;
      equal_weights &= bufs[idx].weight == we;
    }
    const int64_t w = total_weight;
    Buffer& out = bufs[chosen[0]];
    if (equal_weights) {
      // All chosen buffers sit at one level (the streaming COLLAPSE always
      // does; only a widened merge-time group mixes weights). Every element
      // then spans exactly `we` weighted positions, so the evenly spaced
      // picks at offset + j*w land on sorted-value indices
      // offset/we + j*(w/we): a plain strided selection, no weighted walk.
      // Allocation-free while streaming: the pooled elements land in the
      // pre-reserved scratch and the kept subsequence is decimated straight
      // into the output buffer. Same elements, same PRNG draws as the
      // temporary-vector version it replaced.
      // Pool the chosen buffers in ascending order. A streaming COLLAPSE
      // often takes *every* buffer at the lowest level (7-8 of them), so
      // the branchy comparison work has to go: a two-buffer group is a
      // single linear merge of its sorted inputs, and a wider group
      // radix-sorts the concatenation (linear passes, data-independent).
      // Either way the pooled sequence is the identical ascending multiset
      // the historical sort produced. The generic-T path keeps that sort.
      if constexpr (std::is_same_v<T, uint64_t> &&
                    std::is_same_v<Less, std::less<uint64_t>>) {
        if (chosen.size() == 2) {
          const std::vector<T>& d0 = bufs[chosen[0]].data;
          const std::vector<T>& d1 = bufs[chosen[1]].data;
          scratch_pool_.resize(d0.size() + d1.size());
          std::merge(d0.begin(), d0.end(), d1.begin(), d1.end(),
                     scratch_pool_.begin(), Less());
        } else {
          scratch_pool_.clear();
          for (int idx : chosen) {
            const Buffer& b = bufs[idx];
            scratch_pool_.insert(scratch_pool_.end(), b.data.begin(),
                                 b.data.end());
          }
          scratch_pool2_.resize(scratch_pool_.size());
          RadixSortU64(scratch_pool_.data(), scratch_pool_.size(),
                       scratch_pool2_.data());
        }
      } else {
        scratch_pool_.clear();
        for (int idx : chosen) {
          const Buffer& b = bufs[idx];
          scratch_pool_.insert(scratch_pool_.end(), b.data.begin(),
                               b.data.end());
        }
        std::sort(scratch_pool_.begin(), scratch_pool_.end(), Less());
      }
      const int64_t offset =
          static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(w)));
      const size_t first = static_cast<size_t>(offset / we);
      const size_t stride = static_cast<size_t>(w / we);  // = chosen.size()
      size_t count = 0;
      if (first < scratch_pool_.size()) {
        count = (scratch_pool_.size() - first + stride - 1) / stride;
        if (count > k_) count = k_;
      }
      out.data.resize(count);
      if constexpr (std::is_same_v<T, uint64_t>) {
        simd::DecimateStride(scratch_pool_.data(), scratch_pool_.size(),
                             first, stride, out.data.data(), count);
      } else {
        for (size_t i = 0; i < count; ++i) {
          out.data[i] = scratch_pool_[first + i * stride];
        }
      }
    } else {
      std::vector<T> kept;
      kept.reserve(k_);
      // Value-order the weighted pool. Tie order between equal values from
      // different buffers does not matter: a group of equal values occupies
      // one contiguous weighted interval whose start depends only on the
      // weight of strictly smaller values, and every pick inside it appends
      // that same value -- any value-ordered arrangement yields the
      // identical kept sequence. uint64 keys therefore use the keyed radix
      // sort (linear, data-independent); other types the comparison sort.
      size_t total = 0;
      for (int idx : chosen) total += bufs[idx].data.size();
      std::vector<WeightedElement<T>> pool;
      pool.reserve(total);
      for (int idx : chosen) {
        const Buffer& b = bufs[idx];
        for (const T& v : b.data) pool.push_back({v, b.weight});
      }
      if constexpr (std::is_same_v<T, uint64_t> &&
                    std::is_same_v<Less, std::less<uint64_t>>) {
        std::vector<WeightedElement<T>> tmp(pool.size());
        RadixSortByKeyU64(pool.data(), pool.size(), tmp.data(),
                          [](const WeightedElement<T>& e) { return e.value; });
      } else {
        Less less;
        std::sort(pool.begin(), pool.end(),
                  [&](const WeightedElement<T>& a,
                      const WeightedElement<T>& b) {
                    return less(a.value, b.value);
                  });
      }
      const int64_t offset =
          static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(w)));
      int64_t pos = 0;  // weighted position of the current element start
      int64_t next_pick = offset;
      for (const WeightedElement<T>& e : pool) {
        while (next_pick < pos + e.weight &&
               kept.size() < k_) {
          kept.push_back(e.value);
          next_pick += w;
        }
        pos += e.weight;
      }
      out.data = std::move(kept);
    }

    out.weight = w;
    out.level = out_level;
    out.full = true;
    for (size_t c = 1; c < chosen.size(); ++c) {
      Buffer& b = bufs[chosen[c]];
      b.data.clear();
      b.data.reserve(k_);
      b.full = false;
      b.weight = 1;
      b.level = 0;
    }
  }

  void Collapse() {
    STREAMQ_COMPACTION_EVENT(metrics_, k_);
    STREAMQ_COMPACTION_TIMER(metrics_);
    std::vector<int> chosen;
    const int out_level = SelectCollapseGroup(buffers_, &chosen);
    CollapseGroup(buffers_, chosen, out_level);
  }

  // All stored elements as weighted runs, as in RandomSketchImpl::Runs.
  WeightedRunsView<T, Less> Runs() const {
    WeightedRunsView<T, Less> runs;
    for (const Buffer& b : buffers_) {
      runs.Add(b.data, b.weight, /*sorted=*/b.full);
    }
    if (fill_ >= 0 && block_seen_ > block_pick_) {
      runs.Add(std::span<const T>(&block_choice_, 1),
               static_cast<int64_t>(block_seen_), /*sorted=*/true);
    }
    return runs;
  }

  int h_ = 1;
  size_t k_ = 8;
  uint64_t n_ = 0;
  int fill_ = -1;
  uint64_t block_seen_ = 0;
  uint64_t block_pick_ = 0;
  T block_choice_{};
  std::vector<Buffer> buffers_;
  // COLLAPSE scratch (working memory, not summary state -- MemoryBytes
  // counts the summary only, as it did when these were per-collapse
  // temporaries); reserved for the common two-buffer group, grows if a
  // merge-time group is wider. The second vector is the merge ping-pong
  // target; the first doubles as the fill-sort radix scratch.
  std::vector<T> scratch_pool_;
  std::vector<T> scratch_pool2_;
  mutable Xoshiro256 rng_;
  obs::SketchMetrics* metrics_ = nullptr;
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_MRL99_IMPL_H_
