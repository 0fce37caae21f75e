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
//
// The buffers, their sampling, the queries, Merge and the snapshot live in
// the shared SampledBufferTree (sampled_buffer_tree.h); this file holds what
// is Random's own: the buffer size and the odd/even merge.

#ifndef STREAMQ_QUANTILE_RANDOM_IMPL_H_
#define STREAMQ_QUANTILE_RANDOM_IMPL_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "quantile/sampled_buffer_tree.h"
#include "util/serde.h"
#include "util/simd.h"

namespace streamq {

template <typename T, typename Less = std::less<T>>
class RandomSketchImpl
    : public SampledBufferTree<RandomSketchImpl<T, Less>, T, Less> {
  using Base = SampledBufferTree<RandomSketchImpl<T, Less>, T, Less>;
  using typename Base::Buffer;

 public:
  RandomSketchImpl(double eps, uint64_t seed) : Base(eps, seed) {
    scratch_lift_.reserve(capacity_);
  }

 private:
  friend Base;
  using Base::buffers_;
  using Base::capacity_;
  using Base::rng_;
  using Base::scratch_;

  static size_t Capacity(double inv_eps, int h) {
    return static_cast<size_t>(
        std::ceil(inv_eps * std::sqrt(static_cast<double>(h))));
  }
  // A buffer's level and fullness; its weight is 2^level.
  static constexpr size_t kCountersPerBuffer = 2;

  // The weight follows from the level, so it stays off the wire.
  void SerializeBuffer(SerdeWriter& w, const Buffer& b) const {
    Base::WriteBuffer(w, b);
  }
  bool DeserializeBuffer(SerdeReader& r, Buffer& b) {
    if (!this->ReadBuffer(r, b)) return false;
    b.weight = int64_t{1} << b.level;
    return true;
  }

  // Merges two full buffers, freeing one slot.
  void Compact() {
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
    if (buffers_[ia].level > buffers_[ib].level) std::swap(ia, ib);
    Combine(buffers_[ia], buffers_[ib]);
  }

  // Merge-time: combines the two lowest-level buffers of the pool.
  void ReduceOnce(std::vector<Buffer>& pool) {
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
    scratch_.resize(lo_n + b.data.size());
    std::merge(lo, lo + lo_n, b.data.begin(), b.data.end(), scratch_.begin(),
               Less());
    const size_t start = rng_.NextBool() ? 1 : 0;
    const size_t count =
        scratch_.size() > start ? (scratch_.size() - start + 1) / 2 : 0;
    b.data.resize(count);
    if constexpr (std::is_same_v<T, uint64_t>) {
      simd::DecimateStride(scratch_.data(), scratch_.size(), start, 2,
                           b.data.data(), count);
    } else {
      for (size_t i = 0; i < count; ++i) b.data[i] = scratch_[start + 2 * i];
    }
    b.level += 1;
    b.weight = int64_t{1} << b.level;
    b.full = true;
    a.data.clear();
    a.full = false;
    a.level = 0;
    a.weight = 1;
  }

  // The promoted subsequence of Combine's lower buffer (working memory,
  // reserved once like the shared scratch).
  std::vector<T> scratch_lift_;
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_RANDOM_IMPL_H_
