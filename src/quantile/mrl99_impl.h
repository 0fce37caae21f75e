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
//
// The buffers, their sampling, the queries, Merge and the snapshot live in
// the shared SampledBufferTree (sampled_buffer_tree.h); this file holds what
// is MRL99's own: the buffer size, the stored weights and COLLAPSE.

#ifndef STREAMQ_QUANTILE_MRL99_IMPL_H_
#define STREAMQ_QUANTILE_MRL99_IMPL_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "obs/sketch_metrics.h"
#include "quantile/sampled_buffer_tree.h"
#include "quantile/weighted_sample.h"
#include "util/radix_sort.h"
#include "util/serde.h"
#include "util/simd.h"

namespace streamq {

template <typename T, typename Less = std::less<T>>
class Mrl99Impl : public SampledBufferTree<Mrl99Impl<T, Less>, T, Less> {
  using Base = SampledBufferTree<Mrl99Impl<T, Less>, T, Less>;
  using typename Base::Buffer;

 public:
  Mrl99Impl(double eps, uint64_t seed) : Base(eps, seed) {
    scratch_pool2_.reserve(2 * capacity_);
  }

 private:
  friend Base;
  using Base::buffers_;
  using Base::capacity_;
  using Base::metrics_;
  using Base::rng_;
  using Base::scratch_;

  static size_t Capacity(double inv_eps, int h) {
    return static_cast<size_t>(std::ceil(0.5 * inv_eps * h));
  }
  // A buffer's level, fullness and weight.
  static constexpr size_t kCountersPerBuffer = 3;

  // A collapsed buffer's weight is the sum of its inputs', so the snapshot
  // stores it, ahead of the level.
  void SerializeBuffer(SerdeWriter& w, const Buffer& b) const {
    w.I64(b.weight);
    Base::WriteBuffer(w, b);
  }
  bool DeserializeBuffer(SerdeReader& r, Buffer& b) {
    return r.I64(&b.weight) && b.weight > 0 && this->ReadBuffer(r, b);
  }

  // COLLAPSE while streaming: every buffer is full.
  void Compact() {
    std::vector<int> chosen;
    const int out_level = SelectCollapseGroup(buffers_, &chosen);
    CollapseGroup(buffers_, chosen, out_level);
  }

  // Merge-time: one COLLAPSE pass over the lowest-level group of the pool
  // (the same evenly spaced weighted selection as the streaming path).
  void ReduceOnce(std::vector<Buffer>& pool) {
    STREAMQ_COMPACTION_EVENT(metrics_, capacity_);
    std::vector<int> chosen;
    const int out_level = SelectCollapseGroup(pool, &chosen);
    CollapseGroup(pool, chosen, out_level);
    // CollapseGroup empties every chosen buffer but the first; drop them.
    pool.erase(std::remove_if(pool.begin(), pool.end(),
                              [](const Buffer& b) { return b.Empty(); }),
               pool.end());
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
          scratch_.resize(d0.size() + d1.size());
          std::merge(d0.begin(), d0.end(), d1.begin(), d1.end(),
                     scratch_.begin(), Less());
        } else {
          scratch_.clear();
          for (int idx : chosen) {
            const Buffer& b = bufs[idx];
            scratch_.insert(scratch_.end(), b.data.begin(), b.data.end());
          }
          scratch_pool2_.resize(scratch_.size());
          RadixSortU64(scratch_.data(), scratch_.size(),
                       scratch_pool2_.data());
        }
      } else {
        scratch_.clear();
        for (int idx : chosen) {
          const Buffer& b = bufs[idx];
          scratch_.insert(scratch_.end(), b.data.begin(), b.data.end());
        }
        std::sort(scratch_.begin(), scratch_.end(), Less());
      }
      const int64_t offset =
          static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(w)));
      const size_t first = static_cast<size_t>(offset / we);
      const size_t stride = static_cast<size_t>(w / we);  // = chosen.size()
      size_t count = 0;
      if (first < scratch_.size()) {
        count = (scratch_.size() - first + stride - 1) / stride;
        if (count > capacity_) count = capacity_;
      }
      out.data.resize(count);
      if constexpr (std::is_same_v<T, uint64_t>) {
        simd::DecimateStride(scratch_.data(), scratch_.size(), first, stride,
                             out.data.data(), count);
      } else {
        for (size_t i = 0; i < count; ++i) {
          out.data[i] = scratch_[first + i * stride];
        }
      }
    } else {
      std::vector<T> kept;
      kept.reserve(capacity_);
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
        while (next_pick < pos + e.weight && kept.size() < capacity_) {
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
      b.data.reserve(capacity_);
      b.full = false;
      b.weight = 1;
      b.level = 0;
    }
  }

  // COLLAPSE's second pool (the merge ping-pong target of the radix sort;
  // working memory, reserved once like the shared scratch).
  std::vector<T> scratch_pool2_;
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_MRL99_IMPL_H_
