// GKTheory: the Greenwald-Khanna summary as analysed in their paper, with
// the periodic banded COMPRESS procedure, giving the O((1/eps) log(eps n))
// worst-case space bound.
//
// A new element is inserted as (v, 1, floor(2 eps n) - 1) (Delta = 0 at the
// extremes). Every floor(1/(2 eps)) insertions, COMPRESS sweeps the summary
// right-to-left and merges tuple i into tuple i+1 whenever
//   band(Delta_i) <= band(Delta_{i+1})  and
//   g_i + g_{i+1} + Delta_{i+1} <= floor(2 eps n).
//
// Banding groups tuples into geometrically growing age classes: Delta close
// to p = floor(2 eps n) means recently inserted (low band), Delta near 0
// means old (high band). We compute band(Delta) = floor(log2(p - Delta)) + 1
// (band 0 for Delta = p), which realises the same geometric age classes as
// the exact GK band boundaries; the (p mod 2^alpha) offsets in the original
// definition only matter for the constant in the worst-case proof.

#ifndef STREAMQ_QUANTILE_GK_THEORY_H_
#define STREAMQ_QUANTILE_GK_THEORY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/sketch_metrics.h"
#include "quantile/gk_tuple_store.h"
#include "util/bits.h"

namespace streamq {

template <typename T, typename Less = std::less<T>>
class GkTheoryImpl {
 public:
  explicit GkTheoryImpl(double eps)
      : eps_(eps),
        compress_period_(std::max<uint64_t>(
            1, static_cast<uint64_t>(1.0 / (2.0 * eps)))) {}

  void Insert(const T& v) {
    ++n_;
    const int64_t threshold = Threshold();
    auto succ = store_.Successor(v);
    int64_t delta = 0;
    if (succ != store_.End() && succ != store_.Begin()) {
      delta = std::max<int64_t>(0, threshold - 1);
    }
    store_.InsertBefore(succ, v, /*g=*/1, delta);
    if (n_ % compress_period_ == 0) {
      STREAMQ_COMPACTION_EVENT(metrics_, store_.Size());
      STREAMQ_COMPACTION_TIMER(metrics_);
      Compress();
    }
  }

  /// Inserts values[0..n) in order: the item loop, as the tuple-list
  /// insert has no batch shortcut.
  void InsertBatch(const T* values, size_t n) {
    for (size_t i = 0; i < n; ++i) Insert(values[i]);
  }

  /// Optional instrumentation hook (owned by the wrapping QuantileSketch);
  /// never serialized, may stay null.
  void set_metrics(obs::SketchMetrics* metrics) { metrics_ = metrics; }

  T Query(double phi) const { return store_.Query(phi, n_); }

  std::vector<T> QueryMany(const std::vector<double>& phis) const {
    return store_.QueryMany(phis, n_);
  }

  int64_t EstimateRank(const T& v) const { return store_.EstimateRank(v); }

  uint64_t Count() const { return n_; }
  size_t TupleCount() const { return store_.Size(); }
  size_t MemoryBytes() const { return store_.MemoryBytes(); }

  /// Snapshot to a byte buffer (trivially copyable element types only).
  void Serialize(SerdeWriter& w) const
    requires std::is_trivially_copyable_v<T>
  {
    w.F64(eps_);
    w.U64(compress_period_);
    w.U64(n_);
    store_.Serialize(w);
  }

  /// Restores a snapshot; returns false on corrupt input.
  bool Deserialize(SerdeReader& r)
    requires std::is_trivially_copyable_v<T>
  {
    return r.F64(&eps_) && r.U64(&compress_period_) && r.U64(&n_) &&
           store_.Deserialize(r) && compress_period_ > 0;
  }

  template <typename Fn>
  void ForEachTuple(Fn&& fn) const {
    for (auto it = store_.Begin(); it != store_.End(); ++it) {
      const auto& node = store_.NodeOf(it->id);
      fn(it->v, node.g, node.delta);
    }
  }

 private:
  int64_t Threshold() const {
    return static_cast<int64_t>(2.0 * eps_ * static_cast<double>(n_));
  }

  static int Band(int64_t delta, int64_t p) {
    const int64_t diff = p - delta;
    if (diff <= 0) return 0;
    return FloorLog2(static_cast<uint64_t>(diff)) + 1;
  }

  void Compress() {
    if (store_.Size() < 2) return;
    const int64_t p = Threshold();
    // Snapshot the order, then sweep right-to-left merging into the current
    // surviving successor.
    std::vector<typename GkTupleStore<T, Less>::Iterator> order;
    order.reserve(store_.Size());
    for (auto it = store_.Begin(); it != store_.End(); ++it) order.push_back(it);
    size_t succ = order.size() - 1;
    for (size_t i = order.size() - 1; i-- > 0;) {
      const auto& node = store_.NodeOf(order[i]->id);
      const auto& snode = store_.NodeOf(order[succ]->id);
      if (Band(node.delta, p) <= Band(snode.delta, p) &&
          node.g + snode.g + snode.delta <= p) {
        store_.RemoveIntoSuccessor(order[i]);
      } else {
        succ = i;
      }
    }
  }

  double eps_;
  uint64_t compress_period_;
  uint64_t n_ = 0;
  GkTupleStore<T, Less> store_;
  obs::SketchMetrics* metrics_ = nullptr;
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_GK_THEORY_H_
