// GKAdaptive: the variant of the Greenwald-Khanna summary the original paper
// implemented (and the paper under reproduction re-evaluates).
//
// Differences from the analysed algorithm (section 2.1.1 of the paper):
//   1. A new element v is inserted with Delta = g_i + Delta_i - 1, where
//      (v_i, g_i, Delta_i) is its successor tuple (Delta = 0 when v is a new
//      maximum).
//   2. COMPRESS is never run. Instead, after each insertion the summary tries
//      to remove one "removable" tuple: tuple i is removable when
//      g_i + g_{i+1} + Delta_{i+1} <= floor(2 eps n). The newly inserted
//      tuple is checked first; otherwise the globally cheapest candidate is
//      taken from a min-heap keyed by g_i + g_{i+1} + Delta_{i+1}.
//
// The heap is lazy: keys change when a neighbour is inserted or removed, so
// each change pushes a fresh (key, id, version) entry and stale entries are
// discarded on pop. The heap is rebuilt when stale entries dominate.
//
// This class is a template over the element type: GKAdaptive is
// comparison-based and works for any strict-weak-ordered T.

#ifndef STREAMQ_QUANTILE_GK_ADAPTIVE_H_
#define STREAMQ_QUANTILE_GK_ADAPTIVE_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "obs/sketch_metrics.h"
#include "quantile/gk_tuple_store.h"
#include "util/memory.h"

namespace streamq {

template <typename T, typename Less = std::less<T>>
class GkAdaptiveImpl {
 public:
  explicit GkAdaptiveImpl(double eps) : eps_(eps) {}

  void Insert(const T& v) {
    ++n_;
    const int64_t threshold = Threshold();
    auto succ = store_.Successor(v);
    int64_t delta = 0;
    if (succ != store_.End()) {
      const auto& snode = store_.NodeOf(succ->id);
      delta = snode.g + snode.delta - 1;
    }
    auto it = store_.InsertBefore(succ, v, /*g=*/1, delta);

    // The successor's removability key involves the tuple before it, which
    // is now the new tuple; the new tuple's key involves succ. Refresh both.
    PushKey(it);
    if (it != store_.Begin()) PushKey(std::prev(it));

    // Paper: "first check if the tuple itself is removable, and remove it
    // immediately if so. Otherwise check the top tuple in the heap."
    bool removed_self = false;
    if (succ != store_.End()) {
      const auto& self = store_.NodeOf(it->id);
      const auto& snode = store_.NodeOf(succ->id);
      if (self.g + snode.g + snode.delta <= threshold) {
        Remove(it);
        removed_self = true;
      }
    }
    if (!removed_self) TryRemoveCheapest(threshold);
    MaybeCompactHeap();
  }

  /// Inserts values[0..n) in order: the item loop, as the tuple-list
  /// insert has no batch shortcut.
  void InsertBatch(const T* values, size_t n) {
    for (size_t i = 0; i < n; ++i) Insert(values[i]);
  }

  T Query(double phi) const { return store_.Query(phi, n_); }

  std::vector<T> QueryMany(const std::vector<double>& phis) const {
    return store_.QueryMany(phis, n_);
  }

  int64_t EstimateRank(const T& v) const { return store_.EstimateRank(v); }

  uint64_t Count() const { return n_; }
  size_t TupleCount() const { return store_.Size(); }

  /// Optional instrumentation hook (owned by the wrapping QuantileSketch);
  /// never serialized, may stay null.
  void set_metrics(obs::SketchMetrics* metrics) { metrics_ = metrics; }

  size_t MemoryBytes() const {
    // Tuples + BST links (store) plus live heap entries (key + pointer).
    return store_.MemoryBytes() +
           heap_.size() * (kBytesPerCounter + kBytesPerPointer);
  }

  /// Snapshot to a byte buffer (trivially copyable element types only).
  void Serialize(SerdeWriter& w) const
    requires std::is_trivially_copyable_v<T>
  {
    w.F64(eps_);
    w.U64(n_);
    store_.Serialize(w);
  }

  /// Restores a snapshot; the lazy heap is rebuilt from scratch.
  bool Deserialize(SerdeReader& r)
    requires std::is_trivially_copyable_v<T>
  {
    if (!r.F64(&eps_) || !r.U64(&n_) || !store_.Deserialize(r)) return false;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> empty;
    heap_.swap(empty);
    for (auto it = store_.Begin(); it != store_.End(); ++it) PushKey(it);
    return true;
  }

  /// Test hook: verifies invariant (2) and the orderedness of the summary.
  template <typename Fn>
  void ForEachTuple(Fn&& fn) const {
    for (auto it = store_.Begin(); it != store_.End(); ++it) {
      const auto& node = store_.NodeOf(it->id);
      fn(it->v, node.g, node.delta);
    }
  }

 private:
  using Store = GkTupleStore<T, Less>;
  using Iterator = typename Store::Iterator;

  struct HeapEntry {
    int64_t key;
    int32_t id;
    uint32_t version;
    bool operator>(const HeapEntry& o) const { return key > o.key; }
  };

  int64_t Threshold() const {
    return static_cast<int64_t>(2.0 * eps_ * static_cast<double>(n_));
  }

  // Removability key of the tuple at `it` (requires a successor).
  int64_t KeyOf(Iterator it) {
    auto nxt = std::next(it);
    const auto& node = store_.NodeOf(it->id);
    const auto& snode = store_.NodeOf(nxt->id);
    return node.g + snode.g + snode.delta;
  }

  void PushKey(Iterator it) {
    if (std::next(it) == store_.End()) return;  // last tuple: not removable
    auto& node = store_.NodeOf(it->id);
    ++node.version;
    heap_.push(HeapEntry{KeyOf(it), it->id, node.version});
  }

  void Remove(Iterator it) {
    // Each fold of a removable tuple is GKAdaptive's (one-tuple) COMPRESS.
    if (metrics_ != nullptr) metrics_->compressions.Inc();
    Iterator succ = store_.RemoveIntoSuccessor(it);
    // succ's g changed -> its key changed; the tuple before the removed one
    // now precedes succ -> its key changed too.
    PushKey(succ);
    if (succ != store_.Begin()) PushKey(std::prev(succ));
  }

  void TryRemoveCheapest(int64_t threshold) {
    while (!heap_.empty()) {
      const HeapEntry top = heap_.top();
      auto& node = store_.NodeOf(top.id);
      if (node.version != top.version) {
        heap_.pop();  // stale
        continue;
      }
      if (top.key > threshold) return;  // cheapest candidate too expensive
      heap_.pop();
      Remove(node.self);
      return;
    }
  }

  void MaybeCompactHeap() {
    if (heap_.size() <= 4 * store_.Size() + 64) return;
    STREAMQ_COMPACTION_EVENT(metrics_, heap_.size());
    STREAMQ_COMPACTION_TIMER(metrics_);
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> fresh;
    for (auto it = store_.Begin(); it != store_.End(); ++it) {
      if (std::next(it) == store_.End()) break;
      auto& node = store_.NodeOf(it->id);
      ++node.version;
      fresh.push(HeapEntry{KeyOf(it), it->id, node.version});
    }
    heap_.swap(fresh);
  }

  double eps_;
  uint64_t n_ = 0;
  Store store_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  obs::SketchMetrics* metrics_ = nullptr;
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_GK_ADAPTIVE_H_
