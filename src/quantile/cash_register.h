// Concrete QuantileSketch wrappers over the comparison-based cash-register
// summaries, instantiated for uint64_t streams. The underlying
// implementations (gk_*.h, random_impl.h, mrl99_impl.h) are templates over
// any strict-weak-ordered element type, reflecting the comparison model.
//
// Snapshots (Serialize/Deserialize) use the framed format of util/serde.h:
// a per-type tag plus CRC32C, so corrupted or cross-type input is rejected
// before any payload byte is interpreted.

#ifndef STREAMQ_QUANTILE_CASH_REGISTER_H_
#define STREAMQ_QUANTILE_CASH_REGISTER_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "quantile/gk_adaptive.h"
#include "quantile/gk_array.h"
#include "quantile/gk_theory.h"
#include "quantile/mrl99_impl.h"
#include "quantile/quantile_sketch.h"
#include "quantile/random_impl.h"
#include "util/serde.h"

namespace streamq {

/// A string literal as a template argument: the summary's Name().
template <size_t N>
struct SketchName {
  constexpr SketchName(const char (&name)[N]) { std::copy_n(name, N, text); }
  char text[N];
};

/// The summary `Impl` over uint64_t behind the QuantileSketch API, named
/// `kName` and snapshotted under the frame tag `kTag`. Every value is
/// accepted; UpdateBatch goes to Impl::InsertBatch, which keeps the
/// item-wise state bit for bit.
template <typename Impl, SnapshotType kTag, SketchName kName>
class CashRegisterSketch : public QuantileSketch {
 public:
  explicit CashRegisterSketch(double eps)
      : CashRegisterSketch(std::in_place, eps) {}
  int64_t EstimateRank(uint64_t value) override {
    return impl_.EstimateRank(value);
  }
  uint64_t Count() const override { return impl_.Count(); }
  size_t MemoryBytes() const override { return impl_.MemoryBytes(); }
  std::string Name() const override { return kName.text; }
  Impl& impl() { return impl_; }

  /// Framed snapshot of the summary; restore with Deserialize.
  std::string Serialize() const {
    SerdeWriter w;
    impl_.Serialize(w);
    return FrameSnapshot(kTag, w.Take());
  }
  /// Restores a Serialize() snapshot; nullptr on corrupt input.
  static std::unique_ptr<CashRegisterSketch> Deserialize(
      const std::string& bytes) {
    return Load<CashRegisterSketch>(bytes);
  }

 protected:
  template <typename... Args>
  explicit CashRegisterSketch(std::in_place_t, Args&&... args)
      : impl_(std::forward<Args>(args)...) {
    impl_.set_metrics(mutable_metrics());
  }

  template <typename Sketch>
  static std::unique_ptr<Sketch> Load(const std::string& bytes) {
    std::string payload;
    if (!UnframeSnapshot(bytes, kTag, &payload)) return nullptr;
    auto sketch = std::make_unique<Sketch>(0.5);
    SerdeReader r(payload);
    if (!sketch->impl_.Deserialize(r) || !r.Done()) return nullptr;
    return sketch;
  }

  StreamqStatus InsertImpl(uint64_t value) override {
    impl_.Insert(value);
    return StreamqStatus::kOk;
  }
  size_t InsertBatchImpl(const uint64_t* values, size_t n) override {
    impl_.InsertBatch(values, n);
    return 0;
  }
  uint64_t QueryImpl(double phi) override { return impl_.Query(phi); }
  std::vector<uint64_t> QueryManyImpl(
      const std::vector<double>& phis) override {
    return impl_.QueryMany(phis);
  }

  Impl impl_;
};

/// A CashRegisterSketch whose summary merges: two built with the same eps
/// combine into a summary of the union stream (the mergeable-summary
/// property of Agarwal et al.), and a copy clones it with fresh metrics.
template <typename Impl, SnapshotType kTag, SketchName kName>
class MergeableSketch : public CashRegisterSketch<Impl, kTag, kName> {
  using Base = CashRegisterSketch<Impl, kTag, kName>;

 public:
  MergeableSketch(double eps, uint64_t seed = 1)
      : Base(std::in_place, eps, seed) {}
  MergeableSketch(const MergeableSketch& other)
      : Base(std::in_place, other.impl_) {}
  MergeableSketch& operator=(const MergeableSketch&) = delete;

  bool Mergeable() const override { return true; }
  std::unique_ptr<QuantileSketch> Clone() const override {
    return std::unique_ptr<QuantileSketch>(new MergeableSketch(*this));
  }

  /// Restores a Serialize() snapshot (PRNG state included); nullptr on
  /// corrupt input.
  static std::unique_ptr<MergeableSketch> Deserialize(
      const std::string& bytes) {
    return Base::template Load<MergeableSketch>(bytes);
  }

 protected:
  StreamqStatus MergeCompatibility(
      const QuantileSketch& other) const override {
    const auto* peer = dynamic_cast<const MergeableSketch*>(&other);
    if (peer == nullptr || peer->impl_.height() != this->impl_.height() ||
        peer->impl_.buffer_size() != this->impl_.buffer_size()) {
      return StreamqStatus::kMergeIncompatible;
    }
    return StreamqStatus::kOk;
  }
  StreamqStatus MergeImpl(const QuantileSketch& other) override {
    this->impl_.Merge(static_cast<const MergeableSketch&>(other).impl_);
    return StreamqStatus::kOk;
  }
};

/// GKTheory over uint64_t (section 2.1 of the paper).
using GkTheory = CashRegisterSketch<GkTheoryImpl<uint64_t>,
                                    SnapshotType::kGkTheory, "GKTheory">;

/// GKAdaptive over uint64_t (section 2.1.1).
using GkAdaptive = CashRegisterSketch<GkAdaptiveImpl<uint64_t>,
                                      SnapshotType::kGkAdaptive, "GKAdaptive">;

/// GKArray over uint64_t (section 2.1.2, journal version).
using GkArray = CashRegisterSketch<GkArrayImpl<uint64_t>,
                                   SnapshotType::kGkArray, "GKArray">;

/// Random over uint64_t (section 2.2).
using RandomSketch = MergeableSketch<RandomSketchImpl<uint64_t>,
                                     SnapshotType::kRandom, "Random">;

/// MRL99 over uint64_t (section 1.2.1); merges level-wise, with COLLAPSE
/// passes restoring the buffer budget.
using Mrl99 =
    MergeableSketch<Mrl99Impl<uint64_t>, SnapshotType::kMrl99, "MRL99">;

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_CASH_REGISTER_H_
