// Query machinery shared by the sample-based summaries (Random, MRL99).
//
// Both summaries end up holding a collection of (element, weight) pairs where
// the weight says how many stream elements the sample stands for. The
// estimated rank of v is the total weight of stored elements smaller than v,
// and a phi-quantile is the stored element whose estimated rank is closest
// to phi * n (section 2.2 of the paper).
//
// Two views answer those queries. WeightedSampleView takes an arbitrary
// unsorted sample and sorts it. WeightedRunsView takes the sample as the
// equal-weight buffers Random and MRL99 keep, all sorted but the one being
// filled, and answers identically without copying or re-sorting them.

#ifndef STREAMQ_QUANTILE_WEIGHTED_SAMPLE_H_
#define STREAMQ_QUANTILE_WEIGHTED_SAMPLE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/branchless.h"
#include "util/radix_sort.h"

namespace streamq {

template <typename T>
struct WeightedElement {
  T value;
  int64_t weight;
};

/// Sorts `data` ascending by Less. uint64 keys under std::less take the
/// radix sort (util/radix_sort.h), whose output is identical to std::sort's;
/// `scratch` is its working memory.
template <typename T, typename Less>
void SortSample(std::vector<T>& data, std::vector<T>& scratch) {
  if constexpr (std::is_same_v<T, uint64_t> &&
                std::is_same_v<Less, std::less<uint64_t>>) {
    scratch.resize(data.size());
    RadixSortU64(data.data(), data.size(), scratch.data());
  } else {
    std::sort(data.begin(), data.end(), Less());
  }
}

/// The nearest-neighbour rule of both views. `lo_rank` is the rank of the
/// largest stored value ranked below `target`, `hi_rank` that of the
/// smallest ranked at or above it; true picks the lower one, which also
/// wins a tie.
inline bool NearerToLower(int64_t lo_rank, int64_t hi_rank, double target) {
  return target - static_cast<double>(lo_rank) <=
         static_cast<double>(hi_rank) - target;
}

/// Sorted view over a weighted sample supporting rank and quantile queries.
template <typename T, typename Less = std::less<T>>
class WeightedSampleView {
 public:
  /// Takes ownership of the (unsorted) sample and prepares prefix sums.
  explicit WeightedSampleView(std::vector<WeightedElement<T>> sample)
      : sample_(std::move(sample)) {
    Less less;
    std::sort(sample_.begin(), sample_.end(),
              [&](const WeightedElement<T>& a, const WeightedElement<T>& b) {
                return less(a.value, b.value);
              });
    ranks_.resize(sample_.size());
    int64_t prefix = 0;
    for (size_t i = 0; i < sample_.size(); ++i) {
      // Equal values share the same estimated rank (#weight strictly below).
      if (i > 0 && !less(sample_[i - 1].value, sample_[i].value)) {
        ranks_[i] = ranks_[i - 1];
      } else {
        ranks_[i] = prefix;
      }
      prefix += sample_[i].weight;
    }
    total_ = prefix;
  }

  bool Empty() const { return sample_.empty(); }
  int64_t TotalWeight() const { return total_; }

  /// Estimated rank of `value`: total weight of stored elements < value.
  int64_t EstimateRank(const T& value) const {
    Less less;
    auto it = std::lower_bound(
        sample_.begin(), sample_.end(), value,
        [&](const WeightedElement<T>& a, const T& v) { return less(a.value, v); });
    if (it == sample_.end()) return total_;
    return ranks_[it - sample_.begin()];
  }

  /// The stored element whose estimated rank is closest to `target`.
  T Quantile(double target) const {
    // ranks_ is non-decreasing: binary search the insertion point, then
    // compare the two neighbours.
    size_t lo = 0, hi = ranks_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (static_cast<double>(ranks_[mid]) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == ranks_.size()) return sample_.back().value;
    if (lo == 0) return sample_[0].value;
    return NearerToLower(ranks_[lo - 1], ranks_[lo], target)
               ? sample_[lo - 1].value
               : sample_[lo].value;
  }

 private:
  std::vector<WeightedElement<T>> sample_;
  std::vector<int64_t> ranks_;
  int64_t total_ = 0;
};

/// The same queries over a sample held as runs, every element of a run
/// carrying the run's weight. Answers exactly what WeightedSampleView
/// answers over the concatenated runs, without copying the sorted runs: a
/// rank costs one lower_bound per sorted run (a linear count for an
/// unsorted one), and a quantile binary-searches each run on that rank.
template <typename T, typename Less = std::less<T>>
class WeightedRunsView {
 public:
  WeightedRunsView() = default;
  // A run may point into copies_, which a copy of the view would not
  // carry along; a move does.
  WeightedRunsView(const WeightedRunsView&) = delete;
  WeightedRunsView& operator=(const WeightedRunsView&) = delete;
  WeightedRunsView(WeightedRunsView&&) = default;
  WeightedRunsView& operator=(WeightedRunsView&&) = default;

  /// Adds a run, sorted by Less or not. The view keeps a pointer into it,
  /// so the run must outlive the view.
  void Add(std::span<const T> run, int64_t weight, bool sorted) {
    if (!run.empty()) runs_.push_back({run, weight, sorted});
  }

  /// Replaces every unsorted run by a sorted copy the view owns; Quantile
  /// needs every run sorted. (Moving a vector keeps its storage, so the
  /// copies stay where their runs point when copies_ grows.)
  void SortRuns() {
    std::vector<T> scratch;
    for (Run& r : runs_) {
      if (r.sorted) continue;
      copies_.emplace_back(r.data.begin(), r.data.end());
      SortSample<T, Less>(copies_.back(), scratch);
      r.data = copies_.back();
      r.sorted = true;
    }
  }

  bool Empty() const { return runs_.empty(); }

  /// Estimated rank of `value`: total weight of stored elements < value.
  int64_t EstimateRank(const T& value) const {
    Less less;
    int64_t rank = 0;
    for (const Run& r : runs_) {
      size_t below = 0;
      if (r.sorted) {
        below = Below(r.data, value);
      } else {
        for (const T& x : r.data) below += less(x, value) ? 1 : 0;
      }
      rank += r.weight * static_cast<int64_t>(below);
    }
    return rank;
  }

  /// The stored element whose estimated rank is closest to `target`.
  /// Preconditions: !Empty() and SortRuns() has run.
  T Quantile(double target) const {
    Less less;
    const auto reaches = [&](const T& x) {
      return !(static_cast<double>(EstimateRank(x)) < target);
    };
    // The smallest stored value whose rank reaches target. Rank does not
    // decrease along a sorted run, so a run's first such element is a
    // binary search away. Once a run has given a candidate, a later run
    // can only beat it with elements below it, and those that reach
    // target sit just under the candidate's position in the run: probe
    // down from there in doubling steps to bound the search.
    const T* hi = nullptr;
    for (const Run& r : runs_) {
      assert(r.sorted);
      size_t lo = 0, end = r.data.size();
      if (hi != nullptr) {
        end = Below(r.data, *hi);
        size_t step = 1;
        while (step <= end && reaches(r.data[end - step])) step *= 2;
        lo = step <= end ? end - step + 1 : 0;
      }
      size_t top = end;
      while (lo < top) {
        const size_t mid = lo + (top - lo) / 2;
        if (reaches(r.data[mid])) {
          top = mid;
        } else {
          lo = mid + 1;
        }
      }
      if (lo < end) hi = &r.data[lo];
    }
    if (hi == nullptr) {  // no rank reaches target: the largest value
      const T* max = &runs_[0].data.back();
      for (const Run& r : runs_) {
        if (less(*max, r.data.back())) max = &r.data.back();
      }
      return *max;
    }
    // Its neighbour below: the largest stored value less than it.
    const T* lo = nullptr;
    for (const Run& r : runs_) {
      const size_t below = Below(r.data, *hi);
      if (below > 0 && (lo == nullptr || less(*lo, r.data[below - 1]))) {
        lo = &r.data[below - 1];
      }
    }
    if (lo == nullptr) return *hi;  // hi is the smallest stored value
    return NearerToLower(EstimateRank(*lo), EstimateRank(*hi), target) ? *lo
                                                                       : *hi;
  }

 private:
  struct Run {
    std::span<const T> data;
    int64_t weight;
    bool sorted;
  };

  // Elements of sorted `run` less than `value` (std::lower_bound as an
  // index), by the branch-free probe loop: every rank the quantile search
  // evaluates makes one such search per run.
  static size_t Below(std::span<const T> run, const T& value) {
    Less less;
    return BranchlessUpperBound(
        run.data(), run.size(), value,
        [&](const T& v, const T& x) { return !less(x, v); });
  }

  std::vector<Run> runs_;
  std::vector<std::vector<T>> copies_;  // sorted copies of unsorted runs
};

}  // namespace streamq

#endif  // STREAMQ_QUANTILE_WEIGHTED_SAMPLE_H_
