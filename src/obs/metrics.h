// streamq_obs: lightweight metrics primitives for looking inside a running
// sketch without perturbing it.
//
// Design constraints (see DESIGN.md section 9):
//
//  * Zero allocation on the hot path. Counter/Gauge/Histogram are plain
//    structs of integers; recording is an add (plus one branch for the
//    histogram bucket). Allocation happens only at registration time
//    (MetricsRegistry::GetCounter and friends), which callers do once at
//    construction and never per update.
//  * Fixed-bucket histograms. 32 power-of-two buckets cover [0, 2^31) with
//    saturation into the last bucket -- enough dynamic range for tuple
//    counts, buffer sizes, and cycle counts alike, with no configuration
//    and no per-record search.
//
// Thread-safety: none of these types synchronise. The library is
// single-threaded by design (one sketch, one stream); share a registry
// across threads only under external locking.

#ifndef STREAMQ_OBS_METRICS_H_
#define STREAMQ_OBS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace streamq::obs {

/// Monotonically increasing event count (updates applied, frames sent, ...).
class Counter {
 public:
  void Inc() { ++value_; }
  void Add(uint64_t n) { value_ += n; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Last-written point-in-time value (memory bytes, staleness bound, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t d) { value_ += d; }
  int64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  int64_t value_ = 0;
};

/// Fixed-bucket histogram over uint64 samples. Bucket 0 holds the value 0;
/// bucket i (i >= 1) holds [2^(i-1), 2^i); the last bucket saturates.
/// Tracks count/sum/min/max exactly alongside the bucketed distribution.
class Histogram {
 public:
  static constexpr int kBucketCount = 32;

  void Record(uint64_t v) {
    ++buckets_[BucketIndex(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Minimum recorded sample (0 when empty).
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t bucket(int i) const { return buckets_[i]; }

  /// Estimated phi-quantile of the recorded samples: finds the bucket
  /// holding the sample of rank ceil(phi * count), interpolates linearly
  /// inside it, and clamps to the exact [min, max] envelope (so all-equal
  /// inputs return the exact value). phi <= 0 returns min(), phi >= 1
  /// returns max(). Returns 0 when empty or phi is not a number in [0, 1].
  /// The absolute error is bounded by the width of one pow2 bucket — the
  /// same guarantee q-digest style summaries give, dogfooded for the
  /// Prometheus summary export.
  uint64_t ValueAtQuantile(double phi) const;

  /// Inclusive lower bound of bucket i (0, 1, 2, 4, 8, ...).
  static uint64_t BucketLowerBound(int i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }

  /// Bucket index a sample lands in.
  static int BucketIndex(uint64_t v) {
    if (v == 0) return 0;
    int bit = 63;
    while ((v >> bit) == 0) --bit;  // floor(log2(v))
    return bit + 1 >= kBucketCount ? kBucketCount - 1 : bit + 1;
  }

  void Reset() {
    for (uint64_t& b : buckets_) b = 0;
    count_ = sum_ = min_ = max_ = 0;
  }

 private:
  uint64_t buckets_[kBucketCount] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

/// Cheapest available monotonic tick source for latency histograms and
/// trace timestamps: the invariant TSC on x86-64 (~10 cycles to read), the
/// steady clock elsewhere (and on x86 parts without an invariant TSC, where
/// raw cycle counts would drift across frequency changes).
///
/// The tick unit is calibrated against steady_clock once at process start
/// (a ~2 ms two-sample measurement, run from a static initializer in
/// metrics.cc), so ToNanos()/NowNanos() convert raw ticks into real
/// nanoseconds — required by the trace exporters, whose timestamps must be
/// wall-time-meaningful, not machine-relative cycle counts.
struct TickClock {
  /// Raw ticks (TSC cycles or steady_clock nanoseconds).
  static uint64_t Now();

  /// True when Now() reads the invariant TSC (x86-64 with CPUID advertising
  /// it); false on the steady_clock fallback, where 1 tick == 1 ns.
  static bool UsingTsc();

  /// Calibrated nanoseconds per tick (exactly 1.0 on the fallback).
  static double NanosPerTick();

  /// Converts a tick count (or tick difference) to nanoseconds.
  static uint64_t ToNanos(uint64_t ticks);

  /// Now() in calibrated nanoseconds.
  static uint64_t NowNanos() { return ToNanos(Now()); }
};

/// Records the tick-duration of a scope into a histogram on destruction.
/// A null histogram makes the timer a no-op (used by sketches whose metrics
/// hook is unset).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist), start_(hist ? TickClock::Now() : 0) {}
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->Record(TickClock::Now() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  uint64_t start_;
};

/// Owns named metrics. Names are get-or-create: the first Get* call for a
/// name allocates the metric, later calls return the same object, so callers
/// register once (construction) and keep the reference for hot-path use.
/// Counters, gauges, and histograms live in separate namespaces (the same
/// name may exist once per kind).
class MetricsRegistry {
 public:
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Read-only lookups: nullptr when the name was never registered.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;

  /// Visits every metric in name order (for dumps and tests).
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [name, c] : counters_) fn(name, *c);
  }
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    for (const auto& [name, g] : gauges_) fn(name, *g);
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

  size_t CounterCount() const { return counters_.size(); }
  size_t GaugeCount() const { return gauges_.size(); }
  size_t HistogramCount() const { return histograms_.size(); }

  /// Zeroes every metric, keeping registrations (and handed-out references)
  /// valid.
  void ResetAll();

  /// Human-readable multi-line dump ("name value" per line), for logs and
  /// the bench binaries.
  std::string DebugString() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace streamq::obs

#endif  // STREAMQ_OBS_METRICS_H_
