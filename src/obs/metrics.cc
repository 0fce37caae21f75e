#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#include <x86intrin.h>
#endif

namespace streamq::obs {

namespace {

uint64_t SteadyNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct TickCalibration {
  bool use_tsc = false;
  double nanos_per_tick = 1.0;
};

#if defined(__x86_64__) || defined(_M_X64)
// CPUID leaf 0x80000007, EDX bit 8: invariant TSC — constant rate across
// P/C-states. Without it raw cycle counts are not a usable time base and
// the steady_clock fallback is used instead.
bool InvariantTscAvailable() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000u, &eax, &ebx, &ecx, &edx) == 0 ||
      eax < 0x80000007u) {
    return false;
  }
  if (__get_cpuid(0x80000007u, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (edx & (1u << 8)) != 0;
}
#endif

TickCalibration Calibrate() {
  TickCalibration cal;
#if defined(__x86_64__) || defined(_M_X64)
  if (InvariantTscAvailable()) {
    // Two-sample calibration over a ~2 ms busy-wait: long enough that the
    // ~100 ns clock-read jitter at the endpoints is < 0.01% of the window.
    const uint64_t ns0 = SteadyNanos();
    const uint64_t c0 = __rdtsc();
    while (SteadyNanos() - ns0 < 2'000'000) {
    }
    const uint64_t ns1 = SteadyNanos();
    const uint64_t c1 = __rdtsc();
    if (c1 > c0 && ns1 > ns0) {
      cal.use_tsc = true;
      cal.nanos_per_tick = static_cast<double>(ns1 - ns0) /
                           static_cast<double>(c1 - c0);
    }
  }
#endif
  return cal;
}

// Calibrated once at static-initialization time ("once at startup"); Now()
// then reads a plain const global with no guard on the hot path. Zero
// static init before dynamic init means any (unexpected) pre-main caller
// sees use_tsc=false and harmlessly falls back to steady_clock.
const TickCalibration g_tick_calibration = Calibrate();

}  // namespace

uint64_t TickClock::Now() {
#if defined(__x86_64__) || defined(_M_X64)
  if (g_tick_calibration.use_tsc) return __rdtsc();
#endif
  return SteadyNanos();
}

bool TickClock::UsingTsc() { return g_tick_calibration.use_tsc; }

double TickClock::NanosPerTick() {
  return g_tick_calibration.use_tsc ? g_tick_calibration.nanos_per_tick
                                    : 1.0;
}

uint64_t TickClock::ToNanos(uint64_t ticks) {
  if (!g_tick_calibration.use_tsc) return ticks;
  return static_cast<uint64_t>(static_cast<double>(ticks) *
                               g_tick_calibration.nanos_per_tick);
}

uint64_t Histogram::ValueAtQuantile(double phi) const {
  if (count_ == 0 || std::isnan(phi) || phi < 0.0 || phi > 1.0) return 0;
  if (phi <= 0.0) return min();
  if (phi >= 1.0) return max_;

  // Rank of the phi-quantile sample, 1-based: ceil(phi * count).
  uint64_t target = static_cast<uint64_t>(
      std::ceil(phi * static_cast<double>(count_)));
  target = std::clamp<uint64_t>(target, 1, count_);

  uint64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] == 0) continue;
    if (cumulative + buckets_[i] < target) {
      cumulative += buckets_[i];
      continue;
    }
    // The target rank lands in bucket i: interpolate linearly across the
    // bucket's inclusive value range [lo, hi], then clamp to the exact
    // sample envelope so degenerate distributions (all samples equal)
    // come back exact.
    const uint64_t lo = BucketLowerBound(i);
    const uint64_t hi =
        i == 0 ? 0
               : (i == kBucketCount - 1 ? std::max(max_, lo)
                                        : lo * 2 - 1);
    const uint64_t pos = target - cumulative;  // 1..buckets_[i]
    uint64_t est =
        lo + static_cast<uint64_t>(static_cast<double>(hi - lo) *
                                   (static_cast<double>(pos) /
                                    static_cast<double>(buckets_[i])));
    est = std::clamp(est, min(), max_);
    return est;
  }
  return max_;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

void MetricsRegistry::ResetAll() {
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsRegistry::DebugString() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += name + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out += name + " " + std::to_string(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += name + " count=" + std::to_string(h->count()) +
           " sum=" + std::to_string(h->sum()) +
           " min=" + std::to_string(h->min()) +
           " max=" + std::to_string(h->max()) + "\n";
  }
  return out;
}

}  // namespace streamq::obs
