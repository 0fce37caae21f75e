// Per-sketch instrumentation and its compaction macros.
//
// Every QuantileSketch owns one SketchMetrics (see quantile_sketch.h). The
// base class counts updates and queries; the concrete summaries additionally
// report their compaction events (COMPRESS, buffer flush, COLLAPSE, buffer
// merge, OLS finalisation) through the macros below, passing a SketchMetrics*
// that may be null (e.g. a GkArrayImpl used standalone, outside any
// QuantileSketch).

#ifndef STREAMQ_OBS_SKETCH_METRICS_H_
#define STREAMQ_OBS_SKETCH_METRICS_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace streamq::obs {

/// The metrics every quantile sketch carries. Counters cover the update and
/// query paths (single add each); histograms and the memory gauge are only
/// touched on compaction events and publishes -- the overhead budget of
/// DESIGN.md section 9.
struct SketchMetrics {
  Counter inserts;        ///< accepted Insert() calls
  Counter erases;         ///< accepted Erase() calls
  Counter merges;         ///< accepted Merge() calls
  Counter rejected;       ///< updates/merges refused with a non-kOk status
  Counter queries;        ///< Query()/QueryMany() calls (batch counts once)
  Counter compressions;   ///< compaction events (COMPRESS/flush/collapse/...)
  Histogram compress_trigger;  ///< summary size (tuples/nodes/elements) when
                               ///< a compaction fired
  Histogram compress_ticks;    ///< TickClock duration of each compaction
  Gauge memory_bytes;          ///< MemoryBytes() at the last publish

  /// Copies the current values into `registry` under "<prefix>.<metric>".
  void PublishTo(MetricsRegistry& registry, const std::string& prefix) const {
    registry.GetCounter(prefix + ".inserts").Reset();
    registry.GetCounter(prefix + ".inserts").Add(inserts.value());
    registry.GetCounter(prefix + ".erases").Reset();
    registry.GetCounter(prefix + ".erases").Add(erases.value());
    registry.GetCounter(prefix + ".merges").Reset();
    registry.GetCounter(prefix + ".merges").Add(merges.value());
    registry.GetCounter(prefix + ".rejected").Reset();
    registry.GetCounter(prefix + ".rejected").Add(rejected.value());
    registry.GetCounter(prefix + ".queries").Reset();
    registry.GetCounter(prefix + ".queries").Add(queries.value());
    registry.GetCounter(prefix + ".compressions").Reset();
    registry.GetCounter(prefix + ".compressions").Add(compressions.value());
    registry.GetGauge(prefix + ".memory_bytes").Set(memory_bytes.value());
    registry.GetHistogram(prefix + ".compress_trigger") = compress_trigger;
    registry.GetHistogram(prefix + ".compress_ticks") = compress_ticks;
  }
};

/// Records one compaction event: increments the compressions counter, logs
/// the summary size that triggered it, and stamps a trace instant (the
/// flight recorder sees compaction cadence even between spans). `m` is a
/// SketchMetrics* and may be null.
#define STREAMQ_COMPACTION_EVENT(m, trigger_size)                       \
  do {                                                                  \
    ::streamq::obs::SketchMetrics* sq_m_ = (m);                         \
    if (sq_m_ != nullptr) {                                             \
      sq_m_->compressions.Inc();                                        \
      sq_m_->compress_trigger.Record(                                   \
          static_cast<uint64_t>(trigger_size));                         \
    }                                                                   \
    STREAMQ_TRACE_INSTANT(::streamq::obs::TracePoint::kSketchCompaction, \
                          trigger_size);                                \
  } while (0)

/// Times the rest of the enclosing scope into the compaction-latency
/// histogram of `m` (a SketchMetrics*, may be null) and traces it as a
/// sketch_compaction span.
#define STREAMQ_COMPACTION_TIMER(m)                                  \
  ::streamq::obs::ScopedTimer sq_compaction_timer_(                  \
      (m) != nullptr ? &(m)->compress_ticks : nullptr);              \
  STREAMQ_TRACE_SPAN(::streamq::obs::TracePoint::kSketchCompaction, 0)

}  // namespace streamq::obs

#endif  // STREAMQ_OBS_SKETCH_METRICS_H_
