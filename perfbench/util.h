// Small helpers shared by the load generator and the layer replay: a
// monotonic clock, order statistics, an in-memory span log with a Chrome
// trace-event writer, and a Prometheus-text reader for /metrics scrapes.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
uint64_t NowNs();

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}
/// Sum of `values`.
double Sum(const std::vector<double>& values);

/// A latency sample and when it completed.
struct Timed {
  uint64_t at_ns = 0;
  double value = 0.0;
};
std::vector<double> Values(const std::vector<Timed>& samples);
/// A tail percentile that one burst cannot move: the samples, in completion
/// order, are cut into K consecutive slices that each keep at least ten
/// samples beyond the p-th percentile (1 <= K <= 12), and the median of the
/// slices' p-th percentiles is returned.
double SlicedPercentile(std::vector<Timed> samples, double p);

/// One timed interval. Spans of one request share `request`; `parent` is
/// the id of the enclosing span of the layer above (0 for a root).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int track = 0;  // Chrome "tid": which phase or connection recorded it
  double DurNs() const { return static_cast<double>(end_ns - start_ns); }
};

/// Spans kept in memory for the whole run and written out at the end. Not
/// thread-safe: each thread owns its own log.
class SpanLog {
 public:
  uint64_t Begin(const char* name, uint64_t request, uint64_t parent,
                 int track);
  void End(uint64_t span_id);
  /// Records an already-measured interval.
  uint64_t Add(const char* name, uint64_t request, uint64_t parent, int track,
               uint64_t start_ns, uint64_t end_ns);
  void Append(const SpanLog& other);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ns) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, microsecond times
  /// relative to the earliest span). False on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// One /metrics scrape: every counter and gauge by its registry name
/// (e.g. "net.parks"). Absent families read as 0.
class Scrape {
 public:
  static bool Parse(const std::string& body, Scrape* out);
  double Get(const std::string& name) const;
  /// Sum over every name that starts with `prefix` and ends with `suffix`.
  double SumMatching(const std::string& prefix,
                     const std::string& suffix) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
