#include "util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p% of the sample at or
  // below it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

std::vector<double> Values(const std::vector<Timed>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Timed& t : samples) out.push_back(t.value);
  return out;
}

double SlicedPercentile(std::vector<Timed> samples, double p) {
  std::sort(samples.begin(), samples.end(),
            [](const Timed& a, const Timed& b) { return a.at_ns < b.at_ns; });
  const double beyond = static_cast<double>(samples.size()) * (1.0 - p / 100.0);
  const size_t k = std::clamp<size_t>(static_cast<size_t>(beyond / 10.0), 1, 12);
  std::vector<double> per_slice;
  for (size_t i = 0; i < k; ++i) {
    const size_t from = samples.size() * i / k;
    const size_t to = samples.size() * (i + 1) / k;
    std::vector<double> slice;
    for (size_t j = from; j < to; ++j) slice.push_back(samples[j].value);
    per_slice.push_back(Percentile(std::move(slice), p));
  }
  return Median(std::move(per_slice));
}

uint64_t SpanLog::Begin(const char* name, uint64_t request, uint64_t parent,
                        int track) {
  const uint64_t now = NowNs();
  return Add(name, request, parent, track, now, now);
}

void SpanLog::End(uint64_t span_id) {
  // Spans end in LIFO order almost always; search from the back.
  for (size_t i = spans_.size(); i-- > 0;) {
    if (spans_[i].id == span_id) {
      spans_[i].end_ns = NowNs();
      return;
    }
  }
}

uint64_t SpanLog::Add(const char* name, uint64_t request, uint64_t parent,
                      int track, uint64_t start_ns, uint64_t end_ns) {
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.track = track;
  spans_.push_back(span);
  return span.id;
}

void SpanLog::Append(const SpanLog& other) {
  // Re-number the other log's ids past ours so parent links stay unique.
  const uint64_t base = next_id_ - 1;
  for (Span span : other.spans_) {
    span.id += base;
    if (span.parent != 0) span.parent += base;
    spans_.push_back(span);
  }
  next_id_ += other.next_id_ - 1;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.DurNs());
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",", s.name, s.track,
                 static_cast<double>(s.start_ns - t0) / 1e3, s.DurNs() / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    first = false;
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::fflush(f) == 0;
  return std::fclose(f) == 0 && ok;
}

bool Scrape::Parse(const std::string& body, Scrape* out) {
  // "# HELP <family> streamq <kind> <registry name>" maps each exported
  // counter and gauge family back to the registry name the server used.
  std::unordered_map<std::string, std::string> family_to_name;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream h(line.substr(7));
      std::string family, tag, kind, name;
      if (h >> family >> tag >> kind >> name &&
          (kind == "counter" || kind == "gauge")) {
        family_to_name[family] = name;
      }
      continue;
    }
    const size_t sp = line.rfind(' ');
    if (line.empty() || line[0] == '#' || sp == std::string::npos) continue;
    const auto it = family_to_name.find(line.substr(0, sp));
    if (it != family_to_name.end()) {
      out->values_[it->second] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
  }
  return !family_to_name.empty();
}

double Scrape::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

double Scrape::SumMatching(const std::string& prefix,
                           const std::string& suffix) const {
  double total = 0.0;
  for (auto it = values_.lower_bound(prefix);
       it != values_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    const std::string& name = it->first;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += it->second;
    }
  }
  return total;
}

}  // namespace perfbench
