// Test-side codec for the snapshot payloads of the two sample summaries,
// following the layouts RandomSketchImpl::Serialize and Mrl99Impl::Serialize
// write. Tests use it to rebuild a summary's stored weighted sample (the
// reference the queries are checked against) and to forge snapshots that a
// CRC cannot tell from real ones.

#ifndef STREAMQ_TESTS_SAMPLE_SUMMARY_CODEC_H_
#define STREAMQ_TESTS_SAMPLE_SUMMARY_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "quantile/weighted_sample.h"
#include "util/random.h"
#include "util/serde.h"

namespace streamq {

template <typename T>
struct SampleSummaryState {
  struct Buffer {
    int64_t weight = 1;  // MRL99 stores it; Random's is 2^level
    uint32_t level = 0;
    uint32_t full = 0;
    std::vector<T> data;
  };
  bool weighted = false;  // MRL99 layout: an explicit weight per buffer
  uint32_t height = 0;
  uint64_t buffer_size = 0;
  uint64_t n = 0;
  int32_t fill = -1;
  uint64_t block_seen = 0;
  uint64_t block_pick = 0;
  T block_choice{};
  Xoshiro256::State rng{};
  std::vector<Buffer> buffers;

  /// The sample the summary answers from: every stored element with its
  /// buffer's weight, plus the in-progress block sample once it has
  /// committed (weight: the block elements consumed so far).
  std::vector<WeightedElement<T>> WeightedSample() const {
    std::vector<WeightedElement<T>> sample;
    for (const Buffer& b : buffers) {
      const int64_t w = weighted ? b.weight : int64_t{1} << b.level;
      for (const T& v : b.data) sample.push_back({v, w});
    }
    if (fill >= 0 && block_seen > block_pick) {
      sample.push_back({block_choice, static_cast<int64_t>(block_seen)});
    }
    return sample;
  }
};

/// Parses a snapshot payload (the bytes inside the frame); false when the
/// bytes do not follow the layout.
template <typename T>
bool DecodeSampleSummary(const std::string& payload, bool weighted,
                         SampleSummaryState<T>* out) {
  SerdeReader r(payload);
  uint32_t fill = 0;
  uint64_t count = 0;
  out->weighted = weighted;
  if (!r.U32(&out->height) || !r.U64(&out->buffer_size) || !r.U64(&out->n) ||
      !r.U32(&fill) || !r.U64(&out->block_seen) || !r.U64(&out->block_pick) ||
      !r.Pod(&out->block_choice) || !r.Pod(&out->rng) || !r.U64(&count) ||
      count > 4096) {
    return false;
  }
  out->fill = static_cast<int32_t>(fill);
  out->buffers.assign(count, {});
  for (auto& b : out->buffers) {
    if ((weighted && !r.I64(&b.weight)) || !r.U32(&b.level) ||
        !r.U32(&b.full) || !r.PodVector(&b.data)) {
      return false;
    }
  }
  return r.Done();
}

/// The inverse of DecodeSampleSummary.
template <typename T>
std::string EncodeSampleSummary(const SampleSummaryState<T>& s) {
  SerdeWriter w;
  w.U32(s.height);
  w.U64(s.buffer_size);
  w.U64(s.n);
  w.U32(static_cast<uint32_t>(s.fill));
  w.U64(s.block_seen);
  w.U64(s.block_pick);
  w.Pod(s.block_choice);
  w.Pod(s.rng);
  w.U64(s.buffers.size());
  for (const auto& b : s.buffers) {
    if (s.weighted) w.I64(b.weight);
    w.U32(b.level);
    w.U32(b.full);
    w.PodVector(b.data);
  }
  return w.Take();
}

}  // namespace streamq

#endif  // STREAMQ_TESTS_SAMPLE_SUMMARY_CODEC_H_
