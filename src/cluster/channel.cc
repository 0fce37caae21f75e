#include "cluster/channel.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace streamq {

FaultyChannel::FaultyChannel(const FaultSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed) {}

// Min-heap on (deliver_at, order): the std::*_heap family builds a max-heap,
// so "arrives later" must sort as lower priority.
bool FaultyChannel::ArrivesLater(const InFlight& a, const InFlight& b) {
  if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
  return a.order > b.order;
}

void FaultyChannel::Send(uint64_t now, std::string bytes) {
  ++stats_.sent;
  stats_.bytes_offered += bytes.size();
  STREAMQ_TRACE_INSTANT(obs::TracePoint::kChannelSend, bytes.size());
  if (spec_.Perfect()) {
    // Fast path: no RNG consumption, instantaneous delivery.
    in_flight_.push_back(InFlight{now, order_counter_++, std::move(bytes)});
    std::push_heap(in_flight_.begin(), in_flight_.end(), ArrivesLater);
    return;
  }
  const int copies = rng_.NextDouble() < spec_.duplicate ? 2 : 1;
  if (copies == 2) ++stats_.duplicated;
  for (int c = 0; c < copies; ++c) {
    if (rng_.NextDouble() < spec_.drop) {
      ++stats_.dropped;
      continue;
    }
    Enqueue(now, bytes);
  }
}

void FaultyChannel::Enqueue(uint64_t now, const std::string& bytes) {
  uint64_t delay = spec_.min_delay;
  if (spec_.max_delay > spec_.min_delay) {
    delay += rng_.Below(spec_.max_delay - spec_.min_delay + 1);
  }
  if (spec_.reorder > 0.0 && rng_.NextDouble() < spec_.reorder) {
    delay += 1 + rng_.Below(std::max<uint64_t>(spec_.reorder_extra, 1));
    ++stats_.reordered;
  }
  std::string copy = bytes;
  if (spec_.corrupt > 0.0 && !copy.empty() &&
      rng_.NextDouble() < spec_.corrupt) {
    const size_t pos = static_cast<size_t>(rng_.Below(copy.size()));
    // XOR with a non-zero mask: the byte always actually changes.
    copy[pos] = static_cast<char>(
        copy[pos] ^ static_cast<char>(1 + rng_.Below(255)));
    ++stats_.corrupted;
  }
  in_flight_.push_back(
      InFlight{now + delay, order_counter_++, std::move(copy)});
  std::push_heap(in_flight_.begin(), in_flight_.end(), ArrivesLater);
}

std::vector<std::string> FaultyChannel::Poll(uint64_t now) {
  std::vector<std::string> out;
  while (!in_flight_.empty() && in_flight_.front().deliver_at <= now) {
    std::pop_heap(in_flight_.begin(), in_flight_.end(), ArrivesLater);
    InFlight msg = std::move(in_flight_.back());
    in_flight_.pop_back();
    ++stats_.delivered;
    stats_.bytes_delivered += msg.bytes.size();
    STREAMQ_TRACE_INSTANT(obs::TracePoint::kChannelRecv, msg.bytes.size());
    out.push_back(std::move(msg.bytes));
  }
  return out;
}

}  // namespace streamq
