#include "cluster/shipping.h"

#include <algorithm>

namespace streamq {

bool ShippingRules::Triggered(uint64_t count) const {
  // In double precision: with nothing shipped yet the trigger is 0, so the
  // first observation ships at once.
  const double trigger =
      (1.0 + theta_) * static_cast<double>(last_shipped_count_);
  return static_cast<double>(count) >= trigger;
}

uint64_t ShippingRules::Shipped(uint64_t now, uint64_t count,
                                bool retransmit) {
  last_shipped_count_ = count;
  needs_reship_ = false;
  ++shipments_;
  if (retransmit) {
    ++retransmits_;
    backoff_ = std::min(backoff_ * 2, retry_.max_backoff);
  } else {
    backoff_ = retry_.initial_backoff;
  }
  next_retry_at_ = now + backoff_;
  return ++last_sent_;
}

bool ShippingRules::Acked(const AckFrame& ack) {
  const bool fast_forward = ack.seq > last_sent_;
  if (fast_forward) {
    last_sent_ = ack.seq;
    needs_reship_ = true;
  }
  last_acked_ = std::max(last_acked_, ack.seq);
  if ((ack.flags & kAckFlagReship) != 0) needs_reship_ = true;
  return fast_forward;
}

}  // namespace streamq
