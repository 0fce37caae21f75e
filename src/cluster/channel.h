// Transport abstraction between senders (monitor sites, cluster nodes) and
// the coordinator, with a deterministic, seed-driven fault injector.
//
// Everything crossing the channel is an opaque byte string (a framed
// snapshot, see util/serde.h); the channel neither parses nor trusts it.
// Time is virtual: the owner advances a tick counter (one tick per observed
// element in the monitor) and polls for messages whose delivery time has
// arrived, so every experiment is reproducible bit-for-bit with no wall
// clocks.
//
// Injected faults, each with an independent probability per message copy:
//   * drop        — the copy never arrives.
//   * duplicate   — a second, independently delayed/corrupted copy is sent.
//   * reorder     — the copy is held back extra ticks, letting later sends
//                   overtake it.
//   * corrupt     — one byte of the copy is flipped (which the CRC32C frame
//                   check on the receiving side must catch).
// plus a uniform per-copy delivery delay in [min_delay, max_delay] ticks.

#ifndef STREAMQ_CLUSTER_CHANNEL_H_
#define STREAMQ_CLUSTER_CHANNEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.h"

namespace streamq {

/// Fault probabilities and delay model of one channel direction. The
/// default is a perfect, instantaneous channel.
struct FaultSpec {
  double drop = 0.0;       ///< P(copy is lost)
  double duplicate = 0.0;  ///< P(message is sent twice)
  double reorder = 0.0;    ///< P(copy is held back reorder_extra ticks)
  double corrupt = 0.0;    ///< P(one byte of the copy is flipped)
  uint64_t min_delay = 0;  ///< minimum delivery delay, ticks
  uint64_t max_delay = 0;  ///< maximum delivery delay, ticks
  uint64_t reorder_extra = 64;  ///< extra hold-back when reordered, ticks

  bool Perfect() const {
    return drop == 0.0 && duplicate == 0.0 && reorder == 0.0 &&
           corrupt == 0.0 && min_delay == 0 && max_delay == 0;
  }
};

/// Per-channel accounting (all copies, i.e. retransmits included).
struct ChannelStats {
  size_t sent = 0;        ///< messages offered by the sender
  size_t delivered = 0;   ///< copies handed to the receiver
  size_t dropped = 0;     ///< copies lost
  size_t duplicated = 0;  ///< extra copies injected
  size_t reordered = 0;   ///< copies held back
  size_t corrupted = 0;   ///< copies with a flipped byte
  size_t bytes_offered = 0;    ///< bytes the sender put on the wire
  size_t bytes_delivered = 0;  ///< bytes that reached the receiver
};

/// One direction of a lossy transport under virtual time.
class FaultyChannel {
 public:
  FaultyChannel(const FaultSpec& spec, uint64_t seed);

  /// Offers one message at time `now`; faults are applied immediately and
  /// deterministically (seed-driven).
  void Send(uint64_t now, std::string bytes);

  /// Removes and returns every copy whose delivery time is <= now, in
  /// delivery order (delivery time, then send order).
  std::vector<std::string> Poll(uint64_t now);

  /// True when nothing is in flight.
  bool Idle() const { return in_flight_.empty(); }

  const ChannelStats& stats() const { return stats_; }

 private:
  struct InFlight {
    uint64_t deliver_at;
    uint64_t order;  // tie-break: send order
    std::string bytes;
  };

  static bool ArrivesLater(const InFlight& a, const InFlight& b);
  void Enqueue(uint64_t now, const std::string& bytes);

  FaultSpec spec_;
  Xoshiro256 rng_;
  uint64_t order_counter_ = 0;
  std::vector<InFlight> in_flight_;  // min-heap on (deliver_at, order)
  ChannelStats stats_;
};

}  // namespace streamq

#endif  // STREAMQ_CLUSTER_CHANNEL_H_
