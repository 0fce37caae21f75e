// Fault-injecting Conn decorator, the network-tier twin of FaultyChannel
// (src/cluster/channel.h) and FaultyStorage (src/durability/): every
// failure mode is driven by one seed, so a failing chaos run replays
// exactly from its seed.
//
// FaultyConn wraps any Conn -- a loopback endpoint (sanitizer-clean unit
// tests) or a SocketConn (TCP chaos) -- and perturbs the byte stream at
// the I/O boundary, below the frame layer, so every fault lands exactly
// where a hostile network would put it:
//
//  * short reads / short writes: the op transfers a strict prefix of what
//    the caller asked for (never losing bytes: the cap is applied to the
//    request BEFORE touching the base conn, so unread data stays queued);
//  * spurious would-blocks: the op returns 0 without touching the base,
//    exercising every retry loop above it;
//  * read/write bit flips: one random bit of the transferred bytes flips
//    (write-side flips corrupt what the PEER will parse), driving the
//    frame layer's CRC rejection and header-poison paths;
//  * resets: the op returns -1 and the conn closes -- a mid-frame RST;
//  * stalls: the conn enters an indefinite stall (all I/O would-blocks,
//    Wait* times out) until ClearStall() -- a peer that went silent
//    without closing, which only deadline eviction can clear.
//
// Probabilistic faults roll per operation (ConnFaultSpec); deterministic
// triggers (reset_after_bytes / stall_after_bytes, InjectReset /
// InjectStall) place a fault at an exact byte offset for targeted tests.
// Connect-time failures belong to the dialing side, before a Conn exists:
// connection factories roll FaultDice::Roll(spec.fail_connect) and return
// nullptr, which is exactly what a refused TCP connect looks like to
// ResilientClient.
//
// Thread-safe: a client thread writes while the server pump thread reads
// the peer end, and tests inject resets/stalls from outside; all fault
// state serialises on one mutex. Test double -- the lock cost is
// irrelevant.

#ifndef STREAMQ_NET_FAULTY_CONN_H_
#define STREAMQ_NET_FAULTY_CONN_H_

#include <cstdint>
#include <memory>
#include <mutex>

#include "net/conn.h"
#include "util/random.h"

namespace streamq::net {

/// Per-operation fault probabilities, all in [0, 1]. Default: none.
struct ConnFaultSpec {
  /// A Read asks the base conn for only a strict prefix of `n` (n > 1).
  double short_read = 0.0;
  /// A Write hands the base conn only a strict prefix of `n` (n > 1).
  double short_write = 0.0;
  /// A Read spuriously returns 0 (would-block) without touching the base.
  double read_would_block = 0.0;
  /// A Write spuriously returns 0 without touching the base.
  double write_would_block = 0.0;
  /// One random bit of the bytes a Read delivered flips.
  double bit_flip_read = 0.0;
  /// One random bit of the bytes a Write transferred flips (the peer
  /// receives the corrupted byte; the caller believes it sent clean data).
  double bit_flip_write = 0.0;
  /// The op returns -1 and the conn closes (connection reset).
  double reset = 0.0;
  /// The conn enters an indefinite stall (see ClearStall / InjectStall).
  double stall = 0.0;
  /// A connection attempt fails before a Conn exists. Not rolled by
  /// FaultyConn itself -- dialing factories roll it via FaultDice.
  double fail_connect = 0.0;

  /// Deterministic triggers on total bytes transferred (reads + writes
  /// through this wrapper); 0 = unarmed. Fire once, just before the op
  /// that would cross the threshold -- so `reset_after_bytes = 10` kills
  /// the conn mid-frame with exactly 10 bytes delivered.
  uint64_t reset_after_bytes = 0;
  uint64_t stall_after_bytes = 0;

  static ConnFaultSpec Perfect() { return ConnFaultSpec{}; }
};

/// Running totals, readable while the conn is live (test assertions).
struct ConnFaultStats {
  uint64_t reads = 0;   ///< Read calls that reached the dice
  uint64_t writes = 0;  ///< Write calls that reached the dice
  uint64_t short_reads = 0;
  uint64_t short_writes = 0;
  uint64_t read_blocks = 0;
  uint64_t write_blocks = 0;
  uint64_t bit_flips_read = 0;
  uint64_t bit_flips_write = 0;
  uint64_t resets = 0;
  uint64_t stalls = 0;
};

class FaultyConn : public Conn {
 public:
  /// Takes ownership of `base` (close-on-destroy follows the wrapper).
  FaultyConn(std::unique_ptr<Conn> base, const ConnFaultSpec& spec,
             uint64_t seed);
  ~FaultyConn() override;

  int Read(char* buf, size_t n) override;
  int Write(const char* buf, size_t n) override;
  void Close() override;
  bool WaitReadable(int timeout_ms) override;
  bool WaitWritable(int timeout_ms) override;
  int fd() const override;

  /// Forces an immediate reset: every later op returns -1 and the base
  /// closes (same as the probabilistic `reset` firing).
  void InjectReset();
  /// Forces an immediate stall: every later op returns 0 and Wait* times
  /// out, until ClearStall(). Models a silent peer.
  void InjectStall();
  void ClearStall();

  bool stalled() const;
  ConnFaultStats stats() const;

 private:
  double NextUnit();                 // requires mutex_ held
  bool CrossesByteTrigger(size_t n); // requires mutex_ held
  void FlipBit(char* data, size_t n, uint64_t* counter);  // mutex_ held

  const std::unique_ptr<Conn> base_;
  const ConnFaultSpec spec_;

  mutable std::mutex mutex_;
  Xoshiro256 rng_;
  bool reset_ = false;
  bool stalled_ = false;
  uint64_t transferred_ = 0;  // bytes moved through Read + Write
  ConnFaultStats stats_;
};

/// Seeded dice for faults that happen before a Conn exists (connect-time
/// failures in a connection factory). Thread-safe.
class FaultDice {
 public:
  explicit FaultDice(uint64_t seed) : rng_(seed) {}

  /// True with probability p.
  bool Roll(double p) {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53 < p;
  }

 private:
  std::mutex mutex_;
  Xoshiro256 rng_;
};

}  // namespace streamq::net

#endif  // STREAMQ_NET_FAULTY_CONN_H_
