// Fixed-capacity single-producer / single-consumer ring buffer: the queue
// between the ingest front-end and one shard worker (see ingest_pipeline.h).
//
// Design (classic Lamport queue with index caching):
//
//  * Power-of-two capacity, slots indexed by monotonically increasing
//    64-bit positions masked into the array. head_ is owned by the
//    consumer, tail_ by the producer; neither side ever stores the other's
//    index.
//  * Both indices live on their own cache line (alignas(64)) together with
//    the opposite side's *cached* copy, so a push normally touches only the
//    producer line and a pop only the consumer line. The shared atomic is
//    re-read only when the cached copy suggests the ring is full (producer)
//    or empty (consumer) -- one cache-coherence round-trip per batch rather
//    than per element.
//  * Release/acquire pairing: the producer's tail_ store releases the slot
//    writes, the consumer's tail_ load acquires them (and symmetrically for
//    head_ on reuse of slots). No seq_cst, no fences, no locks.
//  * One producer primitive: FreeSlots(want) probes how many slots are
//    free, then Push(n, fill) fills n of them and publishes them with a
//    single release store, so a span costs one handshake however long it
//    is. The pipeline's producer sizes each shard's strided run from the
//    probe before writing anything (ingest_pipeline.h).
//  * No allocation after construction; FreeSlots/Push/PopBatch never
//    block.
//
// Thread-safety contract: at most one thread calls FreeSlots/Push and at
// most one thread calls PopBatch. This is exactly the pipeline's topology
// (one producer thread, one worker per ring) and is what makes the
// wait-free index protocol sufficient.

#ifndef STREAMQ_INGEST_SPSC_RING_H_
#define STREAMQ_INGEST_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace streamq::ingest {

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to the next power of two (minimum 2) so index
  /// masking replaces modulo on the hot path.
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return slots_.size(); }

  /// Producer side: free slots right now. Reads the producer's cached copy
  /// of the consumer index first and reloads head_ (the one cross-core
  /// handshake) only when that copy shows fewer than `want` free slots.
  /// The consumer only ever frees slots, so the result is a lower bound:
  /// a following Push of at most this many elements cannot overrun it.
  size_t FreeSlots(size_t want) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = static_cast<size_t>(slots_.size() - (tail - cached_head_));
    if (free < want) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = static_cast<size_t>(slots_.size() - (tail - cached_head_));
    }
    return free;
  }

  /// Producer side: writes fill(0), ..., fill(n - 1) into the next n slots
  /// in order and publishes all of them with ONE releasing tail_ store.
  /// n must not exceed the last FreeSlots() result; n == 0 is a no-op.
  template <typename Fill>
  void Push(size_t n, Fill fill) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) slots_[(tail + i) & mask_] = fill(i);
    tail_.store(tail + n, std::memory_order_release);
  }

  /// Consumer side: dequeues up to `max` elements into `out`, returning the
  /// number dequeued (0 when empty). Draining in batches amortises the
  /// producer-index load and the head_ publication over the whole batch.
  size_t PopBatch(T* out, size_t max) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == head) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == head) return 0;
    }
    size_t n = static_cast<size_t>(cached_tail_ - head);
    if (n > max) n = max;
    for (size_t i = 0; i < n; ++i) out[i] = slots_[(head + i) & mask_];
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Instantaneous queue depth. Callable from any thread; the value is a
  /// snapshot that may be stale by the time it is read (used for gauges
  /// only, never for synchronisation).
  size_t SizeApprox() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  // Consumer line: the consumer-owned index plus its cache of the producer's.
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;
  // Producer line, symmetric.
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;
};

}  // namespace streamq::ingest

#endif  // STREAMQ_INGEST_SPSC_RING_H_
