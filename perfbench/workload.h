// The benchmark's workloads and their generated inputs.
//
// Every input is a pure function of (workload, seed): each producer owns a
// pool of pre-encoded BATCH_INSERT frames that it sends in cyclic order,
// so nothing is generated or encoded inside a timed window, and the exact
// multiset a stream received is known from how many frames were acked.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exact/exact_oracle.h"
#include "net/protocol.h"

namespace perfbench {

enum class Dist { kUniform32, kNormal };

struct StreamSpec {
  std::string name;
  streamq::net::CreateParams params;
};

struct WorkloadSpec {
  std::string name;
  bool open_loop = false;
  std::vector<StreamSpec> streams;
  /// Stream index each producer connection writes to.
  std::vector<int> producer_stream;
  Dist dist = Dist::kUniform32;
  size_t frame_values = 4096;
  size_t pool_frames = 64;
  /// Closed loop: BATCH_INSERT frames in flight per producer.
  size_t window_frames = 16;
  /// Open loop: offered values per second over all producers.
  double rate_vals_per_s = 0.0;
  /// Open loop: each producer sends a FLUSH after every this many frames.
  int flush_every = 0;
  /// Open loop: QUERY/RANK requests per second on the reader connection.
  double read_rate = 0.0;
  /// Server flags.
  bool audit = false;
  uint64_t audit_interval_ms = 0;

  bool durable() const;
};

/// The three workloads by name; false for an unknown name.
bool MakeWorkload(const std::string& name, WorkloadSpec* out);

/// The repo's ERROR_SLACK for the randomized summaries served here
/// (Random, DCS): answers must be within slack * eps * n ranks.
inline constexpr double kErrorSlack = 3.0;

/// The phi grid every correctness check and reader request uses.
const std::vector<double>& PhiGrid();

/// One producer's inputs.
struct FramePool {
  std::vector<std::vector<uint64_t>> values;  // pool_frames x frame_values
  std::vector<std::string> frames;            // encoded BATCH_INSERT
  std::string flush_frame;                    // encoded FLUSH
};

/// Builds producer `producer`'s pool. *encode_ns receives the time spent
/// in EncodeRequest.
FramePool BuildPool(const WorkloadSpec& spec, int producer, uint64_t seed,
                    double* encode_ns);

/// Request ids on the wire: frames carry their pool index + 1; these mark
/// the other requests.
inline constexpr uint64_t kFlushId = 1u << 30;
inline constexpr uint64_t kReadIdBase = 1u << 31;

/// Exact answers over what a stream received. A producer that had `acked`
/// frames acked sent its pool in cyclic order, so frames [0, acked % P)
/// were received floor(acked / P) + 1 times and the rest floor(acked / P)
/// times: two ExactOracles per producer with integer weights.
class SentOracle {
 public:
  void AddProducer(const FramePool& pool, uint64_t acked_frames);

  uint64_t n() const { return n_; }
  /// [#{< x}, #{<= x}] over the weighted union.
  std::pair<uint64_t, uint64_t> RankInterval(uint64_t x) const;
  /// The element of rank floor(phi * n).
  uint64_t Quantile(double phi) const;
  /// Normalised error of a reported phi-quantile (paper's protocol: the
  /// distance from phi * n to q's rank interval, over n).
  double QuantileError(uint64_t q, double phi) const;
  /// Normalised error of an estimated rank of `value`.
  double RankError(int64_t estimate, uint64_t value) const;

 private:
  /// Distance from `target` to x's rank interval, over n.
  double IntervalError(double target, uint64_t x) const;

  struct Part {
    std::unique_ptr<streamq::ExactOracle> oracle;
    uint64_t weight = 0;
  };
  std::vector<Part> parts_;
  uint64_t n_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
