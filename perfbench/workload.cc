#include "workload.h"

#include <algorithm>
#include <random>

#include "util.h"

namespace perfbench {

namespace net = streamq::net;

bool WorkloadSpec::durable() const {
  for (const StreamSpec& s : streams) {
    if (s.params.durable) return true;
  }
  return false;
}

bool MakeWorkload(const std::string& name, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  net::CreateParams params;
  params.shards = 0;  // the server's default (2)
  if (name == "bulk-random" || name == "bulk-dcs") {
    params.durable = false;
    if (name == "bulk-random") {
      params.algorithm = "Random";
      params.eps = 0.001;
    } else {
      params.algorithm = "DCS";
      params.eps = 0.01;
      params.log_universe = 32;
      params.depth = 7;
    }
    spec.streams = {{"bulk", params}};
    spec.producer_stream = {0, 0};
    spec.dist = Dist::kUniform32;
    spec.window_frames = 16;
  } else if (name == "mixed-durable") {
    params.algorithm = "Random";
    params.eps = 0.001;
    params.durable = true;
    spec.open_loop = true;
    spec.streams = {{"mixed0", params}, {"mixed1", params}};
    spec.producer_stream = {0, 1};
    spec.dist = Dist::kNormal;
    spec.rate_vals_per_s = 1e6;
    spec.flush_every = 8;
    spec.read_rate = 100.0;
    spec.audit = true;
    spec.audit_interval_ms = 1000;
  } else {
    return false;
  }
  *out = spec;
  return true;
}

const std::vector<double>& PhiGrid() {
  static const std::vector<double> grid = {0.01, 0.05, 0.1, 0.25, 0.5,
                                           0.75, 0.9,  0.95, 0.99};
  return grid;
}

FramePool BuildPool(const WorkloadSpec& spec, int producer, uint64_t seed,
                    double* encode_ns) {
  FramePool pool;
  // One independent generator per (seed, producer).
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED270B27ull +
                      static_cast<uint64_t>(producer) * 0xD1B54A32D192ED03ull);
  std::normal_distribution<double> normal(2147483648.0, 536870912.0);
  const std::string& stream =
      spec.streams[static_cast<size_t>(spec.producer_stream[producer])].name;
  pool.values.resize(spec.pool_frames);
  for (auto& frame : pool.values) {
    frame.resize(spec.frame_values);
    for (uint64_t& v : frame) {
      if (spec.dist == Dist::kUniform32) {
        v = rng() & 0xFFFFFFFFull;
      } else {
        const double x = std::clamp(normal(rng), 0.0, 4294967295.0);
        v = static_cast<uint64_t>(x);
      }
    }
  }
  const uint64_t t0 = NowNs();
  pool.frames.reserve(spec.pool_frames);
  for (size_t f = 0; f < spec.pool_frames; ++f) {
    net::NetRequest req;
    req.id = f + 1;
    req.op = net::NetOp::kBatchInsert;
    req.stream = stream;
    req.values = pool.values[f];
    pool.frames.push_back(net::EncodeRequest(req));
  }
  *encode_ns = static_cast<double>(NowNs() - t0);
  net::NetRequest flush;
  flush.id = kFlushId;
  flush.op = net::NetOp::kFlush;
  flush.stream = stream;
  pool.flush_frame = net::EncodeRequest(flush);
  return pool;
}

void SentOracle::AddProducer(const FramePool& pool, uint64_t acked_frames) {
  const uint64_t p = pool.values.size();
  const uint64_t full = acked_frames / p;
  const uint64_t rem = acked_frames % p;
  auto gather = [&](uint64_t from, uint64_t to) {
    std::vector<uint64_t> data;
    for (uint64_t f = from; f < to; ++f) {
      data.insert(data.end(), pool.values[f].begin(), pool.values[f].end());
    }
    return data;
  };
  if (rem > 0) {
    Part part;
    part.oracle = std::make_unique<streamq::ExactOracle>(gather(0, rem));
    part.weight = full + 1;
    n_ += part.oracle->n() * part.weight;
    parts_.push_back(std::move(part));
  }
  if (full > 0) {
    Part part;
    part.oracle = std::make_unique<streamq::ExactOracle>(gather(rem, p));
    part.weight = full;
    n_ += part.oracle->n() * part.weight;
    parts_.push_back(std::move(part));
  }
}

std::pair<uint64_t, uint64_t> SentOracle::RankInterval(uint64_t x) const {
  uint64_t lt = 0, le = 0;
  for (const Part& part : parts_) {
    const auto [a, b] = part.oracle->RankInterval(x);
    lt += a * part.weight;
    le += b * part.weight;
  }
  return {lt, le};
}

uint64_t SentOracle::Quantile(double phi) const {
  // Smallest v with #{<= v} > floor(phi * n): binary search over values.
  const uint64_t target = static_cast<uint64_t>(phi * static_cast<double>(n_));
  uint64_t lo = 0, hi = 0;
  for (const Part& part : parts_) {
    if (part.oracle->n() > 0) hi = std::max(hi, part.oracle->sorted().back());
  }
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (RankInterval(mid).second > target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

double SentOracle::IntervalError(double target, uint64_t x) const {
  if (n_ == 0) return 0.0;
  const auto [lt, le] = RankInterval(x);
  double dist = 0.0;
  if (target < static_cast<double>(lt)) dist = static_cast<double>(lt) - target;
  if (target > static_cast<double>(le)) dist = target - static_cast<double>(le);
  return dist / static_cast<double>(n_);
}

double SentOracle::QuantileError(uint64_t q, double phi) const {
  return IntervalError(phi * static_cast<double>(n_), q);
}

double SentOracle::RankError(int64_t estimate, uint64_t value) const {
  return IntervalError(static_cast<double>(estimate), value);
}

}  // namespace perfbench
