// Snapshot hardening: a corrupted snapshot must never be accepted.
//
// For every sketch with Save/Load we take a small valid snapshot and flip
// every single byte in turn (all 8 bit positions would be 8x slower for no
// extra coverage: the CRC32C detects any single flipped bit, so one mask per
// position exercises every code path). Each corrupted snapshot must be
// rejected cleanly — Deserialize returns nullptr, no crash, no partially
// constructed sketch. Truncations and extensions of the frame must fail
// too.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "cluster/wire.h"
#include "quantile/cash_register.h"
#include "quantile/dyadic_quantile.h"
#include "quantile/fast_qdigest.h"
#include "sample_summary_codec.h"
#include "util/serde.h"

namespace streamq {
namespace {

struct SnapshotCase {
  std::string name;
  std::string bytes;
  // Returns nullptr-ness of the deserialization attempt.
  std::function<bool(const std::string&)> loads;
};

template <typename Sketch>
SnapshotCase MakeCase(std::string name, std::unique_ptr<Sketch> sketch) {
  SnapshotCase c;
  c.name = std::move(name);
  c.bytes = sketch->Serialize();
  c.loads = [](const std::string& bytes) {
    return Sketch::Deserialize(bytes) != nullptr;
  };
  return c;
}

std::vector<SnapshotCase> AllSnapshotCases() {
  // Small streams and coarse parameters keep the snapshots (and thus the
  // number of byte positions to sweep) small.
  std::vector<SnapshotCase> cases;
  {
    auto s = std::make_unique<GkTheory>(0.1);
    for (uint64_t v = 0; v < 200; ++v) s->Insert(v * 17 % 1000);
    cases.push_back(MakeCase("GKTheory", std::move(s)));
  }
  {
    auto s = std::make_unique<GkAdaptive>(0.1);
    for (uint64_t v = 0; v < 200; ++v) s->Insert(v * 31 % 1000);
    cases.push_back(MakeCase("GKAdaptive", std::move(s)));
  }
  {
    auto s = std::make_unique<GkArray>(0.1);
    for (uint64_t v = 0; v < 200; ++v) s->Insert(v * 13 % 1000);
    cases.push_back(MakeCase("GKArray", std::move(s)));
  }
  {
    auto s = std::make_unique<RandomSketch>(0.1, 7);
    for (uint64_t v = 0; v < 200; ++v) s->Insert(v * 7 % 1000);
    cases.push_back(MakeCase("Random", std::move(s)));
  }
  {
    auto s = std::make_unique<Mrl99>(0.1, 7);
    for (uint64_t v = 0; v < 200; ++v) s->Insert(v * 11 % 1000);
    cases.push_back(MakeCase("MRL99", std::move(s)));
  }
  {
    auto s = std::make_unique<FastQDigest>(0.1, 10);
    for (uint64_t v = 0; v < 200; ++v) s->Insert(v % 1024);
    cases.push_back(MakeCase("FastQDigest", std::move(s)));
  }
  {
    auto s = Dcm::WithWidth(16, 2, 8, 7);
    for (uint64_t v = 0; v < 200; ++v) s->Insert(v % 256);
    cases.push_back(MakeCase("DCM", std::move(s)));
  }
  {
    auto s = Dcs::WithWidth(16, 2, 8, 7);
    for (uint64_t v = 0; v < 200; ++v) s->Insert(v % 256);
    cases.push_back(MakeCase("DCS", std::move(s)));
  }
  return cases;
}

TEST(CorruptionTest, ValidSnapshotsLoad) {
  for (const SnapshotCase& c : AllSnapshotCases()) {
    EXPECT_TRUE(c.loads(c.bytes)) << c.name;
  }
}

TEST(CorruptionTest, EveryFlippedByteIsRejected) {
  for (const SnapshotCase& c : AllSnapshotCases()) {
    ASSERT_GE(c.bytes.size(), kFrameHeaderBytes) << c.name;
    for (size_t i = 0; i < c.bytes.size(); ++i) {
      std::string corrupted = c.bytes;
      corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
      EXPECT_FALSE(c.loads(corrupted))
          << c.name << ": flipped byte " << i << " of " << c.bytes.size()
          << " was accepted";
    }
  }
}

TEST(CorruptionTest, TruncationsAndExtensionsAreRejected) {
  for (const SnapshotCase& c : AllSnapshotCases()) {
    EXPECT_FALSE(c.loads(std::string())) << c.name;
    // Every proper prefix, including a cut inside the header.
    for (size_t len : {size_t{1}, kFrameHeaderBytes - 1, kFrameHeaderBytes,
                       c.bytes.size() / 2, c.bytes.size() - 1}) {
      EXPECT_FALSE(c.loads(c.bytes.substr(0, len)))
          << c.name << ": prefix of " << len;
    }
    EXPECT_FALSE(c.loads(c.bytes + std::string(1, '\0')))
        << c.name << ": one trailing byte";
    EXPECT_FALSE(c.loads(c.bytes + c.bytes)) << c.name << ": doubled";
  }
}

// Merge and the queries of Random and MRL99 read every full buffer as a
// sorted run, so a snapshot with a full buffer out of order must not load,
// even when its CRC is right: swap two elements, re-frame, expect nullptr.
template <typename Sketch>
void ExpectUnsortedFullBufferRejected(SnapshotType type, bool weighted) {
  Sketch sketch(0.1, 7);
  for (uint64_t v = 0; v < 200; ++v) sketch.Insert(v * 7 % 1000);
  std::string payload;
  ASSERT_TRUE(UnframeSnapshot(sketch.Serialize(), type, &payload));
  SampleSummaryState<uint64_t> state;
  ASSERT_TRUE(DecodeSampleSummary(payload, weighted, &state));
  // The forging path itself yields a loadable snapshot.
  ASSERT_EQ(EncodeSampleSummary(state), payload);
  ASSERT_NE(Sketch::Deserialize(FrameSnapshot(type, payload)), nullptr);

  const auto full =
      std::find_if(state.buffers.begin(), state.buffers.end(), [](auto& b) {
        return b.full != 0 && b.data.front() != b.data.back();
      });
  ASSERT_NE(full, state.buffers.end());
  std::swap(full->data.front(), full->data.back());
  EXPECT_EQ(Sketch::Deserialize(FrameSnapshot(type, EncodeSampleSummary(state))),
            nullptr);
}

TEST(CorruptionTest, UnsortedFullBufferIsRejected) {
  ExpectUnsortedFullBufferRejected<RandomSketch>(SnapshotType::kRandom,
                                                 /*weighted=*/false);
  ExpectUnsortedFullBufferRejected<Mrl99>(SnapshotType::kMrl99,
                                          /*weighted=*/true);
}

// A sampler snapshot whose CRC is right but whose structure the summary
// could never reach must not load either: re-frame an edited valid
// snapshot, expect nullptr. Loaded, such a snapshot grows without bound
// (capacity 0), shifts past 64 bits (a level whose weight 2^level does not
// fit) or overflows the int64 rank sums.
template <typename Sketch>
class SamplerForgery {
 public:
  SamplerForgery(SnapshotType type, bool weighted, uint64_t n)
      : type_(type) {
    Sketch sketch(0.1, 7);  // h = 4: 5 buffers of 20
    for (uint64_t v = 0; v < n; ++v) sketch.Insert(v * 7 % 1000);
    std::string payload;
    EXPECT_TRUE(UnframeSnapshot(sketch.Serialize(), type, &payload));
    EXPECT_TRUE(DecodeSampleSummary(payload, weighted, &valid_));
    EXPECT_EQ(EncodeSampleSummary(valid_), payload);
  }

  const SampleSummaryState<uint64_t>& valid() const { return valid_; }

  // Whether the valid snapshot, edited by `edit`, loads.
  template <typename Edit>
  bool Loads(Edit edit) const {
    SampleSummaryState<uint64_t> s = valid_;
    edit(s);
    return Sketch::Deserialize(FrameSnapshot(type_, EncodeSampleSummary(s))) !=
           nullptr;
  }

 private:
  SnapshotType type_;
  SampleSummaryState<uint64_t> valid_;
};

template <typename Sketch>
void ExpectImpossibleShapeRejected(SnapshotType type, bool weighted) {
  const SamplerForgery<Sketch> empty(type, weighted, 0);
  using State = SampleSummaryState<uint64_t>;
  EXPECT_TRUE(empty.Loads([](State&) {}));
  EXPECT_FALSE(empty.Loads([](State& s) {
    s.height = 0;
    s.buffers.resize(1);
  })) << "height 0";
  EXPECT_FALSE(empty.Loads([](State& s) { s.buffers.emplace_back(); }))
      << "h + 2 buffers";
  EXPECT_FALSE(empty.Loads([](State& s) { s.buffers.pop_back(); }))
      << "h buffers";
  EXPECT_FALSE(empty.Loads([](State& s) { s.buffer_size = 0; }))
      << "capacity 0";
  EXPECT_FALSE(empty.Loads([](State& s) { s.buffer_size = 7; }))
      << "capacity 7";
  EXPECT_TRUE(empty.Loads([](State& s) { s.buffer_size = 8; }))
      << "capacity 8, the floor";

  const SamplerForgery<Sketch> midstream(type, weighted, 1'000);
  ASSERT_TRUE(midstream.Loads([](State&) {}));
  for (uint32_t level : {63u, 64u, 0x80000001u}) {
    EXPECT_FALSE(midstream.Loads([&](State& s) { s.buffers[0].level = level; }))
        << "level " << level;
  }
  size_t longest = 0, at = 0;
  for (size_t i = 0; i < midstream.valid().buffers.size(); ++i) {
    const size_t length = midstream.valid().buffers[i].data.size();
    if (length > longest) {
      longest = length;
      at = i;
    }
  }
  ASSERT_GT(longest, 8u);
  EXPECT_FALSE(midstream.Loads([&](State& s) { s.buffer_size = longest - 1; }))
      << "a buffer longer than the capacity";
  // Level 62 fits the weight, but 2^62 times the buffer's length overflows
  // the rank sums.
  EXPECT_FALSE(midstream.Loads([&](State& s) {
    s.buffers[at].level = 62;
    s.buffers[at].weight = int64_t{1} << 62;
  })) << "weight 2^62 on a buffer of " << longest;
}

template <typename Sketch>
void ExpectImpossibleFillRejected(SnapshotType type, bool weighted) {
  // 1,001 values leave a fill buffer at level 3 with one value of its
  // block of 8.
  const SamplerForgery<Sketch> forgery(type, weighted, 1'001);
  using State = SampleSummaryState<uint64_t>;
  const State& valid = forgery.valid();
  ASSERT_GE(valid.fill, 0);
  const auto& fill = valid.buffers[static_cast<size_t>(valid.fill)];
  ASSERT_EQ(fill.full, 0u);
  ASSERT_EQ(fill.level, 3u);
  ASSERT_EQ(valid.block_seen, 1u);
  ASSERT_TRUE(forgery.Loads([](State&) {}));

  int32_t full = -1;
  for (size_t i = 0; i < valid.buffers.size(); ++i) {
    if (valid.buffers[i].full != 0) full = static_cast<int32_t>(i);
  }
  ASSERT_GE(full, 0);
  EXPECT_FALSE(forgery.Loads([&](State& s) { s.fill = full; }))
      << "fill index on a full buffer";
  EXPECT_FALSE(forgery.Loads([](State& s) {
    s.fill = static_cast<int32_t>(s.buffers.size());
  })) << "fill index past the buffers";
  EXPECT_FALSE(forgery.Loads([](State& s) { s.fill = -2; }))
      << "fill index -2";
  EXPECT_FALSE(forgery.Loads([](State& s) { s.fill = -1; }))
      << "a block in progress with no fill buffer";
  EXPECT_TRUE(forgery.Loads([](State& s) {
    s.fill = -1;
    s.block_seen = 0;
  })) << "no fill buffer, no block";
  EXPECT_TRUE(forgery.Loads([](State& s) { s.block_seen = 7; }))
      << "block position inside the fill weight";
  EXPECT_FALSE(forgery.Loads([](State& s) { s.block_seen = 8; }))
      << "block position at the fill weight";
  EXPECT_FALSE(forgery.Loads([](State& s) { s.block_pick = 8; }))
      << "block pick at the fill weight";
  if (weighted) {
    EXPECT_FALSE(forgery.Loads([](State& s) {
      s.buffers[static_cast<size_t>(s.fill)].weight = 4;
    })) << "fill buffer weight other than 2^level";
  }
}

TEST(CorruptionTest, ImpossibleSamplerShapeIsRejected) {
  ExpectImpossibleShapeRejected<RandomSketch>(SnapshotType::kRandom,
                                              /*weighted=*/false);
  ExpectImpossibleShapeRejected<Mrl99>(SnapshotType::kMrl99,
                                       /*weighted=*/true);
}

TEST(CorruptionTest, ImpossibleSamplerFillPositionIsRejected) {
  ExpectImpossibleFillRejected<RandomSketch>(SnapshotType::kRandom,
                                             /*weighted=*/false);
  ExpectImpossibleFillRejected<Mrl99>(SnapshotType::kMrl99,
                                      /*weighted=*/true);
}

TEST(CorruptionTest, EveryFlippedAckByteIsRejected) {
  // The ack return path gets the same CRC32C framing as the shipments it
  // confirms (cluster/wire.h, shared by monitor sites and cluster nodes):
  // a flipped ack byte must drop the ack, never misparse it into a bogus
  // epoch horizon that desynchronises the retry protocol.
  AckFrame ack;
  ack.node = 3;
  ack.seq = 0x0123456789ABCDEFull;
  ack.flags = kAckFlagReship;
  const std::string bytes = EncodeAck(ack);
  AckFrame decoded;
  ASSERT_TRUE(DecodeAck(bytes, &decoded));
  EXPECT_EQ(decoded.node, ack.node);
  EXPECT_EQ(decoded.seq, ack.seq);
  EXPECT_EQ(decoded.flags, ack.flags);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    AckFrame scratch;
    scratch.node = 77;
    scratch.seq = 99;
    EXPECT_FALSE(DecodeAck(corrupted, &scratch))
        << "flipped ack byte " << i << " of " << bytes.size()
        << " was accepted";
    EXPECT_EQ(scratch.node, 77u) << "rejected ack mutated *out";
    EXPECT_EQ(scratch.seq, 99u) << "rejected ack mutated *out";
  }
  // Truncations, extensions, and the empty string.
  AckFrame scratch;
  EXPECT_FALSE(DecodeAck(std::string(), &scratch));
  EXPECT_FALSE(DecodeAck(bytes.substr(0, bytes.size() - 1), &scratch));
  EXPECT_FALSE(DecodeAck(bytes + std::string(1, '\0'), &scratch));
  // The type tag is checked too: the same payload re-framed under another
  // tag (here the shipment's) is not an ack.
  std::string payload;
  ASSERT_TRUE(UnframeSnapshot(bytes, SnapshotType::kClusterAck, &payload));
  EXPECT_FALSE(DecodeAck(
      FrameSnapshot(SnapshotType::kClusterShipment, payload), &scratch));
}

TEST(CorruptionTest, MismatchedSnapshotTypeIsRejected) {
  // A bit-perfect GKArray snapshot must not load as any other sketch: the
  // type tag in the frame header distinguishes them.
  GkArray s(0.1);
  for (uint64_t v = 0; v < 100; ++v) s.Insert(v);
  const std::string bytes = s.Serialize();
  EXPECT_NE(GkArray::Deserialize(bytes), nullptr);
  EXPECT_EQ(GkTheory::Deserialize(bytes), nullptr);
  EXPECT_EQ(Mrl99::Deserialize(bytes), nullptr);
  EXPECT_EQ(FastQDigest::Deserialize(bytes), nullptr);
}

}  // namespace
}  // namespace streamq
