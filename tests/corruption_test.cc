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
