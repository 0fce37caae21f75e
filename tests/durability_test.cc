// Unit tests for the durable-ingest subsystem (src/durability/): the
// storage backends, the fault injector, the WAL record framing (including
// the exhaustive truncate-at-every-byte and flip-every-header-byte
// torture loops), the segmented WAL writer, the atomic checkpoint store,
// and clean end-to-end pipeline recovery. Crash-point sweeps live in
// crash_matrix_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/faulty_storage.h"
#include "durability/storage.h"
#include "durability/wal.h"
#include "exact/exact_oracle.h"
#include "ingest/ingest_pipeline.h"
#include "quantile/factory.h"
#include "stream/generators.h"
#include "stream/update.h"

namespace streamq::durability {
namespace {

// ---------- storage backends ----------

// Shared conformance check: every Storage implementation must pass.
void ExerciseStorage(Storage& storage, const std::string& root) {
  ASSERT_TRUE(storage.CreateDir(root + "/sub"));
  const std::string path = root + "/sub/file.log";

  std::unique_ptr<WritableFile> file = storage.Create(path);
  ASSERT_NE(file, nullptr);
  EXPECT_TRUE(file->Append("hello "));
  EXPECT_TRUE(file->Append("world"));
  EXPECT_TRUE(file->Sync());
  file.reset();

  std::string contents;
  ASSERT_TRUE(storage.ReadFile(path, &contents));
  EXPECT_EQ(contents, "hello world");
  EXPECT_FALSE(storage.ReadFile(root + "/sub/absent", &contents));
  EXPECT_EQ(contents, "hello world") << "failed read must not touch *out";

  // Create truncates an existing file.
  file = storage.Create(path);
  ASSERT_NE(file, nullptr);
  EXPECT_TRUE(file->Append("abcdef"));
  EXPECT_TRUE(file->Sync());
  file.reset();
  ASSERT_TRUE(storage.ReadFile(path, &contents));
  EXPECT_EQ(contents, "abcdef");

  EXPECT_TRUE(storage.Truncate(path, 4));
  ASSERT_TRUE(storage.ReadFile(path, &contents));
  EXPECT_EQ(contents, "abcd");
  EXPECT_TRUE(storage.Truncate(path, 100)) << "truncate beyond size: no-op";
  ASSERT_TRUE(storage.ReadFile(path, &contents));
  EXPECT_EQ(contents, "abcd");

  const std::string renamed = root + "/sub/renamed.log";
  ASSERT_TRUE(storage.Rename(path, renamed));
  EXPECT_FALSE(storage.ReadFile(path, &contents));
  ASSERT_TRUE(storage.ReadFile(renamed, &contents));
  EXPECT_EQ(contents, "abcd");

  ASSERT_TRUE(storage.WriteFile(root + "/sub/other", "xyz"));
  std::vector<std::string> names = storage.List(root + "/sub");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "other");  // sorted
  EXPECT_EQ(names[1], "renamed.log");
  EXPECT_TRUE(storage.List(root + "/nonexistent").empty());

  EXPECT_TRUE(storage.Delete(renamed));
  EXPECT_FALSE(storage.ReadFile(renamed, &contents));
  EXPECT_FALSE(storage.Delete(renamed)) << "double delete fails";
}

TEST(MemStorageTest, Conformance) {
  MemStorage storage;
  ExerciseStorage(storage, "mem");
  EXPECT_EQ(storage.FileSize("mem/sub/other"), 3);
  EXPECT_EQ(storage.FileSize("mem/sub/absent"), -1);
}

TEST(PosixStorageTest, Conformance) {
  PosixStorage storage;
  ExerciseStorage(storage, ::testing::TempDir() + "streamq_posix_test");
}

// ---------- fault injector ----------

TEST(FaultyStorageTest, PassesThroughWhenPerfect) {
  MemStorage base;
  FaultyStorage faulty(&base, StorageFaultSpec::Perfect(), /*seed=*/7);
  ExerciseStorage(faulty, "mem");
  EXPECT_FALSE(faulty.crashed());
  EXPECT_GT(faulty.op_count(), 0u);
}

TEST(FaultyStorageTest, TornWritePersistsStrictPrefix) {
  MemStorage base;
  StorageFaultSpec spec;
  spec.torn_write = 1.0;
  FaultyStorage faulty(&base, spec, /*seed=*/21);
  auto file = faulty.Create("f");
  ASSERT_NE(file, nullptr);
  EXPECT_FALSE(file->Append("0123456789"));
  EXPECT_LT(base.FileSize("f"), 10) << "torn write persisted everything";
  EXPECT_GE(base.FileSize("f"), 0);
  EXPECT_EQ(faulty.stats().torn_writes, 1u);
}

TEST(FaultyStorageTest, FailedAppendAndSyncAreCounted) {
  MemStorage base;
  StorageFaultSpec spec;
  spec.fail_append = 1.0;
  FaultyStorage faulty(&base, spec, /*seed=*/3);
  auto file = faulty.Create("f");
  ASSERT_NE(file, nullptr);
  EXPECT_FALSE(file->Append("data"));
  EXPECT_EQ(base.FileSize("f"), 0) << "failed append must persist nothing";
  EXPECT_EQ(faulty.stats().failed_appends, 1u);

  StorageFaultSpec sync_spec;
  sync_spec.fail_sync = 1.0;
  FaultyStorage faulty2(&base, sync_spec, /*seed=*/4);
  auto file2 = faulty2.Create("g");
  ASSERT_NE(file2, nullptr);
  EXPECT_TRUE(file2->Append("data"));
  EXPECT_FALSE(file2->Sync());
  EXPECT_EQ(faulty2.stats().failed_syncs, 1u);
}

TEST(FaultyStorageTest, ShortReadAndBitFlipMangleOnlyTheCopy) {
  MemStorage base;
  ASSERT_TRUE(base.WriteFile("f", std::string(100, 'a')));

  StorageFaultSpec spec;
  spec.short_read = 1.0;
  FaultyStorage faulty(&base, spec, /*seed=*/9);
  std::string out;
  ASSERT_TRUE(faulty.ReadFile("f", &out));
  EXPECT_LT(out.size(), 100u);
  EXPECT_EQ(base.FileSize("f"), 100) << "read fault must not touch the file";

  StorageFaultSpec flip_spec;
  flip_spec.bit_flip_read = 1.0;
  FaultyStorage flipper(&base, flip_spec, /*seed=*/10);
  ASSERT_TRUE(flipper.ReadFile("f", &out));
  ASSERT_EQ(out.size(), 100u);
  EXPECT_NE(out, std::string(100, 'a')) << "exactly one bit should differ";
  std::string clean;
  ASSERT_TRUE(base.ReadFile("f", &clean));
  EXPECT_EQ(clean, std::string(100, 'a'));
}

TEST(FaultyStorageTest, CrashPreservesSyncedPrefixOnly) {
  MemStorage base;
  FaultyStorage faulty(&base, StorageFaultSpec::Perfect(), /*seed=*/33);
  auto file = faulty.Create("f");
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(file->Append("synced-part|"));
  ASSERT_TRUE(file->Sync());
  ASSERT_TRUE(file->Append("unsynced-tail"));
  faulty.CrashNow();
  EXPECT_TRUE(faulty.crashed());

  std::string contents;
  ASSERT_TRUE(base.ReadFile("f", &contents));
  ASSERT_GE(contents.size(), 12u) << "crash harmed the synced prefix";
  // The synced prefix survives verbatim; the unsynced tail is some prefix
  // of what was appended, possibly with one flipped bit.
  EXPECT_EQ(contents.substr(0, 12), "synced-part|");
  EXPECT_LE(contents.size(), 25u);

  // Post-crash, every operation through the faulty view fails.
  EXPECT_FALSE(file->Append("more"));
  EXPECT_FALSE(file->Sync());
  EXPECT_EQ(faulty.Create("g"), nullptr);
  EXPECT_FALSE(faulty.ReadFile("f", &contents));
  EXPECT_FALSE(faulty.Rename("f", "h"));
  // ...but the base (the "disk") is still intact for recovery.
  EXPECT_GE(base.FileSize("f"), 12);
}

TEST(FaultyStorageTest, ArmedCrashFiresBeforeTheArmedOp) {
  // Arm at the 3rd append: two appends land, the third must not.
  MemStorage base;
  FaultyStorage faulty(&base, StorageFaultSpec::Perfect(), /*seed=*/5);
  faulty.ArmCrashAtOp(StorageOp::kAppend, 3);
  auto file = faulty.Create("f");
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(file->Append("a"));
  ASSERT_TRUE(file->Sync());
  ASSERT_TRUE(file->Append("b"));
  ASSERT_TRUE(file->Sync());
  EXPECT_FALSE(file->Append("c"));
  EXPECT_TRUE(faulty.crashed());
  std::string contents;
  ASSERT_TRUE(base.ReadFile("f", &contents));
  EXPECT_EQ(contents, "ab") << "the armed op must not take effect";
  EXPECT_EQ(faulty.stats().crashes, 1u);
}

TEST(FaultyStorageTest, OpIndexSweepIsDeterministic) {
  // The same seed and script crash identically at the same index.
  const auto run = [](uint64_t crash_at) {
    MemStorage base;
    FaultyStorage faulty(&base, StorageFaultSpec::Perfect(), /*seed=*/77);
    if (crash_at > 0) faulty.ArmCrashAtOpIndex(crash_at);
    auto file = faulty.Create("f");
    if (file != nullptr) {
      for (int i = 0; i < 5 && file->Append("x"); ++i) {
      }
      file->Sync();
    }
    std::string contents;
    base.ReadFile("f", &contents);
    return contents;
  };
  const uint64_t total = [] {
    MemStorage base;
    FaultyStorage faulty(&base, StorageFaultSpec::Perfect(), /*seed=*/77);
    auto file = faulty.Create("f");
    for (int i = 0; i < 5; ++i) file->Append("x");
    file->Sync();
    return faulty.op_count();
  }();
  EXPECT_EQ(total, 7u);  // create + 5 appends + sync
  for (uint64_t k = 1; k <= total; ++k) {
    EXPECT_EQ(run(k), run(k)) << "crash at op " << k << " not deterministic";
    EXPECT_LE(run(k).size(), run(0).size());
  }
}

// ---------- WAL record framing ----------

std::vector<WalEntry> MakeEntries(uint64_t first_seq, size_t n) {
  std::vector<WalEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(WalEntry{first_seq + i, (first_seq + i) * 977 % 4096,
                               (i % 7 == 3) ? int64_t{-1} : int64_t{2}});
  }
  return entries;
}

TEST(WalFramingTest, RoundTripsBatches) {
  std::string segment;
  std::vector<WalEntry> all;
  for (uint64_t b = 0; b < 5; ++b) {
    const std::vector<WalEntry> batch = MakeEntries(1 + b * 10, 10);
    segment += EncodeWalRecord(/*shard=*/2, batch.data(), batch.size());
    all.insert(all.end(), batch.begin(), batch.end());
  }
  const WalSegmentScan scan = ScanWalSegment(segment, /*expect_shard=*/2);
  EXPECT_TRUE(scan.clean);
  EXPECT_EQ(scan.records, 5u);
  ASSERT_EQ(scan.entries.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(scan.entries[i].seq, all[i].seq);
    EXPECT_EQ(scan.entries[i].value, all[i].value);
    EXPECT_EQ(scan.entries[i].delta, all[i].delta);
  }
  // A record for another shard is corruption, not data.
  const WalSegmentScan cross = ScanWalSegment(segment, /*expect_shard=*/3);
  EXPECT_EQ(cross.records, 0u);
  EXPECT_FALSE(cross.clean);
}

TEST(WalFramingTest, TruncateAtEveryByteNeverAcceptsAPartialRecord) {
  // The exhaustive torn-tail loop: for every prefix length of a
  // multi-record segment, the scan must accept exactly the records that
  // are entirely inside the prefix -- never crash, never over-read,
  // never surface a partial record.
  std::string segment;
  std::vector<size_t> boundaries;  // byte offset after each record
  for (uint64_t b = 0; b < 4; ++b) {
    const std::vector<WalEntry> batch = MakeEntries(1 + b * 8, 8);
    segment += EncodeWalRecord(/*shard=*/0, batch.data(), batch.size());
    boundaries.push_back(segment.size());
  }
  for (size_t len = 0; len <= segment.size(); ++len) {
    const std::string prefix = segment.substr(0, len);
    const WalSegmentScan scan = ScanWalSegment(prefix, /*expect_shard=*/0);
    const size_t whole = static_cast<size_t>(
        std::upper_bound(boundaries.begin(), boundaries.end(), len) -
        boundaries.begin());
    ASSERT_EQ(scan.records, whole) << "prefix " << len;
    ASSERT_EQ(scan.entries.size(), whole * 8) << "prefix " << len;
    const bool at_boundary =
        len == 0 || std::binary_search(boundaries.begin(), boundaries.end(),
                                       len);
    ASSERT_EQ(scan.clean, at_boundary) << "prefix " << len;
  }
}

TEST(WalFramingTest, FlipEveryHeaderByteNeverAcceptsTheRecord) {
  // Two records; flip each header byte of each record through all 8
  // single-bit flips. A mangled first header must yield zero records, a
  // mangled second header exactly the first record -- and never a crash
  // or an entry from the damaged record.
  const std::vector<WalEntry> first = MakeEntries(1, 6);
  const std::vector<WalEntry> second = MakeEntries(7, 6);
  const std::string r1 = EncodeWalRecord(0, first.data(), first.size());
  const std::string r2 = EncodeWalRecord(0, second.data(), second.size());
  const std::string segment = r1 + r2;
  for (size_t rec = 0; rec < 2; ++rec) {
    const size_t base = rec == 0 ? 0 : r1.size();
    for (size_t byte = 0; byte < kWalRecordHeaderBytes; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mangled = segment;
        mangled[base + byte] =
            static_cast<char>(mangled[base + byte] ^ (1 << bit));
        const WalSegmentScan scan = ScanWalSegment(mangled, 0);
        ASSERT_EQ(scan.records, rec)
            << "record " << rec << " header byte " << byte << " bit " << bit;
        ASSERT_FALSE(scan.clean);
        ASSERT_EQ(scan.entries.size(), rec * 6);
      }
    }
  }
}

TEST(WalFramingTest, ListWalSegmentsParsesVariableWidthNames) {
  // WalSegmentName's zero-padding is a minimum width: segment ids past
  // 10^8 (and shards past 10^4) emit longer names, which replay must
  // still find -- and order numerically, since "100000000" sorts before
  // "99999999" lexicographically.
  MemStorage storage;
  ASSERT_TRUE(storage.CreateDir("wal"));
  const std::vector<uint64_t> ids = {1, 99'999'999, 100'000'000,
                                     123'456'789'012ull};
  for (const uint64_t id : ids) {
    ASSERT_TRUE(storage.WriteFile("wal/" + WalSegmentName(7, id), "x"));
  }
  ASSERT_TRUE(storage.WriteFile("wal/" + WalSegmentName(8, 5), "x"));
  ASSERT_TRUE(storage.WriteFile("wal/" + WalSegmentName(12345, 6), "x"));
  ASSERT_TRUE(storage.WriteFile("wal/wal-0007-deadbeef.log", "x"));
  ASSERT_TRUE(storage.WriteFile("wal/stray.txt", "x"));
  EXPECT_EQ(ListWalSegments(storage, "wal", 7), ids);
  EXPECT_EQ(ListWalSegments(storage, "wal", 8), std::vector<uint64_t>{5});
  EXPECT_EQ(ListWalSegments(storage, "wal", 12345),
            std::vector<uint64_t>{6});
}

TEST(WalFramingTest, PayloadCorruptionIsCaughtByCrc) {
  const std::vector<WalEntry> batch = MakeEntries(1, 16);
  const std::string record = EncodeWalRecord(0, batch.data(), batch.size());
  for (size_t byte = kWalRecordHeaderBytes; byte < record.size(); ++byte) {
    std::string mangled = record;
    mangled[byte] = static_cast<char>(mangled[byte] ^ 0x40);
    const WalSegmentScan scan = ScanWalSegment(mangled, 0);
    ASSERT_EQ(scan.records, 0u) << "payload byte " << byte;
    ASSERT_TRUE(scan.entries.empty());
  }
}

// ---------- WAL writer ----------

TEST(WalWriterTest, SyncAdvancesDurableSeqAndSegmentsRoll) {
  MemStorage storage;
  ASSERT_TRUE(storage.CreateDir("wal"));
  // Tiny segment budget (clamped to 1024 internally) to force rolling.
  WalWriter writer(&storage, "wal", /*shard=*/1, /*first_segment=*/1,
                   /*segment_bytes=*/1024);
  EXPECT_EQ(writer.durable_seq(), 0u);
  uint64_t seq = 0;
  for (int batch = 0; batch < 40; ++batch) {
    const std::vector<WalEntry> entries = MakeEntries(seq + 1, 8);
    seq += 8;
    ASSERT_TRUE(writer.AppendBatch(entries.data(), entries.size()));
  }
  // Rolling syncs each closed segment, so durable_seq may already cover a
  // prefix -- but never the records still in the open segment.
  EXPECT_LT(writer.durable_seq(), seq);
  ASSERT_TRUE(writer.Sync());
  EXPECT_EQ(writer.durable_seq(), seq);
  EXPECT_FALSE(writer.dead());

  const std::vector<uint64_t> segments = ListWalSegments(storage, "wal", 1);
  ASSERT_GT(segments.size(), 1u) << "segment budget never rolled";
  EXPECT_EQ(segments.front(), 1u);

  // Everything written must replay, in order, exactly once.
  std::vector<WalEntry> replayed;
  uint64_t hw = 0;
  for (const uint64_t s : segments) {
    std::string contents;
    ASSERT_TRUE(
        storage.ReadFile("wal/" + WalSegmentName(1, s), &contents));
    const WalSegmentScan scan = ScanWalSegment(contents, 1);
    EXPECT_TRUE(scan.clean);
    for (const WalEntry& e : scan.entries) {
      if (e.seq <= hw) continue;
      replayed.push_back(e);
      hw = e.seq;
    }
  }
  ASSERT_EQ(replayed.size(), seq);
  for (uint64_t i = 0; i < seq; ++i) EXPECT_EQ(replayed[i].seq, i + 1);

  // Truncation deletes exactly the fully covered closed segments.
  const size_t before = segments.size();
  writer.TruncateThrough(seq);
  const size_t after = ListWalSegments(storage, "wal", 1).size();
  EXPECT_LT(after, before);
  EXPECT_GE(after, 1u) << "the open segment must survive";
  EXPECT_EQ(writer.stats().truncated_segments.load(), before - after);
}

TEST(WalWriterTest, PersistentSyncFailureMarksDead) {
  MemStorage base;
  ASSERT_TRUE(base.CreateDir("wal"));
  StorageFaultSpec spec;
  spec.fail_sync = 1.0;  // every fsync fails => roll, retry, die
  FaultyStorage faulty(&base, spec, /*seed=*/13);
  WalWriter writer(&faulty, "wal", 0, 1, 1 << 20);
  const std::vector<WalEntry> entries = MakeEntries(1, 4);
  ASSERT_TRUE(writer.AppendBatch(entries.data(), entries.size()));
  EXPECT_FALSE(writer.Sync());
  EXPECT_TRUE(writer.dead());
  EXPECT_EQ(writer.durable_seq(), 0u) << "a dead WAL must not acknowledge";
  // Dead is terminal: appends are refused, nothing crashes.
  EXPECT_FALSE(writer.AppendBatch(entries.data(), entries.size()));
  EXPECT_GT(writer.stats().failed_syncs.load(), 0u);
}

TEST(WalWriterTest, TornAppendRollsAndRecovers) {
  // One torn append: the writer rolls to a fresh segment, re-appends the
  // unsynced buffer, and the full history replays without loss.
  MemStorage base;
  ASSERT_TRUE(base.CreateDir("wal"));
  FaultyStorage faulty(&base, StorageFaultSpec::Perfect(), /*seed=*/29);
  WalWriter writer(&faulty, "wal", 0, 1, 1 << 20);

  const std::vector<WalEntry> first = MakeEntries(1, 8);
  ASSERT_TRUE(writer.AppendBatch(first.data(), first.size()));
  ASSERT_TRUE(writer.Sync());

  // Make exactly the next append tear. (A torn append both persists a
  // prefix and reports failure; the writer must roll.)
  StorageFaultSpec tear;
  tear.torn_write = 1.0;
  FaultyStorage tearing(&base, tear, /*seed=*/31);
  // Simulate by appending through a fresh writer over the same directory:
  // segment 2 is past segment 1 which stays immutable.
  WalWriter writer2(&tearing, "wal", 0, /*first_segment=*/2, 1 << 20);
  const std::vector<WalEntry> second = MakeEntries(9, 8);
  // Every append tears, the roll's re-append tears too => dead.
  EXPECT_FALSE(writer2.AppendBatch(second.data(), second.size()));
  EXPECT_TRUE(writer2.dead());
  EXPECT_GT(writer2.stats().rolls.load(), 0u);

  // The synced history from writer 1 is untouched by writer 2's death,
  // and replay dedup skips any torn duplicates by seq.
  std::vector<WalEntry> replayed;
  uint64_t hw = 0;
  for (const uint64_t s : ListWalSegments(base, "wal", 0)) {
    std::string contents;
    ASSERT_TRUE(base.ReadFile("wal/" + WalSegmentName(0, s), &contents));
    for (const WalEntry& e : ScanWalSegment(contents, 0).entries) {
      if (e.seq <= hw) continue;
      replayed.push_back(e);
      hw = e.seq;
    }
  }
  ASSERT_GE(replayed.size(), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(replayed[i].seq, i + 1);
}

// ---------- checkpoint store ----------

CheckpointData MakeCheckpoint(uint64_t id, uint64_t salt) {
  CheckpointData data;
  data.id = id;
  for (int s = 0; s < 3; ++s) {
    CheckpointShard shard;
    shard.applied_seq = id * 100 + s + salt;
    shard.sketch_frame = "frame-" + std::to_string(id * 10 + s + salt);
    data.shards.push_back(std::move(shard));
  }
  return data;
}

TEST(CheckpointTest, EncodeDecodeRoundTrip) {
  const CheckpointData data = MakeCheckpoint(7, 0);
  const std::string frame = EncodeCheckpoint(data);
  CheckpointData out;
  ASSERT_TRUE(DecodeCheckpoint(frame, &out));
  EXPECT_EQ(out.id, 7u);
  ASSERT_EQ(out.shards.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(out.shards[s].applied_seq, data.shards[s].applied_seq);
    EXPECT_EQ(out.shards[s].sketch_frame, data.shards[s].sketch_frame);
  }
  // Truncation at any byte and any single-byte corruption must be caught
  // (outer CRC frame + strict parse).
  for (size_t len = 0; len < frame.size(); ++len) {
    CheckpointData scratch;
    ASSERT_FALSE(DecodeCheckpoint(frame.substr(0, len), &scratch));
  }
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    std::string mangled = frame;
    mangled[byte] = static_cast<char>(mangled[byte] ^ 0x10);
    CheckpointData scratch;
    ASSERT_FALSE(DecodeCheckpoint(mangled, &scratch)) << "byte " << byte;
  }
}

TEST(CheckpointTest, WritePrunesAndLoadNewestFallsBack) {
  MemStorage storage;
  CheckpointStore store(&storage, "ckpt");
  ASSERT_TRUE(store.Init());
  const auto accept_all = [](const CheckpointData&) { return true; };

  CheckpointData out;
  EXPECT_FALSE(store.LoadNewest(accept_all, &out)) << "empty store";

  ASSERT_TRUE(store.Write(MakeCheckpoint(1, 0), /*keep=*/2));
  ASSERT_TRUE(store.Write(MakeCheckpoint(2, 0), /*keep=*/2));
  ASSERT_TRUE(store.Write(MakeCheckpoint(3, 0), /*keep=*/2));
  EXPECT_EQ(store.ListIds(), (std::vector<uint64_t>{2, 3})) << "pruned to 2";
  ASSERT_TRUE(store.LoadNewest(accept_all, &out));
  EXPECT_EQ(out.id, 3u);

  // Corrupt the newest on disk: LoadNewest must fall back to generation 2.
  std::string frame;
  ASSERT_TRUE(storage.ReadFile("ckpt/ckpt-00000003.sq", &frame));
  frame[frame.size() / 2] = static_cast<char>(frame[frame.size() / 2] ^ 1);
  ASSERT_TRUE(storage.WriteFile("ckpt/ckpt-00000003.sq", frame));
  ASSERT_TRUE(store.LoadNewest(accept_all, &out));
  EXPECT_EQ(out.id, 2u);

  // A validator rejection (e.g. config mismatch) also falls back, and
  // rejecting everything loads nothing.
  ASSERT_TRUE(
      store.LoadNewest([](const CheckpointData& c) { return c.id < 3; }, &out));
  EXPECT_EQ(out.id, 2u);
  EXPECT_FALSE(
      store.LoadNewest([](const CheckpointData&) { return false; }, &out));
}

TEST(CheckpointTest, ListIdsParsesVariableWidthNames) {
  // Same minimum-width caveat as the WAL segment names: generation ids
  // past 10^8 widen the file name, and recovery must still see them as
  // the newest generation.
  MemStorage storage;
  CheckpointStore store(&storage, "ckpt");
  ASSERT_TRUE(store.Init());
  ASSERT_TRUE(store.Write(MakeCheckpoint(99'999'999, 0), /*keep=*/10));
  ASSERT_TRUE(store.Write(MakeCheckpoint(100'000'000, 0), /*keep=*/10));
  EXPECT_EQ(store.ListIds(),
            (std::vector<uint64_t>{99'999'999, 100'000'000}));
  CheckpointData out;
  ASSERT_TRUE(
      store.LoadNewest([](const CheckpointData&) { return true; }, &out));
  EXPECT_EQ(out.id, 100'000'000u);
}

TEST(CheckpointTest, FailedRenameLeavesPreviousGenerationIntact) {
  MemStorage base;
  CheckpointStore setup(&base, "ckpt");
  ASSERT_TRUE(setup.Init());
  ASSERT_TRUE(setup.Write(MakeCheckpoint(1, 0), 2));

  // Crash exactly at the publish rename: the tmp write happened, the
  // rename must not, and generation 1 stays authoritative.
  FaultyStorage faulty(&base, StorageFaultSpec::Perfect(), /*seed=*/41);
  faulty.ArmCrashAtOp(StorageOp::kRename, 1);
  CheckpointStore store(&faulty, "ckpt");
  EXPECT_FALSE(store.Write(MakeCheckpoint(2, 0), 2));

  CheckpointStore after(&base, "ckpt");
  CheckpointData out;
  ASSERT_TRUE(
      after.LoadNewest([](const CheckpointData&) { return true; }, &out));
  EXPECT_EQ(out.id, 1u);
}

// ---------- sketch serialize/deserialize dispatch ----------

TEST(SketchSerdeDispatchTest, RoundTripsEveryPipelineCapableAlgorithm) {
  for (const Algorithm algorithm :
       {Algorithm::kRandom, Algorithm::kMrl99, Algorithm::kFastQDigest,
        Algorithm::kDcm, Algorithm::kDcs}) {
    SketchConfig config;
    config.algorithm = algorithm;
    config.eps = 0.05;
    config.log_universe = 16;
    config.seed = 19;
    const std::unique_ptr<QuantileSketch> sketch = MakeSketch(config);
    for (uint64_t v = 0; v < 5000; ++v) {
      ASSERT_EQ(sketch->Insert(v * 37 % 65536), StreamqStatus::kOk);
    }
    const std::string frame = SerializeSketch(*sketch);
    ASSERT_FALSE(frame.empty()) << AlgorithmName(algorithm);
    const std::unique_ptr<QuantileSketch> restored = DeserializeSketch(frame);
    ASSERT_NE(restored, nullptr) << AlgorithmName(algorithm);
    EXPECT_EQ(restored->Count(), sketch->Count());
    for (const double phi : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      EXPECT_EQ(restored->Query(phi), sketch->Query(phi))
          << AlgorithmName(algorithm) << " phi=" << phi;
    }
    EXPECT_EQ(DeserializeSketch("garbage"), nullptr);
  }
}

// ---------- end-to-end pipeline recovery (no crash; crash sweeps live in
// crash_matrix_test.cc) ----------

ingest::IngestOptions DurableOptions(Storage* storage) {
  ingest::IngestOptions options;
  options.sketch.algorithm = Algorithm::kRandom;
  options.sketch.eps = 0.05;
  options.sketch.log_universe = 20;
  options.sketch.seed = 11;
  options.shards = 2;
  options.ring_capacity = 1 << 10;
  options.publish_interval = 2048;
  options.durability.enabled = true;
  options.durability.storage = storage;
  options.durability.dir = "dur";
  options.durability.sync_interval = 256;
  options.durability.checkpoint_interval = 4096;
  options.durability.segment_bytes = 1 << 14;
  return options;
}

std::vector<uint64_t> DurableData(uint64_t n) {
  DatasetSpec spec;
  spec.distribution = Distribution::kUniform;
  spec.n = n;
  spec.log_universe = 20;
  spec.seed = 47;
  return GenerateDataset(spec);
}

TEST(DurablePipelineTest, CleanRestartRestoresBitIdenticalQueries) {
  MemStorage storage;
  const std::vector<uint64_t> data = DurableData(20'000);
  const std::vector<double> phis = {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99};

  std::vector<uint64_t> reference;
  {
    auto pipeline = ingest::IngestPipeline::Create(DurableOptions(&storage));
    ASSERT_NE(pipeline, nullptr);
    EXPECT_FALSE(pipeline->recovery().recovered);
    EXPECT_EQ(pipeline->ResumeSeq(), 1u);
    for (uint64_t v : data) pipeline->Push(Update{v, +1});
    pipeline->Flush();
    EXPECT_EQ(pipeline->DurableSeq(), data.size())
        << "after Flush every pushed update must be acknowledged";
    pipeline->Stop();
    reference = pipeline->QueryMany(phis);
  }

  // Restart over the same storage: the final Stop() checkpoint covers the
  // whole stream, so recovery resumes past it and the restored view
  // answers bit-identically with zero re-pushed updates.
  auto restarted = ingest::IngestPipeline::Create(DurableOptions(&storage));
  ASSERT_NE(restarted, nullptr);
  EXPECT_TRUE(restarted->recovery().recovered);
  EXPECT_GT(restarted->recovery().checkpoint_id, 0u);
  // Resume is 1 + the *minimum* shard high-water mark: under round-robin
  // the minimum shard can be up to (shards - 1) seqs behind the stream
  // end, and re-pushing that overlap just dedups.
  EXPECT_GE(restarted->ResumeSeq(), data.size() + 2 - 2 /*shards*/);
  EXPECT_LE(restarted->ResumeSeq(), data.size() + 1);
  EXPECT_EQ(restarted->DurableSeq(), restarted->ResumeSeq() - 1);
  restarted->Flush();
  EXPECT_EQ(restarted->QueryMany(phis), reference);

  // And the recovered pipeline keeps ingesting: push a continuation and
  // the epsilon-n bound holds over the combined stream.
  std::vector<uint64_t> more = DurableData(10'000);
  for (uint64_t v : more) restarted->Push(Update{v, +1});
  restarted->Flush();
  std::vector<uint64_t> combined = data;
  combined.insert(combined.end(), more.begin(), more.end());
  const ExactOracle oracle(combined);
  for (const double phi : phis) {
    EXPECT_LE(oracle.QuantileError(restarted->Query(phi), phi), 3 * 0.05);
  }
  restarted->Stop();
}

TEST(DurablePipelineTest, UnsyncedStopTailIsReplayedFromTheWal) {
  // Kill without Stop(): no final checkpoint. Whatever was acknowledged
  // (WAL-synced) must recover via checkpoint + WAL tail replay.
  MemStorage storage;
  const std::vector<uint64_t> data = DurableData(12'000);
  uint64_t acked = 0;
  {
    auto pipeline = ingest::IngestPipeline::Create(DurableOptions(&storage));
    ASSERT_NE(pipeline, nullptr);
    for (uint64_t v : data) pipeline->Push(Update{v, +1});
    pipeline->Flush();
    acked = pipeline->DurableSeq();
    EXPECT_EQ(acked, data.size());
    // Destructor runs Stop(); emulate an abrupt kill by recovering from a
    // copy of the storage taken *before* the destructor.
  }
  // (MemStorage survives the pipeline: this recovery sees the post-Stop
  // state. The pre-Stop crash states are exercised by the crash matrix;
  // here we check replay when only WAL data exists at all.)
  MemStorage wal_only;
  ASSERT_TRUE(wal_only.CreateDir("dur/wal"));
  // Rebuild a WAL-only universe: copy segments, drop all checkpoints.
  for (const std::string& name : storage.List("dur/wal")) {
    std::string contents;
    ASSERT_TRUE(storage.ReadFile("dur/wal/" + name, &contents));
    ASSERT_TRUE(wal_only.WriteFile("dur/wal/" + name, contents));
  }
  auto recovered = ingest::IngestPipeline::Create(DurableOptions(&wal_only));
  ASSERT_NE(recovered, nullptr);
  EXPECT_TRUE(recovered->recovery().recovered);
  EXPECT_EQ(recovered->recovery().checkpoint_id, 0u) << "no checkpoint left";
  EXPECT_GT(recovered->recovery().replayed_updates, 0u);
  recovered->Flush();
  // Note: checkpoints may have truncated covered WAL segments, so the WAL
  // alone holds a suffix; together with nothing it recovers at least every
  // update since the last checkpoint -- but never *claims* more than it
  // has: the resume contract stays honest.
  EXPECT_GE(recovered->ResumeSeq(), 1u);
  EXPECT_LE(recovered->ResumeSeq() - 1, data.size());
  recovered->Stop();
}

TEST(DurablePipelineTest, PosixStorageEndToEnd) {
  PosixStorage storage;
  ingest::IngestOptions options = DurableOptions(&storage);
  options.durability.dir =
      ::testing::TempDir() + "streamq_durable_e2e";  // fresh per test run
  // Clean any leftover state from a previous run of this binary.
  for (const char* sub : {"/wal", "/ckpt"}) {
    for (const std::string& name : storage.List(options.durability.dir + sub)) {
      storage.Delete(options.durability.dir + sub + "/" + name);
    }
  }
  const std::vector<uint64_t> data = DurableData(8'000);
  const std::vector<double> phis = {0.1, 0.5, 0.9};
  std::vector<uint64_t> reference;
  {
    auto pipeline = ingest::IngestPipeline::Create(options);
    ASSERT_NE(pipeline, nullptr);
    for (uint64_t v : data) pipeline->Push(Update{v, +1});
    pipeline->Flush();
    EXPECT_EQ(pipeline->DurableSeq(), data.size());
    pipeline->Stop();
    reference = pipeline->QueryMany(phis);
  }
  auto restarted = ingest::IngestPipeline::Create(options);
  ASSERT_NE(restarted, nullptr);
  EXPECT_TRUE(restarted->recovery().recovered);
  EXPECT_GE(restarted->ResumeSeq(), data.size() + 2 - 2 /*shards*/);
  EXPECT_LE(restarted->ResumeSeq(), data.size() + 1);
  restarted->Flush();
  EXPECT_EQ(restarted->QueryMany(phis), reference);
  restarted->Stop();
}

/// Pass-through decorator with two targeted failure knobs FaultyStorage
/// cannot express without crashing the whole storage: fail the next N
/// renames (a checkpoint publish that fails transiently) and fail every
/// read of paths containing a substring (an existing-but-unreadable
/// segment).
class FlakyStorage : public Storage {
 public:
  explicit FlakyStorage(Storage* base) : base_(base) {}

  int fail_renames = 0;
  std::string fail_reads_containing;  // empty = reads pass through

  std::unique_ptr<WritableFile> Create(const std::string& path) override {
    return base_->Create(path);
  }
  bool ReadFile(const std::string& path, std::string* out) override {
    if (!fail_reads_containing.empty() &&
        path.find(fail_reads_containing) != std::string::npos) {
      return false;
    }
    return base_->ReadFile(path, out);
  }
  bool WriteFile(const std::string& path, const std::string& data) override {
    return base_->WriteFile(path, data);
  }
  bool Rename(const std::string& from, const std::string& to) override {
    if (fail_renames > 0) {
      --fail_renames;
      return false;
    }
    return base_->Rename(from, to);
  }
  bool Delete(const std::string& path) override { return base_->Delete(path); }
  bool Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  std::vector<std::string> List(const std::string& dir) override {
    return base_->List(dir);
  }
  bool CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }

 private:
  Storage* base_;
};

TEST(DurablePipelineTest, UnreadableWalSegmentFailsRecoveryLoudly) {
  // An existing WAL segment that cannot be read may hold acknowledged
  // records. Recovery must refuse to come up -- replaying later segments
  // across the gap and then pruning the unread one would turn a transient
  // read error into permanent silent loss.
  MemStorage storage;
  const std::vector<uint64_t> data = DurableData(12'000);
  {
    auto pipeline = ingest::IngestPipeline::Create(DurableOptions(&storage));
    ASSERT_NE(pipeline, nullptr);
    for (uint64_t v : data) pipeline->Push(Update{v, +1});
    pipeline->Flush();
    pipeline->Stop();
  }
  ASSERT_FALSE(storage.List("dur/wal").empty())
      << "Stop() should leave the open segments on disk";
  FlakyStorage flaky(&storage);
  flaky.fail_reads_containing = "wal-";
  EXPECT_EQ(ingest::IngestPipeline::Create(DurableOptions(&flaky)), nullptr);
  // Once the transient error clears, the same disk recovers fine.
  EXPECT_NE(ingest::IngestPipeline::Create(DurableOptions(&storage)), nullptr);
}

TEST(DurablePipelineTest, FailedRecoveryCheckpointKeepsThenPrunesSegments) {
  MemStorage storage;
  const std::vector<uint64_t> data = DurableData(12'000);
  {
    auto pipeline = ingest::IngestPipeline::Create(DurableOptions(&storage));
    ASSERT_NE(pipeline, nullptr);
    for (uint64_t v : data) pipeline->Push(Update{v, +1});
    pipeline->Flush();
    pipeline->Stop();
  }
  const std::vector<std::string> old_names = storage.List("dur/wal");
  ASSERT_FALSE(old_names.empty());

  // Fail exactly the post-recovery checkpoint's publish rename: the
  // pre-recovery segments must survive (they may hold the only durable
  // copy of acknowledged records)...
  FlakyStorage flaky(&storage);
  flaky.fail_renames = 1;
  auto pipeline = ingest::IngestPipeline::Create(DurableOptions(&flaky));
  ASSERT_NE(pipeline, nullptr);
  EXPECT_TRUE(pipeline->recovery().recovered);
  EXPECT_GT(pipeline->stats().checkpoint_failures.load(), 0u);
  std::string contents;
  for (const std::string& name : old_names) {
    EXPECT_TRUE(storage.ReadFile("dur/wal/" + name, &contents)) << name;
  }
  // ...and the next successful checkpoint covers the recovered state, so
  // it prunes them: a transient checkpoint failure cannot leak segments
  // until the next restart.
  ASSERT_TRUE(pipeline->Checkpoint());
  for (const std::string& name : old_names) {
    EXPECT_FALSE(storage.ReadFile("dur/wal/" + name, &contents)) << name;
  }
  pipeline->Stop();
}

TEST(DurablePipelineTest, DurableSeqNeverOverclaimsUnderConcurrentReads) {
  // With every fsync failing, nothing ever becomes durable, so
  // DurableSeq() must read 0 from any thread at any moment -- including
  // the window where a push has advanced the seq ceiling but the routed
  // shard's pending mark is not yet visible (the store-order race:
  // last_seq must be published before next_seq_).
  MemStorage base;
  for (int round = 0; round < 20; ++round) {
    StorageFaultSpec spec;
    spec.fail_sync = 1.0;
    FaultyStorage faulty(&base, spec, /*seed=*/100 + round);
    ingest::IngestOptions options = DurableOptions(&faulty);
    options.durability.dir = "dur" + std::to_string(round);
    auto pipeline = ingest::IngestPipeline::Create(options);
    ASSERT_NE(pipeline, nullptr);
    std::atomic<bool> done{false};
    uint64_t max_seen = 0;
    std::thread watcher([&] {
      while (!done.load(std::memory_order_acquire)) {
        max_seen = std::max(max_seen, pipeline->DurableSeq());
      }
    });
    for (uint64_t v = 0; v < 200; ++v) pipeline->Push(Update{v, +1});
    done.store(true, std::memory_order_release);
    watcher.join();
    EXPECT_EQ(max_seen, 0u) << "round " << round;
    EXPECT_EQ(pipeline->DurableSeq(), 0u);
    pipeline->Stop();
  }
}

TEST(DurablePipelineTest, CreateRefusesDurabilityWithoutStorage) {
  ingest::IngestOptions options = DurableOptions(nullptr);
  EXPECT_EQ(ingest::IngestPipeline::Create(options), nullptr);
}

TEST(DurablePipelineTest, DurableMetricsArePublished) {
  MemStorage storage;
  auto pipeline = ingest::IngestPipeline::Create(DurableOptions(&storage));
  ASSERT_NE(pipeline, nullptr);
  const std::vector<uint64_t> data = DurableData(10'000);
  for (uint64_t v : data) pipeline->Push(Update{v, +1});
  pipeline->Flush();
  ASSERT_TRUE(pipeline->Checkpoint());
  pipeline->Stop();

  obs::MetricsRegistry registry;
  pipeline->PublishMetrics(registry, "ingest");
  const obs::Counter* checkpoints = registry.FindCounter("ingest.checkpoints");
  ASSERT_NE(checkpoints, nullptr);
  EXPECT_GT(checkpoints->value(), 0u);
  const obs::Gauge* durable_seq = registry.FindGauge("ingest.durable_seq");
  ASSERT_NE(durable_seq, nullptr);
  EXPECT_EQ(durable_seq->value(), static_cast<int64_t>(data.size()));
  uint64_t wal_bytes = 0;
  uint64_t wal_syncs = 0;
  for (int s = 0; s < pipeline->shard_count(); ++s) {
    const std::string p = "ingest.shard" + std::to_string(s);
    const obs::Counter* bytes = registry.FindCounter(p + ".wal_bytes");
    const obs::Counter* syncs = registry.FindCounter(p + ".wal_syncs");
    ASSERT_NE(bytes, nullptr);
    ASSERT_NE(syncs, nullptr);
    wal_bytes += bytes->value();
    wal_syncs += syncs->value();
    ASSERT_NE(registry.FindGauge(p + ".wal_durable_seq"), nullptr);
  }
  EXPECT_GT(wal_bytes, 0u);
  EXPECT_GT(wal_syncs, 0u);
  const obs::Histogram* ticks =
      registry.FindHistogram("ingest.checkpoint_ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_GT(ticks->count(), 0u);
}

}  // namespace
}  // namespace streamq::durability
