// Fault-injecting Storage decorator, the filesystem twin of the
// distributed monitor's FaultyChannel (src/cluster/channel.h): every
// failure mode is driven by one seed, so a failing run replays exactly
// from its seed.
//
// Two fault families:
//
//  * Probabilistic IO faults (StorageFaultSpec): torn writes (an Append
//    persists only a random prefix, then reports failure), clean append
//    failures, failed fsyncs, short reads and read-side bit flips. These
//    exercise the WAL's roll-and-retry path and the recovery code's
//    corruption rejection.
//
//  * Crash points: the test arms a crash at the Nth storage operation
//    overall (ArmCrashAtOpIndex) or at the Nth operation of one kind
//    (ArmCrashAtOp) -- the crash fires just BEFORE that operation takes
//    effect, modelling power loss as the syscall is issued. Arming at
//    index k+1 therefore also covers "crashed right after operation k",
//    so the two hooks together reach both sides of every append, fsync,
//    checkpoint write, rename and truncate.
//
// Crash semantics follow real disks: for every file with bytes appended
// since its last successful Sync, the unsynced tail is truncated to a
// seed-chosen prefix (possibly empty, possibly all of it), and the
// surviving unsynced prefix may additionally get one bit flipped (a torn
// sector). Bytes covered by a successful Sync are never harmed, and
// Rename/Delete that returned true stay done -- the Storage durability
// contract. After the crash every operation fails until the test opens a
// fresh (non-faulty) view over the same base storage, which is exactly
// what process restart + recovery does.
//
// Thread-safe: shard workers append to their own WALs concurrently while
// a checkpointer renames, so every operation serialises on one mutex (the
// op counter, RNG and tail map are shared state). This is a test double;
// the serialisation cost is irrelevant.

#ifndef STREAMQ_DURABILITY_FAULTY_STORAGE_H_
#define STREAMQ_DURABILITY_FAULTY_STORAGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "durability/storage.h"
#include "util/random.h"

namespace streamq::durability {

/// Per-operation fault probabilities, all in [0, 1]. Default: none.
struct StorageFaultSpec {
  /// An Append persists a random strict prefix and reports failure.
  double torn_write = 0.0;
  /// An Append persists nothing and reports failure.
  double fail_append = 0.0;
  /// A Sync reports failure (the appended bytes stay non-durable).
  double fail_sync = 0.0;
  /// A ReadFile returns only a random strict prefix of the file.
  double short_read = 0.0;
  /// A ReadFile returns the contents with one random bit flipped.
  double bit_flip_read = 0.0;

  static StorageFaultSpec Perfect() { return StorageFaultSpec{}; }
};

/// Operation kinds for kind-targeted crash points and the op counters.
enum class StorageOp : int {
  kCreate = 0,
  kAppend = 1,
  kSync = 2,
  kRename = 3,
  kDelete = 4,
  kTruncate = 5,
  kRead = 6,
};
inline constexpr int kStorageOpKinds = 7;

/// Running totals, readable while the storage is live (test assertions).
struct StorageFaultStats {
  uint64_t ops = 0;
  uint64_t torn_writes = 0;
  uint64_t failed_appends = 0;
  uint64_t failed_syncs = 0;
  uint64_t short_reads = 0;
  uint64_t bit_flip_reads = 0;
  uint64_t crashes = 0;
};

class FaultyStorage : public Storage {
 public:
  /// `base` is unowned and must outlive this wrapper (and keeps the data:
  /// recovery re-opens `base` directly, like a process restart).
  FaultyStorage(Storage* base, const StorageFaultSpec& spec, uint64_t seed);

  std::unique_ptr<WritableFile> Create(const std::string& path) override;
  bool ReadFile(const std::string& path, std::string* out) override;
  bool WriteFile(const std::string& path, const std::string& data) override;
  bool Rename(const std::string& from, const std::string& to) override;
  bool Delete(const std::string& path) override;
  bool Truncate(const std::string& path, uint64_t size) override;
  std::vector<std::string> List(const std::string& dir) override;
  bool CreateDir(const std::string& dir) override;

  /// Arms a crash just before the `index`-th operation overall (1-based).
  void ArmCrashAtOpIndex(uint64_t index);
  /// Arms a crash just before the `nth` operation of `kind` (1-based).
  void ArmCrashAtOp(StorageOp kind, uint64_t nth);
  /// Immediate crash (same tail-mangling semantics as an armed one).
  void CrashNow();

  bool crashed() const;
  StorageFaultStats stats() const;
  /// Total operations a fault-free run performs -- run once, read this,
  /// then sweep ArmCrashAtOpIndex over [1, OpCount()].
  uint64_t op_count() const;

 private:
  friend class FaultyWritableFile;

  /// Unsynced-tail bookkeeping for one path. Entries outlive the writable
  /// handle: closing a file does not make its tail crash-safe.
  struct Tail {
    uint64_t size = 0;    // bytes appended through this wrapper
    uint64_t synced = 0;  // bytes covered by the last successful Sync
  };

  // All private helpers require mutex_ held.
  double NextUnit();
  bool MaybeCrash(StorageOp op);
  void CrashLocked();

  Storage* const base_;
  const StorageFaultSpec spec_;

  mutable std::mutex mutex_;
  Xoshiro256 rng_;
  bool crashed_ = false;
  uint64_t op_index_ = 0;
  uint64_t op_by_kind_[kStorageOpKinds] = {};
  uint64_t crash_at_index_ = 0;  // 0 = unarmed
  StorageOp crash_kind_ = StorageOp::kCreate;
  uint64_t crash_kind_nth_ = 0;  // 0 = unarmed
  std::map<std::string, Tail> tails_;
  StorageFaultStats stats_;
};

}  // namespace streamq::durability

#endif  // STREAMQ_DURABILITY_FAULTY_STORAGE_H_
