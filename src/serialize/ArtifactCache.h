//===- serialize/ArtifactCache.h - Content-addressed cache ------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed on-disk artifact cache.  Artifacts are stored under
/// `<dir>/<k0k1>/<hex key>.blob` where the key is the SHA-256 digest of a
/// canonical encoding of every input of the cached computation (see
/// harness/Engine.h for the key schemes).  Each blob carries a small header
/// — magic, container version, payload size, payload SHA-256 — so a
/// corrupted, truncated, or incompatible blob is rejected on load and the
/// caller recomputes.
///
/// Stores are atomic (temp file + rename), and the cache is safe for
/// concurrent use from many threads and many processes: two writers of the
/// same key write identical content, so whoever renames last wins
/// harmlessly.  An advisory `.lock` file in the cache root coordinates the
/// maintenance passes with concurrent processes: routine load/store traffic
/// holds a shared flock, while the recovery sweep and the eviction pass
/// need it exclusively and *skip* (counting lockContention()) rather than
/// block when another process is active.
///
/// Crash consistency (see DESIGN.md "Shutdown, deadlines, and crash
/// recovery"): a process killed between writing a temp file and the rename
/// leaves an orphan `*.tmp.*` file but never a torn blob.  The first cache
/// open in a later process runs a recovery sweep that reaps such orphans
/// (counted in orphansReaped()); blobs themselves are always either absent
/// or complete.  evictToBudget() bounds total blob bytes (`--cache-budget`)
/// by deleting oldest-first.
///
/// Failure semantics (see DESIGN.md "Failure semantics"): load() reports a
/// miss as NotFound, a rejected blob as Corrupt (the blob is deleted so a
/// later store can heal it, and counted in corruptDeletes()), and an
/// injected/filesystem read failure as Transient.  store() reports fs
/// refusals as Transient and counts them in failedStores().  The cache is
/// an accelerator: every failure is survivable by recomputing, so callers
/// must treat any non-ok Status as "proceed uncached".  An optional
/// fault::Injector shims all I/O for deterministic failure-path testing,
/// and hosts the CrashMidStore crashpoint used by tests/test_crash.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERIALIZE_ARTIFACTCACHE_H
#define DMP_SERIALIZE_ARTIFACTCACHE_H

#include "fault/Fault.h"
#include "serialize/Hash.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dmp::serialize {

/// On-disk blob store keyed by content digest.
class ArtifactCache {
public:
  /// Opens (and lazily creates) the cache rooted at \p Dir.  The recovery
  /// sweep runs on the first load/store, not here, so constructing a cache
  /// for a directory that is never touched costs nothing; later handles on
  /// the same directory in the same process skip it.
  explicit ArtifactCache(std::string Dir);
  ~ArtifactCache();

  /// Loads the payload stored under \p Key.  Non-ok codes: NotFound on
  /// miss, Corrupt when the blob failed validation (it is deleted so the
  /// next store can heal it), Transient on injected/filesystem faults.
  StatusOr<std::vector<uint8_t>> load(const Digest &Key);

  /// Stores \p Payload under \p Key.  Returns Transient when the
  /// filesystem (or the fault shim) refuses; the experiment still
  /// proceeds, just uncached.
  Status store(const Digest &Key, const std::vector<uint8_t> &Payload);

  /// Runs the orphan-reaping recovery sweep now (it otherwise runs lazily
  /// before a process's first I/O on the directory): every `*.tmp.*` file
  /// under the cache root — debris of a process that died between temp
  /// write and rename — is deleted and counted in orphansReaped().  Requires the exclusive
  /// advisory lock; if another process holds the cache, the sweep is
  /// skipped (lockContention() bumped) and retried on the next call.
  /// Idempotent and safe to call at any time.
  void sweepNow();

  /// Deletes blobs oldest-first (by mtime, ties broken by path) until the
  /// total blob bytes fit \p BudgetBytes.  Needs the exclusive advisory
  /// lock; skips (counting lockContention()) when contended.  Returns the
  /// number of blobs evicted (also accumulated in evictions()).
  uint64_t evictToBudget(uint64_t BudgetBytes);

  const std::string &dir() const { return Root; }

  /// Installs a deterministic fault shim over load/store I/O; null
  /// removes it.  The injector must outlive the cache.
  void setFaultInjector(const fault::Injector *Injector) {
    Faults = Injector;
  }

  // Counters for reports and tests.
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t stores() const { return Stores.load(std::memory_order_relaxed); }
  /// Corrupt blobs rejected (and deleted) by load().
  uint64_t corruptDeletes() const {
    return CorruptDeletes.load(std::memory_order_relaxed);
  }
  /// store() calls the filesystem (or fault shim) refused.
  uint64_t failedStores() const {
    return FailedStores.load(std::memory_order_relaxed);
  }
  /// Orphaned temp files reaped by the recovery sweep.
  uint64_t orphansReaped() const {
    return OrphansReaped.load(std::memory_order_relaxed);
  }
  /// Blobs deleted by evictToBudget().
  uint64_t evictions() const {
    return Evictions.load(std::memory_order_relaxed);
  }
  /// Maintenance passes skipped because another process held the cache.
  uint64_t lockContention() const {
    return LockContention.load(std::memory_order_relaxed);
  }
  /// The eight counters above as "hits=H misses=M ... lock-contention=L",
  /// the one rendering every report footer prints.
  std::string countersLine() const;

private:
  std::string blobPath(const Digest &Key) const;
  std::string lockPath() const;
  /// Lazily opens the `.lock` fd and takes the shared (reader/writer)
  /// flock; refcounted in-process.  Returns false when the lock file
  /// cannot even be created (cache proceeds unlocked — advisory only).
  bool acquireShared();
  void releaseShared();
  /// Runs the lazy recovery sweep on this handle's first I/O, unless a
  /// handle on the same canonical directory in the same process (same
  /// getpid(), so a forked child sweeps again) already attempted it.
  void ensureSwept();
  void sweepLocked();

  std::string Root;
  const fault::Injector *Faults = nullptr;

  // Advisory-lock state.  LockFd is the `.lock` file descriptor; the
  // shared flock is held while SharedHolders > 0 so the exclusive
  // maintenance passes (here or in another process) wait for quiescence.
  std::mutex LockMutex;
  int LockFd = -1;
  unsigned SharedHolders = 0;
  bool SweepDone = false;

  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Stores{0};
  std::atomic<uint64_t> CorruptDeletes{0};
  std::atomic<uint64_t> FailedStores{0};
  std::atomic<uint64_t> OrphansReaped{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> LockContention{0};
  std::atomic<uint64_t> TempCounter{0};
};

} // namespace dmp::serialize

#endif // DMP_SERIALIZE_ARTIFACTCACHE_H
