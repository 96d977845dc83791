//===- serialize/ArtifactCache.cpp - Content-addressed cache --------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "serialize/ArtifactCache.h"

#include "serialize/ByteStream.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <set>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace dmp;
using namespace dmp::serialize;

namespace {

constexpr uint32_t kBlobMagic = 0x444D5043; // "DMPC"
/// Container version: covers the blob header only; payload formats carry
/// their own version (serialize::kFormatVersion).
constexpr uint32_t kContainerVersion = 1;
constexpr size_t kHeaderSize = 4 + 4 + 8 + 32;

namespace fs = std::filesystem;

bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  std::fseek(F, 0, SEEK_END);
  const long Size = std::ftell(F);
  if (Size < 0) {
    std::fclose(F);
    return false;
  }
  std::fseek(F, 0, SEEK_SET);
  Out.resize(static_cast<size_t>(Size));
  const size_t Read = Size == 0 ? 0 : std::fread(Out.data(), 1, Out.size(), F);
  std::fclose(F);
  return Read == Out.size();
}

bool writeFile(const std::string &Path, const std::vector<uint8_t> &Data) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  const size_t Written =
      Data.empty() ? 0 : std::fwrite(Data.data(), 1, Data.size(), F);
  const bool Ok = std::fclose(F) == 0 && Written == Data.size();
  return Ok;
}

/// An orphaned temp file is anything our store() naming scheme produced:
/// `<hex>.blob.tmp.<pid>.<n>`.  Matching on the ".tmp." infix keeps the
/// sweep oblivious to pid/counter formats of past versions.
bool isTempName(const std::string &Name) {
  return Name.find(".tmp.") != std::string::npos;
}

} // namespace

ArtifactCache::ArtifactCache(std::string Dir) : Root(std::move(Dir)) {}

ArtifactCache::~ArtifactCache() {
  std::lock_guard<std::mutex> Lock(LockMutex);
  if (LockFd != -1)
    ::close(LockFd); // drops any flock we still hold
}

std::string ArtifactCache::blobPath(const Digest &Key) const {
  const std::string Hex = Key.hex();
  return Root + "/" + Hex.substr(0, 2) + "/" + Hex + ".blob";
}

std::string ArtifactCache::lockPath() const { return Root + "/.lock"; }

bool ArtifactCache::acquireShared() {
  std::lock_guard<std::mutex> Lock(LockMutex);
  if (LockFd == -1) {
    std::error_code EC;
    fs::create_directories(Root, EC);
    LockFd = ::open(lockPath().c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (LockFd == -1)
      return false; // advisory only: proceed unlocked
  }
  if (SharedHolders == 0) {
    // May briefly block on another process's maintenance pass; routine
    // traffic (shared vs shared) never blocks.
    while (::flock(LockFd, LOCK_SH) == -1 && errno == EINTR) {
    }
  }
  ++SharedHolders;
  return true;
}

void ArtifactCache::releaseShared() {
  std::lock_guard<std::mutex> Lock(LockMutex);
  if (SharedHolders == 0)
    return; // acquireShared failed for this caller
  if (--SharedHolders == 0 && LockFd != -1)
    ::flock(LockFd, LOCK_UN);
}

void ArtifactCache::sweepLocked() {
  std::error_code EC;
  fs::recursive_directory_iterator It(Root, EC), End;
  for (; !EC && It != End; It.increment(EC)) {
    if (!It->is_regular_file(EC))
      continue;
    const fs::path P = It->path();
    if (!isTempName(P.filename().string()))
      continue;
    std::error_code Ignored;
    if (fs::remove(P, Ignored) && !Ignored)
      OrphansReaped.fetch_add(1, std::memory_order_relaxed);
  }
}

void ArtifactCache::sweepNow() {
  std::lock_guard<std::mutex> Lock(LockMutex);
  if (SharedHolders > 0) {
    // In-process traffic holds the shared lock; the sweep will get its
    // chance on a later call.
    LockContention.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (LockFd == -1) {
    std::error_code EC;
    fs::create_directories(Root, EC);
    LockFd = ::open(lockPath().c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  }
  if (LockFd != -1) {
    if (::flock(LockFd, LOCK_EX | LOCK_NB) == -1) {
      // Another process is using the cache; its writers are alive, so any
      // temp files we would reap may be in flight.  Skip.
      LockContention.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    sweepLocked();
    SweepDone = true;
    ::flock(LockFd, LOCK_UN);
    return;
  }
  // No lock file at all (unwritable dir?): sweep best-effort anyway — the
  // only files reaped are our own naming scheme's temps.
  sweepLocked();
  SweepDone = true;
}

void ArtifactCache::ensureSwept() {
  {
    std::lock_guard<std::mutex> Lock(LockMutex);
    if (SweepDone)
      return;
  }
  // The lazy sweep runs once per (directory, process): orphans are debris
  // of a process that died, so a later handle in the same process has
  // nothing new to reap.  The pid is part of the key because a forked
  // child inherits this set but is a later process, and sweeps on its own.
  static std::mutex SweptMutex;
  static std::set<std::pair<std::string, pid_t>> Swept;
  std::error_code EC;
  const fs::path Canonical = fs::weakly_canonical(Root, EC);
  bool First;
  {
    std::lock_guard<std::mutex> Lock(SweptMutex);
    First = Swept.emplace(EC ? Root : Canonical.string(), ::getpid()).second;
  }
  if (First)
    sweepNow();
  // One attempt only: if the sweep was skipped on contention, another live
  // process owns the cache and already ran its own sweep on open.  Marking
  // done either way keeps the hot path to a single mutex-guarded check.
  std::lock_guard<std::mutex> Lock(LockMutex);
  SweepDone = true;
}

uint64_t ArtifactCache::evictToBudget(uint64_t BudgetBytes) {
  std::lock_guard<std::mutex> Lock(LockMutex);
  if (SharedHolders > 0) {
    LockContention.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  if (LockFd == -1) {
    std::error_code EC;
    fs::create_directories(Root, EC);
    LockFd = ::open(lockPath().c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  }
  const bool Locked =
      LockFd != -1 && ::flock(LockFd, LOCK_EX | LOCK_NB) == 0;
  if (LockFd != -1 && !Locked) {
    LockContention.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }

  struct BlobInfo {
    std::string Path;
    uint64_t Size;
    fs::file_time_type MTime;
  };
  std::vector<BlobInfo> Blobs;
  uint64_t TotalBytes = 0;
  std::error_code EC;
  fs::recursive_directory_iterator It(Root, EC), End;
  for (; !EC && It != End; It.increment(EC)) {
    if (!It->is_regular_file(EC))
      continue;
    const fs::path P = It->path();
    if (P.extension() != ".blob")
      continue;
    std::error_code SEC, TEC;
    const uint64_t Size = fs::file_size(P, SEC);
    const auto MTime = fs::last_write_time(P, TEC);
    if (SEC || TEC)
      continue;
    TotalBytes += Size;
    Blobs.push_back({P.string(), Size, MTime});
  }

  uint64_t Evicted = 0;
  if (TotalBytes > BudgetBytes) {
    // Oldest first; path tiebreak keeps the pass deterministic when mtimes
    // collide (coarse filesystem timestamps).
    std::sort(Blobs.begin(), Blobs.end(),
              [](const BlobInfo &A, const BlobInfo &B) {
                if (A.MTime != B.MTime)
                  return A.MTime < B.MTime;
                return A.Path < B.Path;
              });
    for (const BlobInfo &Blob : Blobs) {
      if (TotalBytes <= BudgetBytes)
        break;
      std::error_code Ignored;
      if (fs::remove(Blob.Path, Ignored) && !Ignored) {
        TotalBytes -= Blob.Size;
        ++Evicted;
      }
    }
    Evictions.fetch_add(Evicted, std::memory_order_relaxed);
  }

  if (Locked)
    ::flock(LockFd, LOCK_UN);
  return Evicted;
}

StatusOr<std::vector<uint8_t>> ArtifactCache::load(const Digest &Key) {
  ensureSwept();
  if (Faults) {
    Status Injected = Faults->check(fault::Site::CacheLoad, Key.hex());
    if (!Injected.ok()) {
      Misses.fetch_add(1, std::memory_order_relaxed);
      return Injected;
    }
  }

  const bool Locked = acquireShared();
  const std::string Path = blobPath(Key);
  std::vector<uint8_t> Blob;
  if (!readFile(Path, Blob)) {
    if (Locked)
      releaseShared();
    Misses.fetch_add(1, std::memory_order_relaxed);
    return Status::notFound("no blob for key " + Key.hex(),
                            "serialize::ArtifactCache");
  }
  if (Locked)
    releaseShared();

  auto Reject = [&](const char *Why) -> StatusOr<std::vector<uint8_t>> {
    std::error_code EC;
    fs::remove(Path, EC); // heal: drop the bad blob so a store can replace it
    Misses.fetch_add(1, std::memory_order_relaxed);
    CorruptDeletes.fetch_add(1, std::memory_order_relaxed);
    return Status::corrupt(std::string(Why) + " for key " + Key.hex(),
                           "serialize::ArtifactCache");
  };

  if (Blob.size() < kHeaderSize)
    return Reject("blob shorter than header");
  ByteReader R(Blob);
  if (R.readU32() != kBlobMagic)
    return Reject("bad blob magic");
  if (R.readU32() != kContainerVersion)
    return Reject("container version mismatch");
  const uint64_t PayloadSize = R.readU64();
  Digest Stored;
  for (uint8_t &B : Stored.Bytes)
    B = R.readU8();
  if (!R.ok() || PayloadSize != Blob.size() - kHeaderSize)
    return Reject("payload size mismatch");

  std::vector<uint8_t> Payload(Blob.begin() + kHeaderSize, Blob.end());
  if (Hasher::hash(Payload.data(), Payload.size()) != Stored)
    return Reject("payload digest mismatch");

  Hits.fetch_add(1, std::memory_order_relaxed);
  return Payload;
}

Status ArtifactCache::store(const Digest &Key,
                            const std::vector<uint8_t> &Payload) {
  ensureSwept();
  auto Fail = [&](std::string Why) {
    FailedStores.fetch_add(1, std::memory_order_relaxed);
    return Status::transient(std::move(Why) + " for key " + Key.hex(),
                             "serialize::ArtifactCache");
  };

  if (Faults) {
    Status Injected = Faults->check(fault::Site::CacheStore, Key.hex());
    if (!Injected.ok()) {
      FailedStores.fetch_add(1, std::memory_order_relaxed);
      return Injected;
    }
  }

  const std::string Path = blobPath(Key);
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);
  if (EC)
    return Fail("cannot create cache directory");

  ByteWriter W;
  W.writeU32(kBlobMagic);
  W.writeU32(kContainerVersion);
  W.writeU64(Payload.size());
  const Digest PayloadDigest = Hasher::hash(Payload.data(), Payload.size());
  W.writeBytes(PayloadDigest.Bytes.data(), PayloadDigest.Bytes.size());
  W.writeBytes(Payload.data(), Payload.size());

  const bool Locked = acquireShared();
  // Unique temp name per process/thread; rename is atomic on POSIX.
  const std::string Temp =
      Path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(TempCounter.fetch_add(1, std::memory_order_relaxed));
  if (!writeFile(Temp, W.bytes())) {
    std::error_code Ignored;
    fs::remove(Temp, Ignored);
    if (Locked)
      releaseShared();
    return Fail("cannot write temp blob");
  }
  // The crash harness's most hostile instant: temp written, rename not yet
  // issued.  A death here must leave only an orphan for the sweep.
  if (Faults)
    Faults->maybeCrash(fault::Site::CrashMidStore, Key.hex());
  fs::rename(Temp, Path, EC);
  if (EC) {
    std::error_code Ignored;
    fs::remove(Temp, Ignored);
    if (Locked)
      releaseShared();
    return Fail("cannot rename temp blob");
  }
  if (Locked)
    releaseShared();
  Stores.fetch_add(1, std::memory_order_relaxed);
  return Status();
}

std::string ArtifactCache::countersLine() const {
  return formatString(
      "hits=%llu misses=%llu stores=%llu corrupt=%llu store-failures=%llu "
      "orphans-reaped=%llu evicted=%llu lock-contention=%llu",
      static_cast<unsigned long long>(hits()),
      static_cast<unsigned long long>(misses()),
      static_cast<unsigned long long>(stores()),
      static_cast<unsigned long long>(corruptDeletes()),
      static_cast<unsigned long long>(failedStores()),
      static_cast<unsigned long long>(orphansReaped()),
      static_cast<unsigned long long>(evictions()),
      static_cast<unsigned long long>(lockContention()));
}
