//===- serve/JobStore.h - Durable job records for dmp_served ----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-durable job state for the campaign service (DESIGN.md "Recovery &
/// idempotency").  Every accepted SubmitRequest is filed in the artifact
/// cache under its deterministic request key (serve::requestKey) as one
/// whole blob: each checkpoint rewrites the complete record — the request
/// plus every completed cell outcome — through the cache's atomic
/// temp-file + rename store, so a blob read after any crash is either the
/// previous checkpoint or the next one, never a torn mixture.
///
/// This is the repo's one journal.  A local campaign needs none (every
/// stage a cell computes is already a cache blob), but a restarted daemon
/// must know which requests it still owes, and no cache can recompute
/// that.
///
/// A small index blob under a fixed well-known key lists the request keys
/// of jobs that have been accepted but not yet acknowledged; the cache has
/// no enumeration API, so this is how a restarted daemon finds the jobs it
/// owes.  When a client acknowledges a fetched job, the record is replaced
/// by an "acked" tombstone (submitting the same request again later starts
/// fresh instead of replaying stale results) and the key leaves the index.
///
/// Durability here is an accelerator-grade promise, matching the cache it
/// rides on: every store failure is logged-and-survivable (the job still
/// runs, it just won't outlive a crash), and a corrupt blob on recovery is
/// dropped, never trusted.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERVE_JOBSTORE_H
#define DMP_SERVE_JOBSTORE_H

#include "serialize/ArtifactCache.h"
#include "serve/Protocol.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dmp::serve {

/// Durable record of one accepted job: the request that created it plus
/// the outcome of every cell that has finished (std::nullopt = still
/// pending).  Outcomes.size() == Request.Cells.size() except in an acked
/// tombstone, which carries neither.
struct JobRecord {
  bool Acked = false;
  SubmitRequest Request;
  std::vector<std::optional<StatusOr<harness::CellResult>>> Outcomes;
};

/// Files JobRecords in an ArtifactCache keyed by request digest, plus the
/// active-jobs index.  Single-writer by design (one daemon owns a socket
/// and its cache dir); all methods are cheap and synchronous.
class JobStore {
public:
  explicit JobStore(std::shared_ptr<serialize::ArtifactCache> Cache);

  /// Loads the record filed under \p Key.  NotFound when no record exists;
  /// Corrupt when the blob fails validation (the caller should drop the
  /// key and start fresh).
  StatusOr<JobRecord> load(const serialize::Digest &Key);

  /// Atomically rewrites the record under \p Key.  A failure is returned
  /// (for logging / counters) but must be treated as survivable: the job
  /// keeps running in memory, it just loses crash durability.
  Status checkpoint(const serialize::Digest &Key, const JobRecord &Record);

  /// Replaces the record with an acked tombstone and drops \p Key from the
  /// active index.  Idempotent.
  Status markAcked(const serialize::Digest &Key);

  /// The request keys of accepted-but-unacked jobs, in deterministic
  /// (hex-sorted) order — what a restarted daemon must recover.
  std::vector<serialize::Digest> indexed() const;

  Status addToIndex(const serialize::Digest &Key);
  Status removeFromIndex(const serialize::Digest &Key);

  serialize::ArtifactCache &cache() { return *Cache; }

private:
  Status persistIndex();

  std::shared_ptr<serialize::ArtifactCache> Cache;
  /// hex(key) -> key; the map keeps the index deterministic and sorted.
  std::map<std::string, serialize::Digest> Index;
};

} // namespace dmp::serve

#endif // DMP_SERVE_JOBSTORE_H
