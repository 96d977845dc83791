//===- serve/JobStore.h - The requests dmp_served still owes ----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-durable job state for the campaign service (DESIGN.md "Recovery &
/// idempotency"): the list of accepted requests a restarted daemon still
/// owes its clients.  It is the repo's one journal, and it holds only what
/// no cache can recompute.  Cell outcomes are not kept: every stage a cell
/// computes (profile, trace, baseline, DMP sim) is already an artifact-cache
/// blob, so a recovered job reruns its cells and the stages come back as
/// cache hits.
///
/// The list is one blob under a fixed well-known key in the artifact cache
/// (the cache has no enumeration API): each owed request's key
/// (serve::requestKey) and its encodeSubmit bytes, in key order.  Every
/// add() and remove() rewrites the whole blob through the cache's atomic
/// temp-file + rename store, so a blob read after any crash is either the
/// previous list or the next one, never a torn mixture.
///
/// Durability here is an accelerator-grade promise, matching the cache it
/// rides on: every store failure is logged-and-survivable (the job still
/// runs, it just won't outlive a crash), and a missing or corrupt list on
/// load means nothing is owed.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERVE_JOBSTORE_H
#define DMP_SERVE_JOBSTORE_H

#include "serialize/ArtifactCache.h"
#include "serve/Protocol.h"

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dmp::serve {

/// The owed-requests list in an ArtifactCache.  Single-writer by design
/// (one daemon owns a socket and its cache dir); all methods are
/// synchronous.
class JobStore {
public:
  /// Loads the list; a missing or undecodable blob means nothing is owed.
  explicit JobStore(std::shared_ptr<serialize::ArtifactCache> Cache);

  /// The cache key the list is stored under.
  static serialize::Digest listKey();

  /// Files \p Request as owed under \p Key and rewrites the list.  A
  /// failure is returned (for logging) but must be treated as survivable:
  /// the job keeps running in memory, it just loses crash durability.
  Status add(const serialize::Digest &Key, const SubmitRequest &Request);

  /// Drops \p Key from the list and rewrites it.  A no-op when \p Key is
  /// not owed.
  Status remove(const serialize::Digest &Key);

  /// The owed requests with their keys, in key order: what a restarted
  /// daemon must run again.
  std::vector<std::pair<serialize::Digest, SubmitRequest>> owed() const;

private:
  Status persist();

  std::shared_ptr<serialize::ArtifactCache> Cache;
  /// hex(key) -> (key, encodeSubmit bytes); the map keeps the list in key
  /// order.
  std::map<std::string, std::pair<serialize::Digest, std::vector<uint8_t>>>
      Owed;
};

} // namespace dmp::serve

#endif // DMP_SERVE_JOBSTORE_H
