//===- serialize/ProfileIO.h - Versioned artifact formats -------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary (de)serialization for the four cacheable artifact
/// kinds of the experiment pipeline:
///
///  - profile::ProfileData   (edge + branch-misprediction + loop profiles),
///  - core::DivergeMap       (diverge-branch annotation sets),
///  - sim::SimStats          (one simulation's counters),
///  - sim::CorrectPathTrace  (one recorded correct path, replayed by every
///                            simulation of a (program, input, config)).
///
/// Every payload starts with a per-kind tag and format version; readers
/// reject unknown tags and version mismatches with a one-line diagnostic
/// (lowercase, no trailing period, per the project's error-message style).
/// Map-like containers are emitted in ascending key order, so serializing
/// the same data always yields the same bytes — which is what lets the
/// artifact cache treat "payload digest" as an integrity check and keeps
/// cached results bit-identical to recomputed ones.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERIALIZE_PROFILEIO_H
#define DMP_SERIALIZE_PROFILEIO_H

#include "core/DivergeInfo.h"
#include "profile/Profiler.h"
#include "serialize/ByteStream.h"
#include "sim/CorrectPathTrace.h"
#include "sim/SimStats.h"
#include "support/Status.h"

#include <cstdint>
#include <vector>

namespace dmp::serialize {

/// Bump when any payload encoding changes; readers reject other versions.
constexpr uint32_t kFormatVersion = 2;

/// Cache-schema version folded into every artifact-cache key (see
/// harness::profileCacheKey / simCacheKey).  Bump whenever the *meaning* of
/// a cached artifact changes without its input spec changing — e.g. a
/// payload-encoding change (kFormatVersion bump), a new field in SimStats,
/// or a semantic fix in the profiler/simulator.  Old entries then miss
/// instead of being misread as current results.
constexpr uint32_t kCacheSchemaVersion = 3;

/// Payload kind tags (first u32 of every payload).
enum class ArtifactKind : uint32_t {
  Profile = 0x50524F46,   // "PROF"
  DivergeMap = 0x444D4150, // "DMAP"
  SimStats = 0x53494D53,  // "SIMS"
  CorrectPathTrace = 0x43505452, // "CPTR"
};

// Decoders return a Corrupt Status (origin "serialize::ProfileIO", message
// per the project's one-line diagnostic style) on any malformed payload and
// never crash; \p Data is written only on success.
std::vector<uint8_t> encodeProfileData(const profile::ProfileData &Data);
Status decodeProfileData(const std::vector<uint8_t> &Blob,
                         profile::ProfileData &Data);

std::vector<uint8_t> encodeDivergeMap(const core::DivergeMap &Map);
Status decodeDivergeMap(const std::vector<uint8_t> &Blob,
                        core::DivergeMap &Map);

std::vector<uint8_t> encodeSimStats(const sim::SimStats &Stats);
Status decodeSimStats(const std::vector<uint8_t> &Blob, sim::SimStats &Stats);

std::vector<uint8_t> encodeCorrectPathTrace(const sim::CorrectPathTrace &Trace);
Status decodeCorrectPathTrace(const std::vector<uint8_t> &Blob,
                              sim::CorrectPathTrace &Trace);

} // namespace dmp::serialize

#endif // DMP_SERIALIZE_PROFILEIO_H
