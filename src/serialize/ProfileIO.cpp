//===- serialize/ProfileIO.cpp - Versioned artifact formats ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "serialize/ProfileIO.h"

#include <algorithm>

using namespace dmp;
using namespace dmp::serialize;

namespace {

void writeHeader(ByteWriter &W, ArtifactKind Kind) {
  W.writeU32(static_cast<uint32_t>(Kind));
  W.writeU32(kFormatVersion);
}

constexpr const char *kOrigin = "serialize::ProfileIO";

Status corrupt(std::string Msg) {
  return Status::corrupt(std::move(Msg), kOrigin);
}

/// Validates the tag/version header; returns Corrupt on mismatch.
Status readHeader(ByteReader &R, ArtifactKind Expected) {
  const uint32_t Kind = R.readU32();
  const uint32_t Version = R.readU32();
  if (!R.ok())
    return corrupt("artifact truncated before header");
  if (Kind != static_cast<uint32_t>(Expected))
    return corrupt("artifact kind mismatch");
  if (Version != kFormatVersion)
    return corrupt("artifact format version mismatch (got " +
                   std::to_string(Version) + ", want " +
                   std::to_string(kFormatVersion) + ")");
  return Status();
}

/// Keys of an unordered map in ascending order, for deterministic output.
template <typename MapT>
std::vector<uint32_t> sortedKeys(const MapT &Map) {
  std::vector<uint32_t> Keys;
  Keys.reserve(Map.size());
  for (const auto &[Key, Value] : Map)
    Keys.push_back(Key);
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

Status finishDecode(const ByteReader &R) {
  if (!R.ok())
    return corrupt("artifact truncated");
  if (!R.atEnd())
    return corrupt("artifact has trailing bytes");
  return Status();
}

} // namespace

//===----------------------------------------------------------------------===//
// ProfileData
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
serialize::encodeProfileData(const profile::ProfileData &Data) {
  ByteWriter W;
  writeHeader(W, ArtifactKind::Profile);

  // Edge profile: branches, then block execution counts.
  const auto &Branches = Data.Edges.branches();
  W.writeU64(Branches.size());
  for (uint32_t Addr : sortedKeys(Branches)) {
    const cfg::BranchCounts C = Data.Edges.branchCounts(Addr);
    W.writeU32(Addr);
    W.writeU64(C.Taken);
    W.writeU64(C.NotTaken);
  }
  const auto &Blocks = Data.Edges.blockExecCounts();
  W.writeU64(Blocks.size());
  for (uint32_t Addr : sortedKeys(Blocks)) {
    W.writeU32(Addr);
    W.writeU64(Blocks.at(Addr));
  }

  // Branch misprediction profile.
  const auto &Mispredicts = Data.Branches.all();
  W.writeU64(Mispredicts.size());
  for (uint32_t Addr : sortedKeys(Mispredicts)) {
    const profile::BranchStats S = Data.Branches.stats(Addr);
    W.writeU32(Addr);
    W.writeU64(S.Executed);
    W.writeU64(S.Taken);
    W.writeU64(S.Mispredicted);
  }

  // Loop profile.
  const auto &Loops = Data.Loops.all();
  W.writeU64(Loops.size());
  for (uint32_t Header : sortedKeys(Loops)) {
    const profile::LoopStats &S = *Data.Loops.find(Header);
    W.writeU32(Header);
    W.writeU64(S.DynamicInstrs);
    W.writeU64(S.Invocations);
    const auto &Buckets = S.Iterations.buckets();
    W.writeU64(Buckets.size());
    for (const auto &[Value, Count] : Buckets) { // std::map: already sorted
      W.writeU64(Value);
      W.writeU64(Count);
    }
  }

  W.writeU64(Data.DynamicInstrs);
  W.writeU8(Data.Completed ? 1 : 0);
  return W.take();
}

Status serialize::decodeProfileData(const std::vector<uint8_t> &Blob,
                                    profile::ProfileData &Data) {
  ByteReader R(Blob);
  if (Status S = readHeader(R, ArtifactKind::Profile); !S.ok())
    return S;

  profile::ProfileData Out;
  const uint64_t NumBranches = R.readU64();
  if (NumBranches > R.remaining())
    return corrupt("artifact truncated");
  for (uint64_t I = 0; I < NumBranches && R.ok(); ++I) {
    const uint32_t Addr = R.readU32();
    cfg::BranchCounts C;
    C.Taken = R.readU64();
    C.NotTaken = R.readU64();
    Out.Edges.setBranchCounts(Addr, C);
  }
  const uint64_t NumBlocks = R.readU64();
  if (NumBlocks > R.remaining())
    return corrupt("artifact truncated");
  for (uint64_t I = 0; I < NumBlocks && R.ok(); ++I) {
    const uint32_t Addr = R.readU32();
    Out.Edges.setBlockExecCount(Addr, R.readU64());
  }

  const uint64_t NumMispredicts = R.readU64();
  if (NumMispredicts > R.remaining())
    return corrupt("artifact truncated");
  for (uint64_t I = 0; I < NumMispredicts && R.ok(); ++I) {
    const uint32_t Addr = R.readU32();
    profile::BranchStats S;
    S.Executed = R.readU64();
    S.Taken = R.readU64();
    S.Mispredicted = R.readU64();
    Out.Branches.setStats(Addr, S);
  }

  const uint64_t NumLoops = R.readU64();
  if (NumLoops > R.remaining())
    return corrupt("artifact truncated");
  for (uint64_t I = 0; I < NumLoops && R.ok(); ++I) {
    const uint32_t Header = R.readU32();
    profile::LoopStats &S = Out.Loops.statsFor(Header);
    S.DynamicInstrs = R.readU64();
    S.Invocations = R.readU64();
    const uint64_t NumBuckets = R.readU64();
    if (NumBuckets > R.remaining())
      return corrupt("artifact truncated");
    for (uint64_t J = 0; J < NumBuckets && R.ok(); ++J) {
      const uint64_t Value = R.readU64();
      const uint64_t Count = R.readU64();
      S.Iterations.addSample(Value, Count);
    }
  }

  Out.DynamicInstrs = R.readU64();
  Out.Completed = R.readU8() != 0;
  if (Status S = finishDecode(R); !S.ok())
    return S;
  Data = std::move(Out);
  return Status();
}

//===----------------------------------------------------------------------===//
// DivergeMap
//===----------------------------------------------------------------------===//

std::vector<uint8_t> serialize::encodeDivergeMap(const core::DivergeMap &Map) {
  ByteWriter W;
  writeHeader(W, ArtifactKind::DivergeMap);
  const std::vector<uint32_t> Addrs = Map.sortedAddrs();
  W.writeU64(Addrs.size());
  for (uint32_t Addr : Addrs) {
    const core::DivergeAnnotation &Ann = *Map.find(Addr);
    W.writeU32(Addr);
    W.writeU8(static_cast<uint8_t>(Ann.Kind));
    W.writeU8(Ann.AlwaysPredicate ? 1 : 0);
    W.writeU32(Ann.LoopHeaderAddr);
    W.writeU32(Ann.LoopSelectUops);
    W.writeU8(Ann.LoopStayTaken ? 1 : 0);
    W.writeU64(Ann.Cfms.size());
    for (const core::CfmPoint &P : Ann.Cfms) {
      W.writeU8(static_cast<uint8_t>(P.PointKind));
      W.writeU32(P.Addr);
      W.writeDouble(P.MergeProb);
    }
  }
  return W.take();
}

Status serialize::decodeDivergeMap(const std::vector<uint8_t> &Blob,
                                   core::DivergeMap &Map) {
  ByteReader R(Blob);
  if (Status S = readHeader(R, ArtifactKind::DivergeMap); !S.ok())
    return S;
  core::DivergeMap Out;
  const uint64_t NumEntries = R.readU64();
  if (NumEntries > R.remaining())
    return corrupt("artifact truncated");
  for (uint64_t I = 0; I < NumEntries && R.ok(); ++I) {
    const uint32_t Addr = R.readU32();
    core::DivergeAnnotation Ann;
    const uint8_t Kind = R.readU8();
    if (Kind > static_cast<uint8_t>(core::DivergeKind::NoCfm))
      return corrupt("invalid diverge kind in artifact");
    Ann.Kind = static_cast<core::DivergeKind>(Kind);
    Ann.AlwaysPredicate = R.readU8() != 0;
    Ann.LoopHeaderAddr = R.readU32();
    Ann.LoopSelectUops = R.readU32();
    Ann.LoopStayTaken = R.readU8() != 0;
    const uint64_t NumCfms = R.readU64();
    if (NumCfms > R.remaining())
      return corrupt("artifact truncated");
    for (uint64_t J = 0; J < NumCfms && R.ok(); ++J) {
      core::CfmPoint P;
      const uint8_t PointKind = R.readU8();
      if (PointKind > static_cast<uint8_t>(core::CfmPoint::Kind::Return))
        return corrupt("invalid cfm point kind in artifact");
      P.PointKind = static_cast<core::CfmPoint::Kind>(PointKind);
      P.Addr = R.readU32();
      P.MergeProb = R.readDouble();
      Ann.Cfms.push_back(P);
    }
    Out.add(Addr, std::move(Ann));
  }
  if (Status S = finishDecode(R); !S.ok())
    return S;
  Map = std::move(Out);
  return Status();
}

//===----------------------------------------------------------------------===//
// SimStats
//===----------------------------------------------------------------------===//

// Every field is a uint64 counter; if this assert fires, a field was added
// or removed — update the encode/decode lists below and bump
// kFormatVersion.
static_assert(sizeof(sim::SimStats) == 29 * sizeof(uint64_t),
              "SimStats layout changed; update serialization");

std::vector<uint8_t> serialize::encodeSimStats(const sim::SimStats &S) {
  ByteWriter W;
  writeHeader(W, ArtifactKind::SimStats);
  const uint64_t Fields[] = {
      S.RetiredInstrs,     S.Cycles,          S.CondBranches,
      S.Mispredictions,    S.Flushes,         S.BtbMissBubbles,
      S.RasMispredicts,    S.LowConfBranches, S.LowConfMispredicted,
      S.DpredEntries,      S.DpredEntriesLoop, S.DpredEntriesAlways,
      S.DpredMerged,       S.DpredNoMerge,    S.DpredSavedFlushes,
      S.DpredWastedEntries, S.DpredAborted,   S.DpredActiveAtEnd,
      S.UsefulDpredInstrs,
      S.UselessDpredInstrs, S.SelectUops,     S.LoopCorrect,
      S.LoopEarlyExit,     S.LoopLateExit,    S.LoopNoExit,
      S.LoopExtraIterInstrs, S.IL1Misses,     S.DL1Misses,
      S.L2Misses};
  W.writeU64(std::size(Fields));
  for (uint64_t F : Fields)
    W.writeU64(F);
  return W.take();
}

Status serialize::decodeSimStats(const std::vector<uint8_t> &Blob,
                                 sim::SimStats &Stats) {
  ByteReader R(Blob);
  if (Status S = readHeader(R, ArtifactKind::SimStats); !S.ok())
    return S;
  const uint64_t NumFields = R.readU64();
  if (NumFields != 29)
    return corrupt("sim stats field count mismatch");
  sim::SimStats S;
  uint64_t *Fields[] = {
      &S.RetiredInstrs,     &S.Cycles,          &S.CondBranches,
      &S.Mispredictions,    &S.Flushes,         &S.BtbMissBubbles,
      &S.RasMispredicts,    &S.LowConfBranches, &S.LowConfMispredicted,
      &S.DpredEntries,      &S.DpredEntriesLoop, &S.DpredEntriesAlways,
      &S.DpredMerged,       &S.DpredNoMerge,    &S.DpredSavedFlushes,
      &S.DpredWastedEntries, &S.DpredAborted,   &S.DpredActiveAtEnd,
      &S.UsefulDpredInstrs,
      &S.UselessDpredInstrs, &S.SelectUops,     &S.LoopCorrect,
      &S.LoopEarlyExit,     &S.LoopLateExit,    &S.LoopNoExit,
      &S.LoopExtraIterInstrs, &S.IL1Misses,     &S.DL1Misses,
      &S.L2Misses};
  for (uint64_t *F : Fields)
    *F = R.readU64();
  if (Status St = finishDecode(R); !St.ok())
    return St;
  Stats = S;
  return Status();
}

//===----------------------------------------------------------------------===//
// CorrectPathTrace
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
serialize::encodeCorrectPathTrace(const sim::CorrectPathTrace &T) {
  ByteWriter W;
  W.reserve(8 + 6 * 8 + T.Branches.size() + 4 * T.Events.size());
  writeHeader(W, ArtifactKind::CorrectPathTrace);
  for (uint64_t F : {T.Instrs, T.IL1Misses, T.DL1Misses, T.L2Misses})
    W.writeU64(F);
  W.writeU64(T.Branches.size());
  W.writeBytes(T.Branches.data(), T.Branches.size());
  W.writeU64(T.Events.size());
  for (uint32_t E : T.Events)
    W.writeU32(E);
  return W.take();
}

Status serialize::decodeCorrectPathTrace(const std::vector<uint8_t> &Blob,
                                         sim::CorrectPathTrace &Trace) {
  ByteReader R(Blob);
  if (Status S = readHeader(R, ArtifactKind::CorrectPathTrace); !S.ok())
    return S;
  sim::CorrectPathTrace T;
  for (uint64_t *F : {&T.Instrs, &T.IL1Misses, &T.DL1Misses, &T.L2Misses})
    *F = R.readU64();
  const uint64_t NumBranches = R.readU64();
  if (!R.ok() || NumBranches > R.remaining())
    return corrupt("correct-path trace branch records truncated");
  T.Branches.resize(NumBranches);
  R.readBytes(T.Branches.data(), NumBranches);
  const uint64_t NumEvents = R.readU64();
  if (!R.ok() || NumEvents > R.remaining() / 4)
    return corrupt("correct-path trace events truncated");
  T.Events.resize(NumEvents);
  for (uint32_t &E : T.Events)
    E = R.readU32();
  if (Status St = finishDecode(R); !St.ok())
    return St;
  if (NumBranches > T.Instrs)
    return corrupt("correct-path trace has more branches than instructions");
  Trace = std::move(T);
  return Status();
}
