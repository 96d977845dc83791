//===- harness/CellRun.cpp - One remotely-executable experiment cell ------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "harness/CellRun.h"

#include "core/SimpleSelectors.h"
#include "serialize/ProfileIO.h"

using namespace dmp;
using namespace dmp::harness;

namespace {

constexpr uint32_t kCellResultTag = 0x43524553; // "CRES"
constexpr uint32_t kCellResultVersion = 1;
/// Bound on benchmark/algorithm name lengths at decode time, so a hostile
/// frame cannot make a worker allocate an absurd string.
constexpr uint64_t kMaxNameBytes = 256;

Status corrupt(const char *Msg) {
  return Status::corrupt(Msg, "harness::CellRun");
}

Status invalid(std::string Msg) {
  return Status::invariant(std::move(Msg), "harness::CellRun");
}

} // namespace

Status CellSpec::validate() const {
  if (Benchmark.empty() || Benchmark.size() > kMaxNameBytes)
    return invalid("cell spec has an empty or oversized benchmark name");
  if (Algo.empty() || Algo.size() > kMaxNameBytes)
    return invalid("cell spec has an empty or oversized algorithm name");
  if (MaxInstr == 0 || MaxInstr > 1'000'000)
    return invalid("cell spec max-instr out of range");
  if (!(MinMergeProb >= 0.0 && MinMergeProb <= 1.0))
    return invalid("cell spec min-merge-prob out of range");
  if (SimInstrs == 0)
    return invalid("cell spec sim-instrs must be positive");
  if (ProfileInstrs == 0)
    return invalid("cell spec profile-instrs must be positive");
  return Status();
}

namespace {

using core::SelectionFeatures;

SelectionFeatures costEdgeShort() {
  SelectionFeatures F = SelectionFeatures::costEdge();
  F.ShortHammocks = true;
  return F;
}

SelectionFeatures costEdgeShortRet() {
  SelectionFeatures F = costEdgeShort();
  F.ReturnCfm = true;
  return F;
}

template <SelectionFeatures (*Features)()>
core::DivergeMap byFeatures(BenchContext &Bench,
                            workloads::InputSetKind Input,
                            core::SelectionStats *Stats) {
  return Bench.select(Features(), Input, Stats);
}

} // namespace

const std::vector<SelectionPreset> &harness::selectionPresets() {
  static const std::vector<SelectionPreset> Presets = {
      {"exact", byFeatures<SelectionFeatures::exactOnly>},
      {"freq", byFeatures<SelectionFeatures::exactFreq>},
      {"short", byFeatures<SelectionFeatures::exactFreqShort>},
      {"ret", byFeatures<SelectionFeatures::exactFreqShortRet>},
      {"all", byFeatures<SelectionFeatures::allBestHeur>},
      {"cost-long", byFeatures<SelectionFeatures::costLong>},
      {"cost-edge", byFeatures<SelectionFeatures::costEdge>},
      {"cost-short", byFeatures<costEdgeShort>},
      {"cost-ret", byFeatures<costEdgeShortRet>},
      {"all-cost", byFeatures<SelectionFeatures::allBestCost>},
      {"every-br",
       [](BenchContext &B, workloads::InputSetKind In, core::SelectionStats *) {
         return core::selectEveryBranch(B.analysis(), B.profileData(In));
       }},
      {"random-50",
       [](BenchContext &B, workloads::InputSetKind In, core::SelectionStats *) {
         return core::selectRandom50(B.analysis(), B.profileData(In));
       }},
      {"high-bp-5",
       [](BenchContext &B, workloads::InputSetKind In, core::SelectionStats *) {
         return core::selectHighBP(B.analysis(), B.profileData(In));
       }},
      {"immediate",
       [](BenchContext &B, workloads::InputSetKind In, core::SelectionStats *) {
         return core::selectImmediate(B.analysis(), B.profileData(In));
       }},
      {"if-else",
       [](BenchContext &B, workloads::InputSetKind In, core::SelectionStats *) {
         return core::selectIfElse(B.analysis(), B.profileData(In),
                                   B.options().Selection);
       }},
  };
  return Presets;
}

const SelectionPreset *harness::findSelectionPreset(const std::string &Name) {
  for (const SelectionPreset &P : selectionPresets())
    if (Name == P.Name)
      return &P;
  return nullptr;
}

StatusOr<core::DivergeMap>
harness::selectByAlgo(BenchContext &Bench, const std::string &Algo,
                      workloads::InputSetKind Input,
                      core::SelectionStats *Stats) {
  if (const SelectionPreset *P = findSelectionPreset(Algo))
    return P->Select(Bench, Input, Stats);
  return Status::notFound("unknown selection algorithm '" + Algo + "'",
                          "harness::CellRun");
}

StatusOr<CellResult>
harness::runCellSpec(const CellSpec &Spec,
                     std::shared_ptr<serialize::ArtifactCache> Cache,
                     std::function<void()> Progress) {
  if (Status S = Spec.validate(); !S.ok())
    return S;

  const workloads::BenchmarkSpec *Bench = nullptr;
  for (const workloads::BenchmarkSpec &S : workloads::specSuite())
    if (Spec.Benchmark == S.Name)
      Bench = &S;
  if (!Bench)
    return Status::notFound("unknown benchmark '" + Spec.Benchmark + "'",
                            "harness::CellRun");

  // Exactly the options dmpc builds from the same command line, which is
  // what makes local and remote digests bit-identical.
  ExperimentOptions Options;
  Options.Selection = Options.Selection.withMaxInstr(Spec.MaxInstr)
                          .withMinMergeProb(Spec.MinMergeProb);
  Options.Sim.MaxInstrs = Spec.SimInstrs;
  Options.Sim.Progress = std::move(Progress);
  Options.Profile.MaxInstrs = Spec.ProfileInstrs;
  Options.Cache = std::move(Cache);

  try {
    BenchContext Context(*Bench, Options);
    StatusOr<core::DivergeMap> Map =
        selectByAlgo(Context, Spec.Algo, Spec.ProfileInput);
    if (!Map.ok())
      return Map.status();
    CellResult Result;
    Result.Baseline = Context.baseline();
    Result.Dmp = Context.simulateWith(*Map);
    Result.DivergeBranches = Map->size();
    Result.AvgCfmPoints = Map->avgCfmPoints();
    return Result;
  } catch (const StatusError &E) {
    return E.status();
  } catch (const std::exception &E) {
    return Status::invariant(E.what(), "harness::CellRun");
  }
}

void harness::encodeCellSpec(serialize::ByteWriter &W, const CellSpec &Spec) {
  W.writeString(Spec.Benchmark);
  W.writeString(Spec.Algo);
  W.writeU8(Spec.ProfileInput == workloads::InputSetKind::Train ? 1 : 0);
  W.writeU32(Spec.MaxInstr);
  W.writeDouble(Spec.MinMergeProb);
  W.writeU64(Spec.SimInstrs);
  W.writeU64(Spec.ProfileInstrs);
}

Status harness::decodeCellSpec(serialize::ByteReader &R, CellSpec &Spec) {
  CellSpec Out;
  Out.Benchmark = R.readString();
  Out.Algo = R.readString();
  const uint8_t Input = R.readU8();
  Out.MaxInstr = R.readU32();
  Out.MinMergeProb = R.readDouble();
  Out.SimInstrs = R.readU64();
  Out.ProfileInstrs = R.readU64();
  if (!R.ok())
    return corrupt("truncated cell spec");
  if (Input > 1)
    return corrupt("cell spec has an invalid input-set kind");
  Out.ProfileInput = Input ? workloads::InputSetKind::Train
                           : workloads::InputSetKind::Run;
  // Range checks double as decode validation: a malformed spec is Corrupt
  // at the protocol boundary, not an Invariant deep inside a worker.
  if (Status S = Out.validate(); !S.ok())
    return corrupt("cell spec failed validation");
  Spec = std::move(Out);
  return Status();
}

std::vector<uint8_t> harness::encodeCellResult(const CellResult &R) {
  serialize::ByteWriter W;
  W.writeU32(kCellResultTag);
  W.writeU32(kCellResultVersion);
  const std::vector<uint8_t> Base = serialize::encodeSimStats(R.Baseline);
  const std::vector<uint8_t> Dmp = serialize::encodeSimStats(R.Dmp);
  W.writeU64(Base.size());
  W.writeBytes(Base.data(), Base.size());
  W.writeU64(Dmp.size());
  W.writeBytes(Dmp.data(), Dmp.size());
  W.writeU64(R.DivergeBranches);
  W.writeDouble(R.AvgCfmPoints);
  return W.take();
}

Status harness::decodeCellResult(const std::vector<uint8_t> &Blob,
                                 CellResult &R) {
  serialize::ByteReader Reader(Blob);
  if (Reader.readU32() != kCellResultTag || !Reader.ok())
    return corrupt("cell result has a bad tag");
  if (Reader.readU32() != kCellResultVersion || !Reader.ok())
    return corrupt("cell result has an unsupported version");
  CellResult Out;
  for (sim::SimStats *Stats : {&Out.Baseline, &Out.Dmp}) {
    const uint64_t Size = Reader.readU64();
    if (!Reader.ok() || Size > Reader.remaining())
      return corrupt("cell result stats blob is truncated");
    std::vector<uint8_t> Sub(Size);
    for (uint64_t I = 0; I < Size; ++I)
      Sub[I] = Reader.readU8();
    if (Status S = serialize::decodeSimStats(Sub, *Stats); !S.ok())
      return S;
  }
  Out.DivergeBranches = Reader.readU64();
  Out.AvgCfmPoints = Reader.readDouble();
  if (!Reader.ok() || !Reader.atEnd())
    return corrupt("cell result has trailing or missing bytes");
  R = std::move(Out);
  return Status();
}

serialize::Digest harness::cellResultDigest(const CellResult &R) {
  const std::vector<uint8_t> Bytes = encodeCellResult(R);
  return serialize::Hasher::hash(Bytes.data(), Bytes.size());
}
