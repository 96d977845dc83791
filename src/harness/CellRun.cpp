//===- harness/CellRun.cpp - One remotely-executable experiment cell ------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "harness/CellRun.h"

#include "core/SimpleSelectors.h"
#include "serialize/ProfileIO.h"
#include "support/StringUtils.h"

#include <cstring>

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
                            workloads::InputSetKind Input) {
  return Bench.select(Features(), Input);
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
       [](BenchContext &B, workloads::InputSetKind In) {
         return core::selectEveryBranch(B.analysis(), B.profileData(In));
       }},
      {"random-50",
       [](BenchContext &B, workloads::InputSetKind In) {
         return core::selectRandom50(B.analysis(), B.profileData(In));
       }},
      {"high-bp-5",
       [](BenchContext &B, workloads::InputSetKind In) {
         return core::selectHighBP(B.analysis(), B.profileData(In));
       }},
      {"immediate",
       [](BenchContext &B, workloads::InputSetKind In) {
         return core::selectImmediate(B.analysis(), B.profileData(In));
       }},
      {"if-else",
       [](BenchContext &B, workloads::InputSetKind In) {
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

std::string harness::selectionPresetNames() {
  std::string Names;
  for (const SelectionPreset &P : selectionPresets())
    Names += (Names.empty() ? "" : "|") + std::string(P.Name);
  return Names;
}

StatusOr<std::vector<std::string>>
harness::parseCellFlags(int Argc, char **Argv, CellSpec &Spec) {
  std::vector<std::string> Rest;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto ValueOf = [&Arg](const char *Flag) -> const char * {
      const size_t Len = std::strlen(Flag);
      return Arg.compare(0, Len, Flag) == 0 ? Arg.c_str() + Len : nullptr;
    };
    uint64_t U = 0;
    if (const char *V = ValueOf("--algo=")) {
      if (!findSelectionPreset(V))
        return invalid(formatString("unknown algorithm '%s'", V));
      Spec.Algo = V;
    } else if (const char *V = ValueOf("--profile-input=")) {
      if (std::strcmp(V, "run") == 0)
        Spec.ProfileInput = workloads::InputSetKind::Run;
      else if (std::strcmp(V, "train") == 0)
        Spec.ProfileInput = workloads::InputSetKind::Train;
      else
        return invalid(formatString("invalid --profile-input '%s'", V));
    } else if (const char *V = ValueOf("--max-instr=")) {
      if (!parseU64(V, U) || U == 0 || U > 1'000'000)
        return invalid(formatString("invalid --max-instr value '%s'", V));
      Spec.MaxInstr = static_cast<unsigned>(U);
    } else if (const char *V = ValueOf("--min-merge-prob=")) {
      double P = 0.0;
      if (!parseF64(V, P) || P > 1.0)
        return invalid(formatString("invalid --min-merge-prob value '%s'", V));
      Spec.MinMergeProb = P;
    } else {
      Rest.push_back(Arg);
    }
  }
  return Rest;
}

ExperimentOptions
harness::cellOptions(const CellSpec &Spec,
                     std::shared_ptr<serialize::ArtifactCache> Cache) {
  ExperimentOptions Options;
  Options.Selection = Options.Selection.withMaxInstr(Spec.MaxInstr)
                          .withMinMergeProb(Spec.MinMergeProb);
  Options.Profile.MaxInstrs = Spec.ProfileInstrs;
  Options.Sim.MaxInstrs = Spec.SimInstrs;
  Options.Cache = std::move(Cache);
  return Options;
}

StatusOr<CellResult>
harness::runCellSpec(const CellSpec &Spec,
                     std::shared_ptr<serialize::ArtifactCache> Cache,
                     std::function<void()> Progress) {
  if (Status S = Spec.validate(); !S.ok())
    return S;
  const workloads::BenchmarkSpec *Bench =
      workloads::findBenchmark(Spec.Benchmark);
  if (!Bench)
    return Status::notFound("unknown benchmark '" + Spec.Benchmark + "'",
                            "harness::CellRun");
  const SelectionPreset *Preset = findSelectionPreset(Spec.Algo);
  if (!Preset)
    return Status::notFound("unknown selection algorithm '" + Spec.Algo + "'",
                            "harness::CellRun");

  // The options dmpc builds from the same spec, which is what makes local
  // and remote digests bit-identical.
  ExperimentOptions Options = cellOptions(Spec, std::move(Cache));
  Options.Sim.Progress = std::move(Progress);
  try {
    BenchContext Context(*Bench, Options);
    const core::DivergeMap Map = Preset->Select(Context, Spec.ProfileInput);
    CellResult Result;
    Result.Baseline = Context.baseline();
    Result.Dmp = Context.simulateWith(Map);
    Result.DivergeBranches = Map.size();
    Result.AvgCfmPoints = Map.avgCfmPoints();
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
