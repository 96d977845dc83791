//===- harness/Experiment.cpp - Profile->select->simulate pipeline ------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "serialize/ProfileIO.h"

using namespace dmp;
using namespace dmp::harness;

namespace {

/// Folds every field of \p Spec into \p H.  The workload builder is a pure
/// function of the spec, so this stands in for hashing the program itself.
void hashSpec(serialize::Hasher &H, const workloads::BenchmarkSpec &Spec) {
  H.update(std::string(Spec.Name));
  for (unsigned V :
       {Spec.OuterIters, Spec.SimpleHard, Spec.SimpleEasy, Spec.Nested,
        Spec.Freq, Spec.Short, Spec.RetFuncs, Spec.DataLoops, Spec.HardLoops,
        Spec.BorderLoops, Spec.Guarded, Spec.Big, Spec.CallHammocks,
        Spec.DualMerge, Spec.Straight, Spec.BodyLen, Spec.MergeLen,
        Spec.StraightLen})
    H.updateU64(V);
  H.updateDouble(Spec.HardP);
  H.updateU64(Spec.Seed);
}

void hashSimConfig(serialize::Hasher &H, const sim::SimConfig &C) {
  for (uint64_t V :
       {uint64_t(C.FetchWidth), uint64_t(C.MaxNotTakenBranchesPerFetch),
        uint64_t(C.FrontEndDepth), uint64_t(C.IssueWidth),
        uint64_t(C.RetireWidth), uint64_t(C.RobSize), uint64_t(C.LsqSize),
        uint64_t(C.Predictor), uint64_t(C.BtbEntries), uint64_t(C.RasEntries),
        uint64_t(C.ConfIndexBits), uint64_t(C.ConfHistoryBits),
        uint64_t(C.ConfThreshold), C.Memory.IL1Size, uint64_t(C.Memory.IL1Assoc),
        uint64_t(C.Memory.IL1Latency), C.Memory.DL1Size,
        uint64_t(C.Memory.DL1Assoc), uint64_t(C.Memory.DL1Latency),
        C.Memory.L2Size, uint64_t(C.Memory.L2Assoc),
        uint64_t(C.Memory.L2Latency), uint64_t(C.Memory.LineBytes),
        uint64_t(C.Memory.MemoryLatency), uint64_t(C.EnableDmp),
        uint64_t(C.NumPredicateRegs), uint64_t(C.NumCfmRegisters),
        uint64_t(C.MaxDpredInstrs), uint64_t(C.MaxLoopDpredIters), C.MaxInstrs,
        uint64_t(C.InjectFault), C.WatchdogInstrBudget})
    H.updateU64(V);
  // C.Cancel and C.Progress are deliberately NOT hashed: cancellation and
  // liveness beats are execution-time concerns, not part of the simulated
  // machine, and a token pointer would make keys unstable run to run.
}

void hashSelectionConfig(serialize::Hasher &H,
                         const core::SelectionConfig &C) {
  for (uint64_t V :
       {uint64_t(C.MaxInstr), uint64_t(C.MaxCondBr), uint64_t(C.MaxCfmPoints),
        uint64_t(C.ShortHammockMaxInstr), uint64_t(C.StaticLoopSize),
        uint64_t(C.DynamicLoopSize), uint64_t(C.FetchWidth),
        uint64_t(C.MispPenaltyCycles), uint64_t(C.CostScopeMaxInstr),
        uint64_t(C.CostScopeMaxCondBr), uint64_t(C.MaxPaths),
        uint64_t(C.CallExtraWeight)})
    H.updateU64(V);
  for (double V :
       {C.MinExecProb, C.MinMergeProb, C.ShortHammockMinMergeProb,
        C.ShortHammockMinMispRate, C.ReturnCfmMinMergeProb, C.LoopIter,
        C.AccConf, C.MinPathProb})
    H.updateDouble(V);
}

} // namespace

serialize::Digest
harness::profileCacheKey(const workloads::BenchmarkSpec &Spec,
                         workloads::InputSetKind Kind,
                         const profile::ProfileOptions &Options,
                         uint32_t SchemaVersion) {
  serialize::Hasher H;
  H.update(std::string("dmp-profile-key"));
  H.updateU64(SchemaVersion);
  hashSpec(H, Spec);
  H.updateU64(Kind == workloads::InputSetKind::Run ? 0 : 1);
  H.updateU64(Options.MaxInstrs);
  H.updateU64(static_cast<uint64_t>(Options.Predictor));
  return H.finish();
}

namespace {

/// simCacheKey over already-encoded annotations (\p DivergeBytes, null for
/// the baseline), so the memo and the cache key share one encoding.
serialize::Digest simKey(const workloads::BenchmarkSpec &Spec,
                         const sim::SimConfig &Config,
                         const void *DivergeBytes, size_t DivergeSize,
                         const core::SelectionConfig *Selection,
                         uint32_t SchemaVersion) {
  serialize::Hasher H;
  H.update(std::string(DivergeBytes ? "dmp-sim-key" : "dmp-baseline-key"));
  H.updateU64(SchemaVersion);
  hashSpec(H, Spec);
  hashSimConfig(H, Config);
  if (DivergeBytes)
    H.update(DivergeBytes, DivergeSize);
  if (Selection)
    hashSelectionConfig(H, *Selection);
  return H.finish();
}

/// First byte of every memo key: which stage the key names.  A DMP sim
/// key continues with the encoded annotations.
constexpr char kRunProfileKey = 'r';
constexpr char kTrainProfileKey = 't';
constexpr char kTraceKey = 'c';
constexpr char kBaselineKey = 'b';
constexpr char kDmpSimKey = 's';

std::vector<uint8_t> encodeStage(const profile::ProfileData &Data) {
  return serialize::encodeProfileData(Data);
}

std::vector<uint8_t> encodeStage(const sim::SimStats &Stats) {
  return serialize::encodeSimStats(Stats);
}

std::vector<uint8_t> encodeStage(const sim::CorrectPathTrace &Trace) {
  return serialize::encodeCorrectPathTrace(Trace);
}

/// Decodes a cached profile (\p Faults may shim the decode).
Status decodeStage(const fault::Injector *Faults, const serialize::Digest &Key,
                   const std::vector<uint8_t> &Blob,
                   profile::ProfileData &Data) {
  if (Faults)
    if (Status Fault = Faults->check(fault::Site::ProfileDecode, Key.hex());
        !Fault.ok())
      return Fault;
  return serialize::decodeProfileData(Blob, Data);
}

Status decodeStage(const fault::Injector *, const serialize::Digest &,
                   const std::vector<uint8_t> &Blob, sim::SimStats &Stats) {
  return serialize::decodeSimStats(Blob, Stats);
}

Status decodeStage(const fault::Injector *, const serialize::Digest &,
                   const std::vector<uint8_t> &Blob,
                   sim::CorrectPathTrace &Trace) {
  return serialize::decodeCorrectPathTrace(Blob, Trace);
}

} // namespace

serialize::Digest harness::simCacheKey(const workloads::BenchmarkSpec &Spec,
                                       const sim::SimConfig &Config,
                                       const core::DivergeMap *Diverge,
                                       const core::SelectionConfig *Selection,
                                       uint32_t SchemaVersion) {
  if (!Diverge)
    return simKey(Spec, Config, nullptr, 0, Selection, SchemaVersion);
  const std::vector<uint8_t> Bytes = serialize::encodeDivergeMap(*Diverge);
  return simKey(Spec, Config, Bytes.data(), Bytes.size(), Selection,
                SchemaVersion);
}

serialize::Digest harness::traceCacheKey(const workloads::BenchmarkSpec &Spec,
                                         const sim::SimConfig &Config,
                                         uint32_t SchemaVersion) {
  serialize::Hasher H;
  H.update(std::string("dmp-trace-key"));
  H.updateU64(SchemaVersion);
  hashSpec(H, Spec);
  hashSimConfig(H, Config);
  return H.finish();
}

BenchContext::BenchContext(const workloads::BenchmarkSpec &Spec,
                           const ExperimentOptions &Options)
    : Options(Options), Spec(Spec), W(workloads::buildBenchmark(Spec)) {
  PA = std::make_unique<cfg::ProgramAnalysis>(*W.Prog);
  RunImage = W.buildImage(workloads::InputSetKind::Run);
}

template <typename V, typename KeyFn, typename ComputeFn>
const V &BenchContext::stage(const std::string &MemoKey, const KeyFn &CacheKey,
                             const ComputeFn &Compute, bool *Hit) const {
  std::promise<StageValue> Promise;
  std::shared_future<StageValue> Future;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(MemoMutex);
    auto [It, Inserted] = Memo.try_emplace(MemoKey);
    if (Inserted)
      It->second = Promise.get_future().share();
    Future = It->second;
    Owner = Inserted;
  }
  if (Hit)
    *Hit = !Owner;
  if (Owner) {
    // Unpublishes a failed computation before its waiters wake, so no
    // later request can pick up the failed future: the next one recomputes.
    const auto Unpublish = [&] {
      std::lock_guard<std::mutex> Lock(MemoMutex);
      Memo.erase(MemoKey);
    };
    try {
      serialize::Digest Key;
      V Value;
      bool Cached = false;
      if (Options.Cache) {
        Key = CacheKey();
        // An undecodable (or fault-shimmed) blob falls through to a
        // recompute, whose store rewrites it in the current format.
        if (auto Blob = Options.Cache->load(Key))
          Cached = decodeStage(Options.Faults.get(), Key, *Blob, Value).ok();
      }
      if (!Cached) {
        Value = Compute();
        if (Options.Cache)
          Options.Cache->store(Key, encodeStage(Value));
      }
      Promise.set_value(std::move(Value));
    } catch (const StatusError &E) {
      // Waiters get the Status and each throws an exception of its own.
      Unpublish();
      Promise.set_value(E.status());
      throw;
    } catch (...) {
      Unpublish();
      Promise.set_exception(std::current_exception());
      throw;
    }
  }
  // The memo keeps the shared state alive for the context's lifetime.
  const StageValue &Value = Future.get();
  if (const Status *Failure = std::get_if<Status>(&Value))
    throw StatusError(*Failure);
  return std::get<V>(Value);
}

const profile::ProfileData &
BenchContext::profileData(workloads::InputSetKind Kind) {
  const bool IsRun = Kind == workloads::InputSetKind::Run;
  return stage<profile::ProfileData>(
      std::string(1, IsRun ? kRunProfileKey : kTrainProfileKey),
      [&] { return profileCacheKey(Spec, Kind, Options.Profile); },
      [&] {
        return profile::collectProfile(*W.Prog, *PA,
                                       IsRun ? RunImage : W.buildImage(Kind),
                                       Options.Profile);
      });
}

const sim::CorrectPathTrace &BenchContext::trace() const {
  return stage<sim::CorrectPathTrace>(
      std::string(1, kTraceKey),
      [&] { return traceCacheKey(Spec, Options.Sim); },
      [&] {
        Traces.fetch_add(1, std::memory_order_relaxed);
        return sim::recordCorrectPath(*W.Prog, RunImage, Options.Sim);
      });
}

const sim::SimStats &BenchContext::baseline() {
  return stage<sim::SimStats>(
      std::string(1, kBaselineKey),
      [&] { return simCacheKey(Spec, Options.Sim, nullptr); },
      [&] { return sim::simulateBaseline(*W.Prog, trace(), Options.Sim); });
}

sim::SimStats BenchContext::simulateWith(const core::DivergeMap &Diverge) const {
  std::string MemoKey(1, kDmpSimKey);
  {
    const std::vector<uint8_t> Bytes = serialize::encodeDivergeMap(Diverge);
    MemoKey.append(Bytes.begin(), Bytes.end());
  }
  bool Hit = false;
  const sim::SimStats &Stats = stage<sim::SimStats>(
      MemoKey,
      [&] {
        return simKey(Spec, Options.Sim, MemoKey.data() + 1,
                      MemoKey.size() - 1, &Options.Selection,
                      serialize::kCacheSchemaVersion);
      },
      [&] {
        DmpSims.fetch_add(1, std::memory_order_relaxed);
        return sim::simulateDmp(*W.Prog, Diverge, trace(), Options.Sim);
      },
      &Hit);
  if (Hit)
    MemoHits.fetch_add(1, std::memory_order_relaxed);
  return Stats;
}

core::DivergeMap BenchContext::select(const core::SelectionFeatures &Features,
                                      workloads::InputSetKind ProfileInput,
                                      core::SelectionStats *Stats) {
  return core::selectDivergeBranches(*PA, profileData(ProfileInput),
                                     Options.Selection, Features, Stats);
}

sim::SimStats
BenchContext::runSelection(const core::SelectionFeatures &Features,
                           workloads::InputSetKind ProfileInput) {
  return simulateWith(select(Features, ProfileInput));
}

double harness::ipcImprovement(const sim::SimStats &Base,
                               const sim::SimStats &Dmp) {
  if (Base.ipc() <= 0.0)
    return 0.0;
  return Dmp.ipc() / Base.ipc() - 1.0;
}
