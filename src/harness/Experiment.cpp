//===- harness/Experiment.cpp - Profile->select->simulate pipeline ------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "serialize/ProfileIO.h"
#include "sim/DmpCore.h"

using namespace dmp;
using namespace dmp::harness;

/// In the order their SimConfig field groups nest.
enum class dmp::harness::SimStage { Trace, Baseline, Dmp };

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

/// The key bytes of simulation stage \p Stage under \p C: a tag byte, then
/// each SimConfig field the stage reads as a LEB128 varint.  They start the
/// stage's memo key, which its disk key digests, so a memo hit hashes
/// nothing.  C.Cancel and C.Progress are deliberately left out: they are
/// execution-time concerns, not part of the simulated machine.
std::string simConfigKey(const sim::SimConfig &C, SimStage Stage) {
  std::string Key(1, "cbs"[static_cast<int>(Stage)]);
  const auto Put = [&Key](uint64_t V) {
    for (; V > 0x7f; V >>= 7)
      Key.push_back(static_cast<char>((V & 0x7f) | 0x80));
    Key.push_back(static_cast<char>(V));
  };
  // The correct-path recorder.
  for (uint64_t V :
       {uint64_t(C.Predictor), uint64_t(C.BtbEntries), uint64_t(C.RasEntries),
        uint64_t(C.ConfIndexBits), uint64_t(C.ConfHistoryBits),
        uint64_t(C.ConfThreshold), C.Memory.IL1Size, uint64_t(C.Memory.IL1Assoc),
        uint64_t(C.Memory.IL1Latency), C.Memory.DL1Size,
        uint64_t(C.Memory.DL1Assoc), uint64_t(C.Memory.DL1Latency),
        C.Memory.L2Size, uint64_t(C.Memory.L2Assoc),
        uint64_t(C.Memory.L2Latency), uint64_t(C.Memory.LineBytes),
        uint64_t(C.Memory.MemoryLatency), C.MaxInstrs, C.WatchdogInstrBudget,
        uint64_t(C.InjectFault)})
    Put(V);
  if (Stage == SimStage::Trace)
    return Key;
  // The core the baseline replays the trace through.
  for (unsigned V : {C.FetchWidth, C.MaxNotTakenBranchesPerFetch,
                     C.FrontEndDepth, C.IssueWidth, C.RetireWidth, C.RobSize})
    Put(V);
  if (Stage == SimStage::Dmp) // dpred-mode
    for (unsigned V : {C.MaxDpredInstrs, C.MaxLoopDpredIters})
      Put(V);
  return Key;
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

/// The disk key of a simulation stage: digests its memo key, whose tag
/// byte names the stage.
serialize::Digest simKey(const workloads::BenchmarkSpec &Spec,
                         const std::string &MemoKey, uint32_t SchemaVersion) {
  serialize::Hasher H;
  H.update(std::string("dmp-sim-key"));
  H.updateU64(SchemaVersion);
  hashSpec(H, Spec);
  H.update(MemoKey);
  return H.finish();
}

/// First byte of a profile's memo key (simConfigKey tags the others).
constexpr char kRunProfileKey = 'r';
constexpr char kTrainProfileKey = 't';

/// The memo key of a DMP simulation of machine view \p View: its
/// simConfigKey \p ConfigKey, then the encoded view.
std::string viewKey(const std::string &ConfigKey,
                    const core::DivergeMap &View) {
  const std::vector<uint8_t> Bytes = serialize::encodeDivergeMap(View);
  std::string Key;
  Key.reserve(ConfigKey.size() + Bytes.size());
  return Key.append(ConfigKey).append(Bytes.begin(), Bytes.end());
}

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

serialize::Digest
harness::simCacheKey(const workloads::BenchmarkSpec &Spec,
                     const sim::SimConfig &Config,
                     const core::DivergeMap *Diverge,
                     [[maybe_unused]] const core::SelectionConfig *Selection,
                     uint32_t SchemaVersion) {
  // An empty map's simulation is the baseline: both share its entry.
  if (!Diverge || Diverge->empty())
    return simKey(Spec, simConfigKey(Config, SimStage::Baseline),
                  SchemaVersion);
  return simKey(Spec,
                viewKey(simConfigKey(Config, SimStage::Dmp),
                        sim::machineView(*Diverge)),
                SchemaVersion);
}

serialize::Digest harness::traceCacheKey(const workloads::BenchmarkSpec &Spec,
                                         const sim::SimConfig &Config,
                                         uint32_t SchemaVersion) {
  return simKey(Spec, simConfigKey(Config, SimStage::Trace), SchemaVersion);
}

BenchContext::BenchContext(const workloads::BenchmarkSpec &Spec,
                           const ExperimentOptions &Options)
    : Options(Options), Spec(Spec), W(workloads::buildBenchmark(Spec)) {
  PA = std::make_unique<cfg::ProgramAnalysis>(*W.Prog);
  RunImage = W.buildImage(workloads::InputSetKind::Run);
  for (SimStage Stage : {SimStage::Trace, SimStage::Baseline, SimStage::Dmp})
    OwnConfigKeys[static_cast<int>(Stage)] = simConfigKey(Options.Sim, Stage);
}

const std::string &BenchContext::configKey(const sim::SimConfig &Config,
                                           SimStage Stage,
                                           std::string &Scratch) const {
  if (&Config == &Options.Sim)
    return OwnConfigKeys[static_cast<int>(Stage)];
  return Scratch = simConfigKey(Config, Stage);
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

const sim::CorrectPathTrace &
BenchContext::trace(const sim::SimConfig &Config) const {
  std::string Scratch;
  const std::string &MemoKey = configKey(Config, SimStage::Trace, Scratch);
  return stage<sim::CorrectPathTrace>(
      MemoKey,
      [&] { return simKey(Spec, MemoKey, serialize::kCacheSchemaVersion); },
      [&] {
        Traces.fetch_add(1, std::memory_order_relaxed);
        return sim::recordCorrectPath(*W.Prog, RunImage, Config);
      });
}

const sim::SimStats &BenchContext::simStage(const core::DivergeMap &View,
                                            const sim::SimConfig &Config,
                                            bool *Hit) const {
  // The empty view is the baseline machine: its stage is the baseline.
  const SimStage Stage = View.empty() ? SimStage::Baseline : SimStage::Dmp;
  std::string Scratch;
  const std::string &ConfigKey = configKey(Config, Stage, Scratch);
  const std::string DmpKey = View.empty() ? "" : viewKey(ConfigKey, View);
  const std::string &MemoKey = View.empty() ? ConfigKey : DmpKey;
  return stage<sim::SimStats>(
      MemoKey,
      [&] { return simKey(Spec, MemoKey, serialize::kCacheSchemaVersion); },
      [&] {
        if (Stage == SimStage::Dmp)
          DmpSims.fetch_add(1, std::memory_order_relaxed);
        return sim::simulateDmp(*W.Prog, View, trace(Config), Config);
      },
      Hit);
}

sim::SimStats BenchContext::simulateWith(const core::DivergeMap &Diverge,
                                         const sim::SimConfig &Config) const {
  // The memo key is the exact input simulated: maps the core cannot tell
  // apart share one simulation.
  bool Hit = false;
  const sim::SimStats &Stats =
      simStage(sim::machineView(Diverge), Config, &Hit);
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

double harness::ipcImprovement(const sim::SimStats &Base,
                               const sim::SimStats &Dmp) {
  if (Base.ipc() <= 0.0)
    return 0.0;
  return Dmp.ipc() / Base.ipc() - 1.0;
}
