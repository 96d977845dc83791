//===- tests/test_integration.cpp - End-to-end and property tests -------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Harness-level integration tests and parameterized property sweeps over
// the synthetic suite: the repository's own "does the paper's claim hold"
// checks.
//
//===----------------------------------------------------------------------===//

#include "guard/Guard.h"
#include "harness/CellRun.h"
#include "harness/Experiment.h"
#include "harness/Reports.h"
#include "profile/Emulator.h"
#include "serialize/ProfileIO.h"
#include "sim/CorrectPathTrace.h"
#include "support/RNG.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <set>
#include <string_view>
#include <thread>
#include <tuple>

#include <unistd.h>

#include <gtest/gtest.h>

using namespace dmp;
using namespace dmp::harness;

namespace {

using workloads::InputSetKind;

ExperimentOptions fastOptions() {
  ExperimentOptions Options;
  Options.Profile.MaxInstrs = 600'000;
  Options.Sim.MaxInstrs = 300'000;
  return Options;
}

const workloads::BenchmarkSpec &specFor(const std::string &Name) {
  if (const workloads::BenchmarkSpec *Spec = workloads::findBenchmark(Name))
    return *Spec;
  ADD_FAILURE() << "unknown benchmark " << Name;
  static workloads::BenchmarkSpec Dummy;
  return Dummy;
}

/// \p Map with its annotations inserted in descending address order.
core::DivergeMap reinserted(const core::DivergeMap &Map) {
  std::vector<uint32_t> Addrs = Map.sortedAddrs();
  core::DivergeMap Out;
  for (auto It = Addrs.rbegin(); It != Addrs.rend(); ++It)
    Out.add(*It, *Map.find(*It));
  return Out;
}

/// \p Map with every CFM's merge probability set to \p Prob and its CFM
/// lists reversed: a different byte string the core cannot tell apart.
core::DivergeMap reprobed(const core::DivergeMap &Map, double Prob) {
  core::DivergeMap Out;
  for (const auto &[Addr, Ann] : Map.all()) {
    core::DivergeAnnotation Copy = Ann;
    std::reverse(Copy.Cfms.begin(), Copy.Cfms.end());
    for (core::CfmPoint &Cfm : Copy.Cfms)
      Cfm.MergeProb = Prob;
    Out.add(Addr, std::move(Copy));
  }
  return Out;
}

/// Runs \p Body(I) for I in [0, N) on N threads released together.
template <typename Fn> void onThreads(unsigned N, const Fn &Body) {
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Body(I);
    });
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
}

/// The status a simulateWith call threw, or Ok when it returned.
Status simStatus(const BenchContext &Bench, const core::DivergeMap &Map) {
  try {
    Bench.simulateWith(Map);
    return Status();
  } catch (const StatusError &E) {
    return E.status();
  }
}

} // namespace

TEST(HarnessTest, BaselineIsCached) {
  BenchContext Bench(specFor("li"), fastOptions());
  const sim::SimStats &A = Bench.baseline();
  const sim::SimStats &B = Bench.baseline();
  EXPECT_EQ(&A, &B);
}

TEST(HarnessTest, IpcImprovementArithmetic) {
  sim::SimStats Base, Dmp;
  Base.RetiredInstrs = 1000;
  Base.Cycles = 1000; // IPC 1.0
  Dmp.RetiredInstrs = 1000;
  Dmp.Cycles = 800; // IPC 1.25
  EXPECT_NEAR(ipcImprovement(Base, Dmp), 0.25, 1e-12);
}

TEST(HarnessTest, EverySelectionPresetRunsAsACell) {
  std::set<std::string> Names;
  for (const SelectionPreset &P : selectionPresets()) {
    EXPECT_TRUE(Names.insert(P.Name).second) << "duplicate preset " << P.Name;
    EXPECT_EQ(findSelectionPreset(P.Name), &P);
    CellSpec Spec;
    Spec.Benchmark = "mcf";
    Spec.Algo = P.Name;
    Spec.SimInstrs = 100'000;
    Spec.ProfileInstrs = 400'000;
    const StatusOr<CellResult> R = runCellSpec(Spec, nullptr);
    ASSERT_TRUE(R.ok()) << P.Name << ": " << R.status().toString();
    EXPECT_GT(R->Dmp.RetiredInstrs, 0u) << P.Name;
  }

  CellSpec Unknown;
  Unknown.Benchmark = "mcf";
  Unknown.Algo = "nope";
  EXPECT_EQ(findSelectionPreset("nope"), nullptr);
  EXPECT_EQ(runCellSpec(Unknown, nullptr).status().code(),
            ErrorCode::NotFound);
}

TEST(HarnessTest, CostPresetsAddShortThenReturnCfms) {
  BenchContext Bench(specFor("gcc"), fastOptions());
  core::SelectionFeatures Short = core::SelectionFeatures::costEdge();
  Short.ShortHammocks = true;
  core::SelectionFeatures Ret = Short;
  Ret.ReturnCfm = true;
  const auto Run = workloads::InputSetKind::Run;
  const SelectionPreset *CostShort = findSelectionPreset("cost-short");
  const SelectionPreset *CostRet = findSelectionPreset("cost-ret");
  ASSERT_NE(CostShort, nullptr);
  ASSERT_NE(CostRet, nullptr);
  EXPECT_EQ(CostShort->Select(Bench, Run).sortedAddrs(),
            Bench.select(Short, Run).sortedAddrs());
  EXPECT_EQ(CostRet->Select(Bench, Run).sortedAddrs(),
            Bench.select(Ret, Run).sortedAddrs());
}

TEST(HarnessTest, ReportGeomeanAndRendering) {
  ImprovementReport Report({"a", "b"});
  Report.addBenchmark("x", std::vector<double>{0.10, 0.20});
  Report.addBenchmark("y", std::vector<double>{0.10, -0.10});
  EXPECT_NEAR(Report.geomeanImprovement(0), 0.10, 1e-9);
  EXPECT_NEAR(Report.geomeanImprovement(1), std::sqrt(1.2 * 0.9) - 1.0,
              1e-9);
  const std::string Text = Report.render("title");
  EXPECT_NE(Text.find("geomean"), std::string::npos);
  EXPECT_NE(Text.find("+10.0%"), std::string::npos);
}

// BenchContext computes every stage once through an in-flight memo:
// annotation sets with one machine view share one simulation, concurrent
// requests wait for it, and failed or cancelled computations are
// recomputed, never replayed.

TEST(BenchContextMemo, EqualMapsFromManyThreadsSimulateOnce) {
  BenchContext Bench(specFor("li"), fastOptions());
  const core::DivergeMap Map =
      Bench.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run);
  ASSERT_GT(Map.size(), 1u);
  ASSERT_GT(Map.avgCfmPoints(), 0.0);
  const core::DivergeMap Reordered = reinserted(Map);

  // Even threads pass the map or a reinsertion of it, odd ones a copy with
  // other merge probabilities and CFM order: one machine view.
  constexpr unsigned N = 8;
  std::vector<core::DivergeMap> Maps;
  for (unsigned I = 0; I < N; ++I)
    Maps.push_back(I % 2   ? reprobed(Map, (I + 1) / double(N + 1))
                   : I % 4 ? Reordered
                           : Map);
  ASSERT_NE(serialize::encodeDivergeMap(Maps[1]),
            serialize::encodeDivergeMap(Maps[3]));
  std::vector<std::vector<uint8_t>> Results(N);
  onThreads(N, [&](unsigned I) {
    Results[I] = serialize::encodeSimStats(Bench.simulateWith(Maps[I]));
  });
  EXPECT_EQ(Bench.dmpSims(), 1u);
  EXPECT_EQ(Bench.memoHits(), N - 1);

  BenchContext Fresh(specFor("li"), fastOptions());
  const std::vector<uint8_t> Expected =
      serialize::encodeSimStats(Fresh.simulateWith(Map));
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Results[I], Expected) << "thread " << I;
}

TEST(BenchContextMemo, DistinctMapsDoNotCollide) {
  BenchContext Bench(specFor("gcc"), fastOptions());
  const core::DivergeMap Exact =
      Bench.select(core::SelectionFeatures::exactOnly(), InputSetKind::Run);
  const core::DivergeMap Cost =
      Bench.select(core::SelectionFeatures::allBestCost(), InputSetKind::Run);
  ASSERT_NE(serialize::encodeDivergeMap(Exact),
            serialize::encodeDivergeMap(Cost));

  std::vector<std::vector<uint8_t>> Results(4);
  onThreads(4, [&](unsigned I) {
    Results[I] =
        serialize::encodeSimStats(Bench.simulateWith(I % 2 ? Cost : Exact));
  });
  EXPECT_EQ(Bench.dmpSims(), 2u);
  EXPECT_EQ(Bench.memoHits(), 2u);

  BenchContext Fresh(specFor("gcc"), fastOptions());
  EXPECT_EQ(Results[0], serialize::encodeSimStats(Fresh.simulateWith(Exact)));
  EXPECT_EQ(Results[1], serialize::encodeSimStats(Fresh.simulateWith(Cost)));
}

TEST(BenchContextMemo, BudgetFailureReachesEveryWaiterAndIsRecomputed) {
  ExperimentOptions Options = fastOptions();
  Options.Sim.WatchdogInstrBudget = 2000;
  BenchContext Bench(specFor("mcf"), Options);
  const core::DivergeMap Map =
      Bench.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run);

  constexpr unsigned N = 6;
  std::vector<Status> Statuses(N);
  onThreads(N, [&](unsigned I) { Statuses[I] = simStatus(Bench, Map); });
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Statuses[I].code(), ErrorCode::ResourceExhausted)
        << "thread " << I << ": " << Statuses[I].toString();

  // Not replayed: the next request runs the simulator again.
  const uint64_t Sims = Bench.dmpSims();
  EXPECT_GE(Sims, 1u);
  EXPECT_EQ(simStatus(Bench, Map).code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(Bench.dmpSims(), Sims + 1);
}

TEST(BenchContextMemo, DrainedSimIsNotMemoized) {
  guard::CancelToken Token;
  ExperimentOptions Options = fastOptions();
  Options.Sim.Cancel = &Token;
  BenchContext Bench(specFor("mcf"), Options);
  const core::DivergeMap Map =
      Bench.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run);

  Token.cancel();
  const Status Drained = simStatus(Bench, Map);
  EXPECT_EQ(Drained.code(), ErrorCode::Cancelled);
  EXPECT_EQ(Drained.origin(), "guard");

  Token.reset();
  const sim::SimStats Stats = Bench.simulateWith(Map);
  EXPECT_EQ(Bench.dmpSims(), 2u);
  EXPECT_EQ(Bench.memoHits(), 0u);
  BenchContext Fresh(specFor("mcf"), fastOptions());
  EXPECT_EQ(serialize::encodeSimStats(Stats),
            serialize::encodeSimStats(Fresh.simulateWith(Map)));
}

TEST(BenchContextMemo, ConcurrentStagesMatchSerialOnes) {
  BenchContext Parallel(specFor("twolf"), fastOptions());
  std::vector<uint8_t> Run, Train, Base;
  onThreads(3, [&](unsigned I) {
    if (I == 0)
      Run = serialize::encodeProfileData(
          Parallel.profileData(InputSetKind::Run));
    else if (I == 1)
      Train = serialize::encodeProfileData(
          Parallel.profileData(InputSetKind::Train));
    else
      Base = serialize::encodeSimStats(Parallel.baseline());
  });

  BenchContext Serial(specFor("twolf"), fastOptions());
  EXPECT_EQ(Run, serialize::encodeProfileData(
                     Serial.profileData(InputSetKind::Run)));
  EXPECT_EQ(Train, serialize::encodeProfileData(
                       Serial.profileData(InputSetKind::Train)));
  EXPECT_EQ(Base, serialize::encodeSimStats(Serial.baseline()));
  EXPECT_NE(Run, Train);
  // Later requests read the memo: the same objects, not recomputations.
  EXPECT_EQ(&Parallel.baseline(), &Parallel.baseline());
  EXPECT_EQ(&Parallel.profileData(InputSetKind::Train),
            &Parallel.profileData(InputSetKind::Train));
}

TEST(BenchContextMemo, MemoHitSkipsTheArtifactCache) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-memo-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(Dir);
  ExperimentOptions Options = fastOptions();
  Options.Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
  BenchContext Bench(specFor("li"), Options);
  const core::DivergeMap Map =
      Bench.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run);

  const sim::SimStats First = Bench.simulateWith(Map);
  const uint64_t Loads = Options.Cache->hits() + Options.Cache->misses();
  const uint64_t Stores = Options.Cache->stores();
  const sim::SimStats Second = Bench.simulateWith(Map);
  EXPECT_EQ(Options.Cache->hits() + Options.Cache->misses(), Loads);
  EXPECT_EQ(Options.Cache->stores(), Stores);
  EXPECT_EQ(serialize::encodeSimStats(First),
            serialize::encodeSimStats(Second));
  EXPECT_EQ(Bench.memoHits(), 1u);
  std::filesystem::remove_all(Dir);
}

// The disk key is the machine view too, and simCacheKey is the key
// simulateWith stores under, so paperbench's stage cache, BenchContext and
// serve's runCellSpec share one entry per view.
TEST(BenchContextMemo, MachineEqualMapsShareOneDiskEntry) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-view-key-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(Dir);
  ExperimentOptions Options = fastOptions();
  Options.Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
  const workloads::BenchmarkSpec &Spec = specFor("li");

  BenchContext First(Spec, Options);
  const core::DivergeMap Map =
      First.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run);
  const core::DivergeMap Other = reprobed(Map, 0.5);
  ASSERT_NE(serialize::encodeDivergeMap(Map),
            serialize::encodeDivergeMap(Other));
  const std::vector<uint8_t> Stats =
      serialize::encodeSimStats(First.simulateWith(Map));
  EXPECT_EQ(First.dmpSims(), 1u);

  const serialize::Digest Key =
      simCacheKey(Spec, Options.Sim, &Map, &Options.Selection);
  EXPECT_EQ(simCacheKey(Spec, Options.Sim, &Other, &Options.Selection).hex(),
            Key.hex());
  const StatusOr<std::vector<uint8_t>> Stored = Options.Cache->load(Key);
  ASSERT_TRUE(Stored.ok()) << Stored.status().toString();
  EXPECT_EQ(*Stored, Stats);

  BenchContext Fresh(Spec, Options);
  const uint64_t Hits = Options.Cache->hits();
  EXPECT_EQ(serialize::encodeSimStats(Fresh.simulateWith(Other)), Stats);
  EXPECT_EQ(Fresh.dmpSims(), 0u);
  EXPECT_EQ(Fresh.traces(), 0u);
  EXPECT_EQ(Options.Cache->hits(), Hits + 1);
  std::filesystem::remove_all(Dir);
}

// An empty map is the baseline machine: simulateWith answers it from the
// baseline stage and simCacheKey names the baseline's entry, so a selector
// that picks nothing costs no DMP simulation and no blob of its own.
TEST(BenchContextMemo, EmptyViewIsTheBaseline) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-empty-view-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(Dir);
  ExperimentOptions Options = fastOptions();
  Options.Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
  const workloads::BenchmarkSpec &Spec = specFor("mcf");
  const core::DivergeMap Empty;
  EXPECT_EQ(simCacheKey(Spec, Options.Sim, &Empty, &Options.Selection).hex(),
            simCacheKey(Spec, Options.Sim, nullptr).hex());

  BenchContext First(Spec, Options);
  const std::vector<uint8_t> Stats =
      serialize::encodeSimStats(First.simulateWith(Empty));
  EXPECT_EQ(First.dmpSims(), 0u);
  EXPECT_EQ(First.memoHits(), 0u);
  EXPECT_EQ(Options.Cache->stores(), 2u); // the trace and the baseline
  EXPECT_EQ(serialize::encodeSimStats(First.baseline()), Stats);
  First.simulateWith(Empty);
  EXPECT_EQ(First.memoHits(), 1u);

  BenchContext Uncached(Spec, fastOptions());
  EXPECT_EQ(serialize::encodeSimStats(sim::simulateDmp(
                *Uncached.workload().Prog, Empty, Uncached.trace(),
                Uncached.options().Sim)),
            Stats);
  std::filesystem::remove_all(Dir);
}

// A simulator sweep runs on one context: each stage is keyed by the
// SimConfig fields it reads, so a dpred-mode budget shares the trace and
// the baseline, and a confidence threshold, which only the replay reads,
// shares the trace but not the baseline.
TEST(BenchContextMemo, SimVariantsShareWhatTheyDoNotRead) {
  const workloads::BenchmarkSpec &Spec = specFor("gcc");
  BenchContext Bench(Spec, fastOptions());
  const core::DivergeMap Map =
      Bench.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run);
  ExperimentOptions BudgetOptions = fastOptions();
  BudgetOptions.Sim.MaxDpredInstrs = 50;
  ExperimentOptions ConfOptions = fastOptions();
  ConfOptions.Sim.ConfThreshold = 4;

  // Even threads run the default machine, odd ones the smaller budget.
  constexpr unsigned N = 6;
  std::vector<std::vector<uint8_t>> Base(N), Dmp(N);
  onThreads(N, [&](unsigned I) {
    const sim::SimConfig &Config =
        I % 2 ? BudgetOptions.Sim : Bench.options().Sim;
    Base[I] = serialize::encodeSimStats(Bench.baseline(Config));
    Dmp[I] = serialize::encodeSimStats(Bench.simulateWith(Map, Config));
  });
  EXPECT_EQ(Bench.traces(), 1u);
  EXPECT_EQ(Bench.dmpSims(), 2u);
  EXPECT_EQ(&Bench.baseline(BudgetOptions.Sim), &Bench.baseline());
  EXPECT_NE(Dmp[0], Dmp[1]);
  BenchContext FreshBudget(Spec, BudgetOptions);
  for (unsigned I = 0; I < N; ++I) {
    EXPECT_EQ(Base[I], Base[0]) << "thread " << I;
    EXPECT_EQ(Dmp[I], Dmp[I % 2]) << "thread " << I;
  }
  EXPECT_EQ(Dmp[1],
            serialize::encodeSimStats(FreshBudget.simulateWith(Map)));

  // Odd threads ask for the baseline, even ones a DMP simulation.
  std::vector<std::vector<uint8_t>> Conf(N);
  onThreads(N, [&](unsigned I) {
    Conf[I] = serialize::encodeSimStats(
        I % 2 ? Bench.baseline(ConfOptions.Sim)
              : Bench.simulateWith(Map, ConfOptions.Sim));
  });
  EXPECT_EQ(Bench.traces(), 1u);
  EXPECT_EQ(&Bench.trace(ConfOptions.Sim), &Bench.trace());
  EXPECT_EQ(Bench.dmpSims(), 3u);
  EXPECT_NE(Conf[1], Base[0]);
  BenchContext FreshConf(Spec, ConfOptions);
  const std::vector<uint8_t> Fresh[2] = {
      serialize::encodeSimStats(FreshConf.simulateWith(Map)),
      serialize::encodeSimStats(FreshConf.baseline())};
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Conf[I], Fresh[I % 2]) << "thread " << I;
}

// Every stage's memo and disk key covers every SimConfig field the stage
// reads: one mutator per field, and wherever a mutation changes the trace,
// the baseline or an All-best-cost DMP simulation, the matching key
// changes too and the memo answers with the mutated result.  The
// confidence threshold is read by the replay only: it changes the
// baseline but neither the trace nor its key.
TEST(StageKeys, ChangeWithEveryFieldTheStageReads) {
  using Mutator =
      std::pair<const char *, std::function<void(sim::SimConfig &)>>;
  const std::vector<Mutator> Mutators = {
      {"FetchWidth", [](sim::SimConfig &C) { C.FetchWidth = 4; }},
      {"MaxNotTakenBranchesPerFetch",
       [](sim::SimConfig &C) { C.MaxNotTakenBranchesPerFetch = 1; }},
      {"FrontEndDepth", [](sim::SimConfig &C) { C.FrontEndDepth = 10; }},
      {"IssueWidth", [](sim::SimConfig &C) { C.IssueWidth = 2; }},
      {"RetireWidth", [](sim::SimConfig &C) { C.RetireWidth = 2; }},
      {"RobSize", [](sim::SimConfig &C) { C.RobSize = 32; }},
      {"Predictor",
       [](sim::SimConfig &C) { C.Predictor = uarch::PredictorKind::GShare; }},
      {"BtbEntries", [](sim::SimConfig &C) { C.BtbEntries = 16; }},
      {"RasEntries", [](sim::SimConfig &C) { C.RasEntries = 1; }},
      {"ConfIndexBits", [](sim::SimConfig &C) { C.ConfIndexBits = 4; }},
      {"ConfHistoryBits", [](sim::SimConfig &C) { C.ConfHistoryBits = 0; }},
      {"ConfThreshold", [](sim::SimConfig &C) { C.ConfThreshold = 4; }},
      {"IL1Size", [](sim::SimConfig &C) { C.Memory.IL1Size = 1024; }},
      {"IL1Assoc", [](sim::SimConfig &C) { C.Memory.IL1Assoc = 1; }},
      {"IL1Latency", [](sim::SimConfig &C) { C.Memory.IL1Latency = 5; }},
      {"DL1Size", [](sim::SimConfig &C) { C.Memory.DL1Size = 1024; }},
      {"DL1Assoc", [](sim::SimConfig &C) { C.Memory.DL1Assoc = 1; }},
      {"DL1Latency", [](sim::SimConfig &C) { C.Memory.DL1Latency = 5; }},
      {"L2Size", [](sim::SimConfig &C) { C.Memory.L2Size = 4096; }},
      {"L2Assoc", [](sim::SimConfig &C) { C.Memory.L2Assoc = 1; }},
      {"L2Latency", [](sim::SimConfig &C) { C.Memory.L2Latency = 30; }},
      {"LineBytes", [](sim::SimConfig &C) { C.Memory.LineBytes = 16; }},
      {"MemoryLatency", [](sim::SimConfig &C) { C.Memory.MemoryLatency = 50; }},
      {"MaxDpredInstrs", [](sim::SimConfig &C) { C.MaxDpredInstrs = 20; }},
      {"MaxLoopDpredIters", [](sim::SimConfig &C) { C.MaxLoopDpredIters = 1; }},
      {"MaxInstrs", [](sim::SimConfig &C) { C.MaxInstrs /= 2; }},
      {"WatchdogInstrBudget",
       [](sim::SimConfig &C) { C.WatchdogInstrBudget = 10 * C.MaxInstrs; }},
      {"InjectFault", [](sim::SimConfig &C) { C.InjectFault = 1; }},
  };
  ExperimentOptions Options = fastOptions();
  Options.Sim.MaxInstrs = 100'000;
  // How many mutations changed each stage's result, over both workloads.
  unsigned Changed[3] = {0, 0, 0};
  for (const char *Name : {"li", "gcc"}) {
    const workloads::BenchmarkSpec &Spec = specFor(Name);
    BenchContext Bench(Spec, Options);
    const core::DivergeMap Map =
        Bench.select(core::SelectionFeatures::allBestCost(), InputSetKind::Run);
    ASSERT_FALSE(Map.empty()) << Name;
    const ir::Program &P = *Bench.workload().Prog;
    const std::vector<int64_t> Image =
        Bench.workload().buildImage(InputSetKind::Run);
    const sim::SimConfig &Base = Options.Sim;
    const sim::CorrectPathTrace BaseTrace =
        sim::recordCorrectPath(P, Image, Base);
    const std::vector<uint8_t> BaseBytes[3] = {
        serialize::encodeCorrectPathTrace(BaseTrace),
        serialize::encodeSimStats(
            sim::simulateDmp(P, core::DivergeMap(), BaseTrace, Base)),
        serialize::encodeSimStats(sim::simulateDmp(P, Map, BaseTrace, Base))};
    const std::string BaseKeys[3] = {
        traceCacheKey(Spec, Base).hex(),
        simCacheKey(Spec, Base, nullptr).hex(),
        simCacheKey(Spec, Base, &Map).hex()};
    // The default machine's stages sit in the memo first, so a memo key
    // that misses a field answers a mutation with the default's result.
    ASSERT_EQ(serialize::encodeCorrectPathTrace(Bench.trace()), BaseBytes[0]);
    ASSERT_EQ(serialize::encodeSimStats(Bench.baseline()), BaseBytes[1]);
    ASSERT_EQ(serialize::encodeSimStats(Bench.simulateWith(Map)),
              BaseBytes[2]);
    for (const auto &[Field, Mutate] : Mutators) {
      sim::SimConfig Config = Base;
      Mutate(Config);
      const sim::CorrectPathTrace Trace =
          sim::recordCorrectPath(P, Image, Config);
      const std::vector<uint8_t> Bytes[3] = {
          serialize::encodeCorrectPathTrace(Trace),
          serialize::encodeSimStats(
              sim::simulateDmp(P, core::DivergeMap(), Trace, Config)),
          serialize::encodeSimStats(sim::simulateDmp(P, Map, Trace, Config))};
      const std::string Keys[3] = {traceCacheKey(Spec, Config).hex(),
                                   simCacheKey(Spec, Config, nullptr).hex(),
                                   simCacheKey(Spec, Config, &Map).hex()};
      const std::vector<uint8_t> Memo[3] = {
          serialize::encodeCorrectPathTrace(Bench.trace(Config)),
          serialize::encodeSimStats(Bench.baseline(Config)),
          serialize::encodeSimStats(Bench.simulateWith(Map, Config))};
      if (std::string_view(Field) == "ConfThreshold") {
        EXPECT_EQ(Bytes[0], BaseBytes[0]) << Name;
        EXPECT_EQ(Keys[0], BaseKeys[0]) << Name;
        EXPECT_NE(Bytes[1], BaseBytes[1]) << Name;
      }
      const char *Stages[3] = {"trace", "baseline", "dmp"};
      for (unsigned S = 0; S < 3; ++S) {
        EXPECT_EQ(Memo[S], Bytes[S])
            << Name << " " << Field << " " << Stages[S];
        if (Bytes[S] == BaseBytes[S])
          continue;
        ++Changed[S];
        EXPECT_NE(Keys[S], BaseKeys[S]) << Name << " " << Field << " "
                                        << Stages[S];
      }
    }
  }
  // The mutators reach every stage: the check above is not vacuous.
  for (unsigned S = 0; S < 3; ++S)
    EXPECT_GT(Changed[S], 10u) << "stage " << S;
}

// Served cells share results only through the disk cache, and the DMP-sim
// key is the machine view, not the selection thresholds: a second cell
// whose thresholds select a machine-equal map stores nothing new, and both
// cells' digests equal an uncached run.
TEST(CellRunCache, ThresholdsShareMachineEqualSims) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-cell-cache-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(Dir);
  const auto Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
  const auto CellAt = [](const char *Algo, double MinMergeProb) {
    CellSpec Spec;
    Spec.Benchmark = "mcf";
    Spec.Algo = Algo;
    Spec.MinMergeProb = MinMergeProb;
    Spec.SimInstrs = 100'000;
    Spec.ProfileInstrs = 400'000;
    return Spec;
  };
  const auto Digest = [](const CellSpec &Spec,
                         std::shared_ptr<serialize::ArtifactCache> C) {
    const StatusOr<CellResult> R = runCellSpec(Spec, std::move(C));
    EXPECT_TRUE(R.ok()) << R.status().toString();
    return R.ok() ? cellResultDigest(*R).hex() : std::string();
  };
  // every-br ignores the thresholds; all's maps for mcf have one view at
  // these two merge probabilities.
  for (const auto &[Algo, First, Second] :
       {std::tuple("every-br", 0.05, 0.90), std::tuple("all", 0.01, 0.30)}) {
    const CellSpec A = CellAt(Algo, First), B = CellAt(Algo, Second);
    const std::string DigestA = Digest(A, Cache);
    const uint64_t Stores = Cache->stores();
    const std::string DigestB = Digest(B, Cache);
    EXPECT_EQ(Cache->stores(), Stores) << Algo;
    EXPECT_EQ(DigestA, Digest(A, nullptr)) << Algo;
    EXPECT_EQ(DigestB, Digest(B, nullptr)) << Algo;
  }
  std::filesystem::remove_all(Dir);
}

TEST(IntegrationTest, HeadlineClaimHolds) {
  // The paper's core claim, scaled down: on branch-misprediction-heavy
  // benchmarks, All-best-heur DMP clearly beats the baseline while the
  // naive exact-only selection gains less.
  BenchContext Bench(specFor("vpr"), fastOptions());
  const sim::SimStats &Base = Bench.baseline();
  const sim::SimStats Exact = Bench.simulateWith(
      Bench.select(core::SelectionFeatures::exactOnly(), InputSetKind::Run));
  const sim::SimStats All = Bench.simulateWith(
      Bench.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run));
  EXPECT_GT(ipcImprovement(Base, All), 0.10);
  EXPECT_GT(ipcImprovement(Base, All), ipcImprovement(Base, Exact));
}

TEST(IntegrationTest, CostModelMatchesHeuristics) {
  // Section 7.1: the threshold-free cost model performs about as well as
  // the tuned heuristics.
  BenchContext Bench(specFor("twolf"), fastOptions());
  const sim::SimStats &Base = Bench.baseline();
  const double Heur = ipcImprovement(
      Base, Bench.simulateWith(Bench.select(
                core::SelectionFeatures::allBestHeur(), InputSetKind::Run)));
  const double Cost = ipcImprovement(
      Base, Bench.simulateWith(Bench.select(
                core::SelectionFeatures::allBestCost(), InputSetKind::Run)));
  EXPECT_NEAR(Heur, Cost, 0.10);
}

TEST(IntegrationTest, InputSetInsensitivity) {
  // Section 7.3: profiling with the train input costs little.
  BenchContext Bench(specFor("bzip2"), fastOptions());
  const sim::SimStats &Base = Bench.baseline();
  const double Same = ipcImprovement(
      Base, Bench.simulateWith(Bench.select(
                core::SelectionFeatures::allBestHeur(), InputSetKind::Run)));
  const double Diff = ipcImprovement(
      Base, Bench.simulateWith(Bench.select(
                core::SelectionFeatures::allBestHeur(), InputSetKind::Train)));
  EXPECT_GT(Diff, Same - 0.08);
}

//===----------------------------------------------------------------------===//
// Parameterized property sweeps over the suite
//===----------------------------------------------------------------------===//

class SuiteProperty : public ::testing::TestWithParam<const char *> {};

TEST_P(SuiteProperty, DmpNeverCollapsesAndReducesFlushes) {
  BenchContext Bench(specFor(GetParam()), fastOptions());
  const sim::SimStats &Base = Bench.baseline();
  const sim::SimStats Dmp = Bench.simulateWith(
      Bench.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run));
  // DMP must reduce pipeline flushes and must not catastrophically lose
  // performance on any benchmark (the paper's Figure 5/6 shapes).
  EXPECT_LE(Dmp.Flushes, Base.Flushes) << GetParam();
  EXPECT_GT(Dmp.ipc(), Base.ipc() * 0.95) << GetParam();
  EXPECT_EQ(Dmp.RetiredInstrs, Base.RetiredInstrs) << GetParam();
}

TEST_P(SuiteProperty, SelectionIsSubsetOfExecutedBranches) {
  BenchContext Bench(specFor(GetParam()), fastOptions());
  const core::DivergeMap Map = Bench.select(
      core::SelectionFeatures::allBestHeur(), workloads::InputSetKind::Run);
  const auto &Prof = Bench.profileData(workloads::InputSetKind::Run);
  for (uint32_t Addr : Map.sortedAddrs()) {
    EXPECT_TRUE(Bench.workload().Prog->instrAt(Addr).isCondBr());
    EXPECT_TRUE(Prof.Edges.wasExecuted(Addr));
    // Every annotation must be internally consistent.
    const core::DivergeAnnotation &Ann = *Map.find(Addr);
    if (Ann.Kind == core::DivergeKind::Loop) {
      EXPECT_FALSE(Ann.Cfms.empty());
      EXPECT_GT(Ann.LoopSelectUops, 0u);
    }
    for (const core::CfmPoint &Cfm : Ann.Cfms) {
      if (Cfm.PointKind == core::CfmPoint::Kind::Address) {
        EXPECT_LT(Cfm.Addr, Bench.workload().Prog->instrCount());
      }
    }
  }
}

TEST_P(SuiteProperty, CostModeSelectsFewerOrEqualCandidates) {
  BenchContext Bench(specFor(GetParam()), fastOptions());
  core::SelectionStats HeurStats, CostStats;
  const core::DivergeMap Heur =
      Bench.select(core::SelectionFeatures::exactFreq(),
                   workloads::InputSetKind::Run, &HeurStats);
  const core::DivergeMap Cost =
      Bench.select(core::SelectionFeatures::costEdge(),
                   workloads::InputSetKind::Run, &CostStats);
  EXPECT_EQ(HeurStats.CandidatesConsidered, CostStats.CandidatesConsidered);
  // Both are valid subsets; the cost model must actually reject something
  // across the suite (checked via the stats, not per benchmark).
  EXPECT_GE(Heur.size() + Cost.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteProperty,
                         ::testing::Values("gzip", "vpr", "gcc", "mcf",
                                           "crafty", "parser", "eon",
                                           "perlbmk", "gap", "vortex",
                                           "bzip2", "twolf", "compress",
                                           "go", "ijpeg", "li", "m88ksim"));

//===----------------------------------------------------------------------===//
// Parameterized dominance properties over random programs
//===----------------------------------------------------------------------===//

class RandomProgramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomProgramProperty, DominanceInvariants) {
  // Build a randomized benchmark-like program and check structural
  // dominance invariants on every function.
  workloads::BenchmarkSpec Spec;
  Spec.Name = "prop";
  Spec.OuterIters = 8;
  RNG Rng(GetParam());
  Spec.SimpleHard = 1 + Rng.nextBelow(2);
  Spec.Nested = Rng.nextBelow(3);
  Spec.Freq = Rng.nextBelow(3);
  Spec.DataLoops = Rng.nextBelow(2);
  Spec.RetFuncs = Rng.nextBelow(2);
  Spec.DualMerge = Rng.nextBelow(2);
  Spec.Seed = GetParam();
  const workloads::Workload W = workloads::buildBenchmark(Spec);

  for (const auto &F : W.Prog->functions()) {
    cfg::CFGView View(*F);
    cfg::DominatorTree DT(View);
    cfg::PostDominatorTree PDT(View);
    for (const auto &Block : F->blocks()) {
      if (!View.isReachable(Block.get()))
        continue;
      // Entry dominates everything; every block dominates itself.
      EXPECT_TRUE(DT.dominates(F->getEntry(), Block.get()));
      EXPECT_TRUE(DT.dominates(Block.get(), Block.get()));
      // The idom strictly dominates and differs from the block.
      if (const ir::BasicBlock *Idom = DT.idom(Block.get())) {
        EXPECT_NE(Idom, Block.get());
        EXPECT_TRUE(DT.dominates(Idom, Block.get()));
      }
      // IPOSDOM (when present) post-dominates every successor.
      if (const ir::BasicBlock *Ipd = PDT.ipostdom(Block.get())) {
        for (const ir::BasicBlock *Succ :
             View.successors(Block->getId()))
          EXPECT_TRUE(PDT.postDominates(Ipd, Succ));
      }
    }
  }
}

TEST_P(RandomProgramProperty, EmulatorTerminatesAndSimAgrees) {
  workloads::BenchmarkSpec Spec;
  Spec.Name = "prop";
  Spec.OuterIters = 32;
  RNG Rng(GetParam() * 31 + 7);
  Spec.SimpleHard = Rng.nextBelow(2);
  Spec.SimpleEasy = 1;
  Spec.Freq = Rng.nextBelow(2);
  Spec.DataLoops = Rng.nextBelow(2);
  Spec.Short = Rng.nextBelow(2);
  Spec.Seed = GetParam() + 1000;
  const workloads::Workload W = workloads::buildBenchmark(Spec);
  const auto Image = W.buildImage(workloads::InputSetKind::Run);

  profile::Emulator Emu(*W.Prog, Image);
  profile::DynInstr D;
  uint64_t Steps = 0;
  while (Emu.step(D)) {
    ASSERT_LT(++Steps, 10'000'000u) << "runaway program";
  }
  EXPECT_TRUE(Emu.isHalted());

  const sim::SimStats Stats =
      sim::simulateDmp(*W.Prog, core::DivergeMap(), Image);
  EXPECT_EQ(Stats.RetiredInstrs, Steps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range<uint64_t>(1, 13));
