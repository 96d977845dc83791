//===- tests/test_replay.cpp - Correct-path record/replay tests ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// A simulation is recordCorrectPath (the emulator and the map-independent
// front end) followed by a DmpCore replay of the trace (the timing model
// and the dpred episodes).  These tests pin that split:
//
//   * differential goldens: SHA-256 digests of encodeSimStats, written by
//     the emulator-driven simulator the replay replaced, for the 17
//     workloads x {baseline, the 12 paper-cold columns} and 200 ProgramGen
//     recipes x {baseline, adversarial, all-best-cost, all-best-heur};
//     and, written by the simulator before the inline replay step, the 17
//     workloads x {baseline, all-best-cost} on seven non-default machines
//     (one fetch, issue or retire port, a 16-wide fetch with one not-taken
//     branch per cycle, a 32-entry ROB, a 1KB IL1, a 50-instruction dpred
//     window); and, written by the simulator before the straight-line
//     replay runs, the 17 workloads x {baseline, all-best-cost} with the
//     trace cut at 1, 2, 3, 17, 1000 and 123457 instructions, plus a check
//     that Progress beats leave the statistics unchanged;
//   * the timing oracle: the default machine enters dpred-mode at annotated
//     branches and is the baseline without any, and the baseline is
//     invariant under the dpred-only SimConfig fields (but not under the
//     confidence threshold);
//   * the machine view: a map and sim::machineView of it replay to
//     byte-identical statistics (17 workloads x the 12 paper-cold columns,
//     and scrambled adversarial maps on 50 recipes), a view that lost what
//     the core reads would not, and so gzip's 12 columns take 3 sims;
//   * Fast vs Reference recording, the guards, the InjectFault canaries;
//   * the trace blob and the BenchContext trace memo.
//
//===----------------------------------------------------------------------===//

#include "cfg/Analysis.h"
#include "check/Oracle.h"
#include "check/ProgramGen.h"
#include "core/DivergeSelector.h"
#include "guard/Guard.h"
#include "harness/Experiment.h"
#include "profile/Profiler.h"
#include "serialize/Hash.h"
#include "serialize/ProfileIO.h"
#include "sim/CorrectPathTrace.h"
#include "sim/DmpCore.h"
#include "sim/Simulator.h"
#include "support/RNG.h"
#include "workloads/SpecSuite.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include <unistd.h>

using namespace dmp;
using workloads::InputSetKind;

namespace {

/// No diverge branch: the DMP core runs as the baseline machine.
const core::DivergeMap NoDiverge;

std::string digestOf(const sim::SimStats &S) {
  const std::vector<uint8_t> B = serialize::encodeSimStats(S);
  return serialize::Hasher::hash(B.data(), B.size()).hex();
}

/// The non-comment lines of golden file \p Name.
std::vector<std::string> goldenLines(const std::string &Name) {
  std::ifstream In(std::string(DMP_TEST_GOLDEN_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "missing golden file " << Name;
  std::vector<std::string> Lines;
  for (std::string L; std::getline(In, L);)
    if (!L.empty() && L[0] != '#')
      Lines.push_back(L);
  return Lines;
}

/// One selection column of the paper-cold matrix: Fig. 5's ten columns,
/// then Fig. 9's two train-profiled ones.
struct Column {
  const char *Name;
  core::SelectionFeatures Features;
  InputSetKind Input;
};

std::vector<Column> paperColumns() {
  using F = core::SelectionFeatures;
  F CostEdgeShort = F::costEdge();
  CostEdgeShort.ShortHammocks = true;
  F CostEdgeShortRet = CostEdgeShort;
  CostEdgeShortRet.ReturnCfm = true;
  const InputSetKind Run = InputSetKind::Run;
  return {{"exact", F::exactOnly(), Run},
          {"+freq", F::exactFreq(), Run},
          {"+short", F::exactFreqShort(), Run},
          {"+ret", F::exactFreqShortRet(), Run},
          {"+loop", F::allBestHeur(), Run},
          {"cost-long", F::costLong(), Run},
          {"cost-edge", F::costEdge(), Run},
          {"cost+short", CostEdgeShort, Run},
          {"cost+ret", CostEdgeShortRet, Run},
          {"cost+loop", F::allBestCost(), Run},
          {"heur-diff", F::allBestHeur(), InputSetKind::Train},
          {"cost-diff", F::allBestCost(), InputSetKind::Train}};
}

/// A ProgramGen recipe with its analysis and the 300k-instruction budget
/// the recipe goldens use.
struct Recipe {
  check::GenProgram G;
  std::unique_ptr<cfg::ProgramAnalysis> PA;
  sim::SimConfig Cfg;

  explicit Recipe(uint64_t Seed)
      : G(check::materialize(check::randomRecipe(Seed))),
        PA(std::make_unique<cfg::ProgramAnalysis>(*G.Prog)) {
    Cfg.MaxInstrs = 300'000;
  }

  core::DivergeMap select(const profile::ProfileData &Prof,
                          const core::SelectionFeatures &F) const {
    return core::selectDivergeBranches(*PA, Prof, core::SelectionConfig(), F);
  }
};

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

const workloads::BenchmarkSpec &specFor(const char *Name) {
  const workloads::BenchmarkSpec *Spec = workloads::findBenchmark(Name);
  EXPECT_NE(Spec, nullptr) << Name;
  return *Spec;
}

harness::ExperimentOptions fastOptions() {
  harness::ExperimentOptions Options;
  Options.Profile.MaxInstrs = 600'000;
  Options.Sim.MaxInstrs = 300'000;
  return Options;
}

/// The status a call threw, or Ok when it returned.
template <typename Fn> Status statusOf(const Fn &Call) {
  try {
    Call();
    return Status();
  } catch (const StatusError &E) {
    return E.status();
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential goldens
//===----------------------------------------------------------------------===//

TEST(ReplayGolden, PaperColumnsMatchEmulatorDrivenDigests) {
  std::vector<std::string> Actual;
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    harness::BenchContext Ctx(Spec, harness::ExperimentOptions());
    Actual.push_back(std::string(Spec.Name) + " baseline " +
                     digestOf(Ctx.baseline()));
    for (const Column &C : paperColumns())
      Actual.push_back(
          std::string(Spec.Name) + " " + C.Name + " " +
          digestOf(Ctx.simulateWith(Ctx.select(C.Features, C.Input))));
    EXPECT_EQ(Ctx.traces(), 1u) << Spec.Name;
  }
  const std::vector<std::string> Golden = goldenLines("replay_paper.sha256");
  ASSERT_EQ(Actual.size(), Golden.size());
  for (size_t I = 0; I < Golden.size(); ++I)
    EXPECT_EQ(Actual[I], Golden[I]);
}

TEST(ReplayGolden, RecipesMatchEmulatorDrivenDigests) {
  const std::vector<std::string> Golden =
      goldenLines("replay_recipes.sha256");
  ASSERT_EQ(Golden.size(), 200u);
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    const Recipe R(Seed);
    const ir::Program &P = *R.G.Prog;
    profile::ProfileOptions PO;
    PO.MaxInstrs = R.Cfg.MaxInstrs;
    const profile::ProfileData Prof =
        profile::collectProfile(P, *R.PA, R.G.Image, PO);
    // One recording serves all four machines.
    const sim::CorrectPathTrace Trace =
        sim::recordCorrectPath(P, R.G.Image, R.Cfg);
    const auto Dmp = [&](const core::DivergeMap &Map) {
      return digestOf(sim::simulateDmp(P, Map, Trace, R.Cfg));
    };
    const std::string Line =
        std::to_string(Seed) + " " +
        digestOf(sim::simulateDmp(P, NoDiverge, Trace, R.Cfg)) + " " +
        Dmp(check::adversarialAnnotations(*R.PA)) + " " +
        Dmp(R.select(Prof, core::SelectionFeatures::allBestCost())) + " " +
        Dmp(R.select(Prof, core::SelectionFeatures::allBestHeur()));
    EXPECT_EQ(Line, Golden[Seed]) << check::describeRecipe(
        check::randomRecipe(Seed));
  }
}

namespace {

/// The non-default machines of replay_machines.sha256: each narrows one
/// resource of the timing model so that a step mishandling it shows up.
std::vector<std::pair<const char *, sim::SimConfig>> goldenMachines() {
  sim::SimConfig Base = harness::ExperimentOptions().Sim;
  Base.MaxInstrs = 400'000;
  std::vector<std::pair<const char *, sim::SimConfig>> Machines;
  const auto Add = [&](const char *Name, auto Edit) {
    sim::SimConfig Cfg = Base;
    Edit(Cfg);
    Machines.emplace_back(Name, Cfg);
  };
  Add("fetch1", [](sim::SimConfig &C) { C.FetchWidth = 1; });
  Add("fetch16-nt1", [](sim::SimConfig &C) {
    C.FetchWidth = 16;
    C.MaxNotTakenBranchesPerFetch = 1;
  });
  Add("issue1", [](sim::SimConfig &C) { C.IssueWidth = 1; });
  Add("retire1", [](sim::SimConfig &C) { C.RetireWidth = 1; });
  Add("rob32", [](sim::SimConfig &C) { C.RobSize = 32; });
  // 16 lines: I-cache misses to L2 and memory are dense in every workload.
  Add("il1-1k", [](sim::SimConfig &C) { C.Memory.IL1Size = 1024; });
  Add("dpred50", [](sim::SimConfig &C) { C.MaxDpredInstrs = 50; });
  return Machines;
}

} // namespace

// Every workload on each non-default machine, baseline and with its
// all-best-cost map (selected under ExperimentOptions defaults).
TEST(ReplayGolden, NonDefaultMachinesMatchDigests) {
  std::vector<std::string> Actual;
  const auto Machines = goldenMachines();
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    harness::BenchContext Ctx(Spec, harness::ExperimentOptions());
    const core::DivergeMap Map =
        Ctx.select(core::SelectionFeatures::allBestCost(), InputSetKind::Run);
    const ir::Program &P = *Ctx.workload().Prog;
    const std::vector<int64_t> Image =
        Ctx.workload().buildImage(InputSetKind::Run);
    for (const auto &[Name, Cfg] : Machines) {
      const sim::CorrectPathTrace Trace =
          sim::recordCorrectPath(P, Image, Cfg);
      Actual.push_back(
          std::string(Spec.Name) + " " + Name + " " +
          digestOf(sim::simulateDmp(P, NoDiverge, Trace, Cfg)) + " " +
          digestOf(sim::simulateDmp(P, Map, Trace, Cfg)));
    }
  }
  const std::vector<std::string> Golden =
      goldenLines("replay_machines.sha256");
  ASSERT_EQ(Actual.size(), Golden.size());
  for (size_t I = 0; I < Golden.size(); ++I)
    EXPECT_EQ(Actual[I], Golden[I]);
}

// Every workload with its trace cut at budgets that stop the replay inside
// a straight-line run, at a trace event and inside a dpred episode:
// baseline and all-best-cost (selected under ExperimentOptions defaults).
// Regenerate (only after an intentional timing change) by emptying
// tests/golden/replay_cuts.sha256: the test then reports every line it
// computed as "missing golden line: <line>".
TEST(ReplayGolden, CutBudgets) {
  std::vector<std::string> Actual;
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    harness::BenchContext Ctx(Spec, harness::ExperimentOptions());
    const core::DivergeMap Map =
        Ctx.select(core::SelectionFeatures::allBestCost(), InputSetKind::Run);
    const ir::Program &P = *Ctx.workload().Prog;
    const std::vector<int64_t> Image =
        Ctx.workload().buildImage(InputSetKind::Run);
    for (const uint64_t Budget :
         {1ull, 2ull, 3ull, 17ull, 1000ull, 123457ull}) {
      sim::SimConfig Cfg = harness::ExperimentOptions().Sim;
      Cfg.MaxInstrs = Budget;
      const sim::CorrectPathTrace Trace =
          sim::recordCorrectPath(P, Image, Cfg);
      Actual.push_back(
          std::string(Spec.Name) + " " + std::to_string(Budget) + " " +
          digestOf(sim::simulateDmp(P, NoDiverge, Trace, Cfg)) + " " +
          digestOf(sim::simulateDmp(P, Map, Trace, Cfg)));
    }
  }
  const std::vector<std::string> Golden = goldenLines("replay_cuts.sha256");
  for (size_t I = 0; I < Actual.size(); ++I) {
    if (I < Golden.size())
      EXPECT_EQ(Actual[I], Golden[I]);
    else
      ADD_FAILURE() << "missing golden line: " << Actual[I];
  }
  EXPECT_EQ(Actual.size(), Golden.size());
}

// A Progress hook beats every kCancelPollInstrs retired instructions, in
// the middle of straight-line runs too, and never changes the statistics:
// every workload, baseline and all-best-cost, at the campaign budget.
TEST(ReplayGolden, ProgressBeatsLeaveStatsUnchanged) {
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    harness::BenchContext Ctx(Spec, harness::ExperimentOptions());
    const core::DivergeMap Map =
        Ctx.select(core::SelectionFeatures::allBestCost(), InputSetKind::Run);
    const ir::Program &P = *Ctx.workload().Prog;
    const sim::CorrectPathTrace &Trace = Ctx.trace();
    const sim::SimConfig &Plain = Ctx.options().Sim;
    for (const core::DivergeMap *M : {&NoDiverge, &Map}) {
      SCOPED_TRACE(std::string(Spec.Name) +
                   (M == &NoDiverge ? " baseline" : " all-best-cost"));
      sim::SimConfig Cfg = Plain;
      uint64_t Beats = 0;
      Cfg.Progress = [&] { ++Beats; };
      EXPECT_EQ(digestOf(sim::simulateDmp(P, *M, Trace, Cfg)),
                digestOf(sim::simulateDmp(P, *M, Trace, Plain)));
      EXPECT_EQ(Beats, Trace.Instrs / sim::kCancelPollInstrs);
    }
  }
}

//===----------------------------------------------------------------------===//
// Timing oracle
//===----------------------------------------------------------------------===//

// The default SimConfig is the DMP machine: a core given annotations enters
// dpred-mode with no further switch, and the same core given none is the
// baseline.
TEST(TimingOracle, DefaultConfigEntersDpredAtAnnotatedBranches) {
  for (uint64_t Seed = 0; Seed < 5; ++Seed) {
    const Recipe R(Seed);
    const ir::Program &P = *R.G.Prog;
    const core::DivergeMap Map = check::adversarialAnnotations(*R.PA);
    ASSERT_FALSE(Map.empty()) << "recipe " << Seed;
    const sim::CorrectPathTrace Trace =
        sim::recordCorrectPath(P, R.G.Image, sim::SimConfig());
    EXPECT_GT(sim::DmpCore(P, Map, sim::SimConfig()).run(Trace).DpredEntries,
              0u)
        << "recipe " << Seed;
    EXPECT_EQ(
        sim::DmpCore(P, NoDiverge, sim::SimConfig()).run(Trace).DpredEntries,
        0u)
        << "recipe " << Seed;
  }
}

// The baseline machine never enters dpred-mode, so the dpred-only fields of
// SimConfig must not reach its stats: a baseline result may be shared
// across them.  The JRS confidence threshold is not one of them (the
// baseline counts low-confidence branches), so a shared key must keep it.
TEST(TimingOracle, BaselineIgnoresDpredOnlyFields) {
  const sim::SimConfig Base = harness::ExperimentOptions().Sim;
  std::vector<std::pair<const char *, sim::SimConfig>> DpredOnly;
  const auto Add = [&](const char *Name, auto Edit) {
    sim::SimConfig Cfg = Base;
    Edit(Cfg);
    DpredOnly.emplace_back(Name, Cfg);
  };
  Add("max-dpred-instrs=50", [](sim::SimConfig &C) { C.MaxDpredInstrs = 50; });
  Add("max-loop-dpred-iters=2",
      [](sim::SimConfig &C) { C.MaxLoopDpredIters = 2; });
  sim::SimConfig Conf4 = Base;
  Conf4.ConfThreshold = 4;

  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    const workloads::Workload W = workloads::buildBenchmark(Spec);
    const std::vector<int64_t> Image = W.buildImage(InputSetKind::Run);
    const std::vector<uint8_t> Baseline = serialize::encodeSimStats(
        sim::simulateDmp(*W.Prog, NoDiverge, Image, Base));
    for (const auto &[Name, Cfg] : DpredOnly)
      EXPECT_EQ(serialize::encodeSimStats(
                    sim::simulateDmp(*W.Prog, NoDiverge, Image, Cfg)),
                Baseline)
          << Spec.Name << " " << Name;
    EXPECT_NE(serialize::encodeSimStats(
                  sim::simulateDmp(*W.Prog, NoDiverge, Image, Conf4)),
              Baseline)
        << Spec.Name << " conf-threshold=4";
  }
}

//===----------------------------------------------------------------------===//
// Machine view
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint8_t> bytesOf(const core::DivergeMap &Map) {
  return serialize::encodeDivergeMap(Map);
}

/// \p Map with everything the core does not read redrawn from \p Seed:
/// every MergeProb, LoopHeaderAddr and non-loop kind, a return CFM's
/// unused address, a hammock's loop fields, the CFM order (plus a
/// duplicate of one CFM), and a loop's CFM list.
core::DivergeMap scrambled(const core::DivergeMap &Map, uint64_t Seed) {
  RNG Rng(Seed);
  const core::DivergeKind Hammocks[] = {
      core::DivergeKind::SimpleHammock, core::DivergeKind::NestedHammock,
      core::DivergeKind::FreqHammock, core::DivergeKind::NoCfm};
  core::DivergeMap Out;
  for (uint32_t Addr : Map.sortedAddrs()) {
    core::DivergeAnnotation Ann = *Map.find(Addr);
    Ann.LoopHeaderAddr = static_cast<uint32_t>(Rng.next());
    if (Ann.Kind == core::DivergeKind::Loop) {
      Ann.Cfms.push_back(core::CfmPoint::atAddress(
          static_cast<uint32_t>(Rng.next()), Rng.nextDouble()));
      Ann.Cfms.push_back(core::CfmPoint::atReturn(Rng.nextDouble()));
    } else {
      Ann.Kind = Hammocks[Rng.nextBelow(4)];
      Ann.LoopSelectUops = static_cast<uint32_t>(Rng.nextBelow(64));
      Ann.LoopStayTaken = Rng.nextBool(0.5);
      if (!Ann.Cfms.empty())
        Ann.Cfms.push_back(Ann.Cfms[Rng.nextBelow(Ann.Cfms.size())]);
      for (size_t I = Ann.Cfms.size(); I > 1; --I)
        std::swap(Ann.Cfms[I - 1], Ann.Cfms[Rng.nextBelow(I)]);
    }
    for (core::CfmPoint &Cfm : Ann.Cfms) {
      Cfm.MergeProb = Rng.nextDouble();
      if (Cfm.PointKind == core::CfmPoint::Kind::Return)
        Cfm.Addr = static_cast<uint32_t>(Rng.next());
    }
    Out.add(Addr, std::move(Ann));
  }
  return Out;
}

/// \p Map with \p Edit applied to every annotation.
template <typename Fn>
core::DivergeMap edited(const core::DivergeMap &Map, const Fn &Edit) {
  core::DivergeMap Out;
  for (const auto &[Addr, Ann] : Map.all()) {
    core::DivergeAnnotation Copy = Ann;
    Edit(Copy);
    Out.add(Addr, std::move(Copy));
  }
  return Out;
}

} // namespace

// The view keeps what the core reads and forgets the rest.
TEST(MachineView, KeepsWhatTheCoreReads) {
  core::DivergeMap Map;
  core::DivergeAnnotation Hammock;
  Hammock.Kind = core::DivergeKind::NestedHammock;
  Hammock.AlwaysPredicate = true;
  Hammock.LoopHeaderAddr = 7;
  Hammock.Cfms = {core::CfmPoint::atAddress(40, 0.5),
                  core::CfmPoint::atReturn(0.25),
                  core::CfmPoint::atAddress(30, 0.125),
                  core::CfmPoint::atAddress(40, 0.0625)};
  Map.add(10, Hammock);
  core::DivergeAnnotation Loop;
  Loop.Kind = core::DivergeKind::Loop;
  Loop.LoopHeaderAddr = 3;
  Loop.LoopSelectUops = 5;
  Loop.LoopStayTaken = true;
  Loop.Cfms = {core::CfmPoint::atAddress(9, 0.5)};
  Map.add(20, Loop);

  const core::DivergeMap View = sim::machineView(Map);
  ASSERT_EQ(View.size(), 2u);
  const core::DivergeAnnotation &H = *View.find(10);
  EXPECT_EQ(H.Kind, core::DivergeKind::SimpleHammock);
  EXPECT_TRUE(H.AlwaysPredicate);
  EXPECT_EQ(H.LoopHeaderAddr, 0u);
  ASSERT_EQ(H.Cfms.size(), 3u);
  EXPECT_EQ(H.Cfms[0].PointKind, core::CfmPoint::Kind::Address);
  EXPECT_EQ(H.Cfms[0].Addr, 30u);
  EXPECT_EQ(H.Cfms[1].Addr, 40u);
  EXPECT_EQ(H.Cfms[2].PointKind, core::CfmPoint::Kind::Return);
  for (const core::CfmPoint &Cfm : H.Cfms)
    EXPECT_EQ(Cfm.MergeProb, 0.0);
  const core::DivergeAnnotation &L = *View.find(20);
  EXPECT_EQ(L.Kind, core::DivergeKind::Loop);
  EXPECT_FALSE(L.AlwaysPredicate);
  EXPECT_EQ(L.LoopHeaderAddr, 0u);
  EXPECT_EQ(L.LoopSelectUops, 5u);
  EXPECT_TRUE(L.LoopStayTaken);
  EXPECT_TRUE(L.Cfms.empty());

  EXPECT_EQ(bytesOf(sim::machineView(View)), bytesOf(View));
  EXPECT_TRUE(sim::machineView(NoDiverge).empty());
}

// Every distinct paper-cold map replays identically from its view, and a view
// that dropped AlwaysPredicate or a CFM point would not.
TEST(MachineView, PaperColumnsReplayIdentically) {
  const auto NoAlways = [](core::DivergeAnnotation &A) {
    A.AlwaysPredicate = false;
  };
  const auto OneCfmLess = [](core::DivergeAnnotation &A) {
    if (!A.Cfms.empty())
      A.Cfms.pop_back();
  };
  unsigned NoAlwaysChanged = 0, OneCfmLessChanged = 0;
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    harness::BenchContext Ctx(Spec, harness::ExperimentOptions());
    const ir::Program &P = *Ctx.workload().Prog;
    const sim::SimConfig &Cfg = Ctx.options().Sim;
    const auto Sim = [&](const core::DivergeMap &Map) {
      return serialize::encodeSimStats(
          sim::simulateDmp(P, Map, Ctx.trace(), Cfg));
    };
    std::set<std::vector<uint8_t>> Seen;
    for (const Column &C : paperColumns()) {
      const core::DivergeMap Map = Ctx.select(C.Features, C.Input);
      if (!Seen.insert(bytesOf(Map)).second)
        continue;
      const core::DivergeMap View = sim::machineView(Map);
      const std::vector<uint8_t> Stats = Sim(Map);
      EXPECT_EQ(Sim(View), Stats) << Spec.Name << " " << C.Name;
      if (std::string(C.Name) == "+loop") {
        NoAlwaysChanged += Sim(edited(View, NoAlways)) != Stats;
        OneCfmLessChanged += Sim(edited(View, OneCfmLess)) != Stats;
      }
    }
  }
  EXPECT_GT(NoAlwaysChanged, 0u);
  EXPECT_GT(OneCfmLessChanged, 0u);
}

// Adversarial maps scrambled in everything the core does not read have the
// unscrambled map's view and replay to its statistics.
TEST(MachineView, ScrambledAdversarialMapsReplayIdentically) {
  for (uint64_t Seed = 0; Seed < 50; ++Seed) {
    const Recipe R(Seed);
    const ir::Program &P = *R.G.Prog;
    const core::DivergeMap Map = check::adversarialAnnotations(*R.PA);
    const core::DivergeMap Scrambled = scrambled(Map, Seed);
    const core::DivergeMap View = sim::machineView(Scrambled);
    EXPECT_EQ(bytesOf(View), bytesOf(sim::machineView(Map)))
        << "recipe " << Seed;
    const sim::CorrectPathTrace Trace =
        sim::recordCorrectPath(P, R.G.Image, R.Cfg);
    EXPECT_EQ(serialize::encodeSimStats(
                  sim::simulateDmp(P, Scrambled, Trace, R.Cfg)),
              serialize::encodeSimStats(
                  sim::simulateDmp(P, View, Trace, R.Cfg)))
        << "recipe " << Seed;
  }
}

// gzip's 12 paper-cold maps are 12 byte strings but 3 machine views, so a
// context simulates 3 times (7 when it keyed on the map bytes).
TEST(MachineView, GzipColumnsTakeThreeSims) {
  harness::BenchContext Ctx(specFor("gzip"), harness::ExperimentOptions());
  for (const Column &C : paperColumns())
    Ctx.simulateWith(Ctx.select(C.Features, C.Input));
  EXPECT_EQ(Ctx.dmpSims(), 3u);
  EXPECT_EQ(Ctx.memoHits(), 9u);
}

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

TEST(CorrectPathRecord, FastAndReferenceRecordIdentically) {
  const auto Compare = [](const ir::Program &P,
                          const std::vector<int64_t> &Image,
                          const sim::SimConfig &Cfg) {
    sim::FinalState FastState, RefState;
    const sim::CorrectPathTrace Fast =
        sim::recordCorrectPath(P, Image, Cfg, &FastState, sim::EmuMode::Fast);
    const sim::CorrectPathTrace Ref = sim::recordCorrectPath(
        P, Image, Cfg, &RefState, sim::EmuMode::Reference);
    EXPECT_EQ(serialize::encodeCorrectPathTrace(Fast),
              serialize::encodeCorrectPathTrace(Ref));
    EXPECT_EQ(FastState.Regs, RefState.Regs);
    EXPECT_EQ(FastState.MemoryWords, RefState.MemoryWords);
    EXPECT_EQ(FastState.MemoryFingerprint, RefState.MemoryFingerprint);
    EXPECT_EQ(FastState.RetiredInstrs, RefState.RetiredInstrs);
    EXPECT_EQ(FastState.Halted, RefState.Halted);
    EXPECT_TRUE(FastState.Stores == RefState.Stores);
    EXPECT_EQ(Fast.Instrs, FastState.RetiredInstrs);
  };
  sim::SimConfig Cfg;
  Cfg.MaxInstrs = 200'000;
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    SCOPED_TRACE(Spec.Name);
    const workloads::Workload W = workloads::buildBenchmark(Spec);
    Compare(*W.Prog, W.buildImage(InputSetKind::Run), Cfg);
  }
  for (uint64_t Seed = 0; Seed < 20; ++Seed) {
    SCOPED_TRACE(Seed);
    const Recipe R(Seed);
    Compare(*R.G.Prog, R.G.Image, R.Cfg);
  }
}

// The guards fire at the retired-instruction counts of the emulator-driven
// simulator: a 10000-instruction watchdog aborts after the beats at 4096
// and 8192; a token cancelled in the third beat aborts right after it.
// Both halves honour them — a standalone simulation aborts while
// recording, a replay of a complete trace while replaying.
TEST(CorrectPathRecord, GuardsAbortAtTheEmulatorDrivenCount) {
  const workloads::Workload W = workloads::buildByName("mcf");
  const std::vector<int64_t> Image = W.buildImage(InputSetKind::Run);
  sim::SimConfig Plain;
  Plain.MaxInstrs = 300'000;
  const sim::CorrectPathTrace Trace =
      sim::recordCorrectPath(*W.Prog, Image, Plain);
  ASSERT_EQ(Trace.Instrs, 300'000u);

  for (bool Replay : {false, true}) {
    SCOPED_TRACE(Replay ? "replay" : "record");
    sim::SimConfig Cfg = Plain;
    Cfg.WatchdogInstrBudget = 10'000;
    unsigned Beats = 0;
    Cfg.Progress = [&] { ++Beats; };
    Status S = statusOf([&] {
      if (Replay)
        sim::simulateDmp(*W.Prog, NoDiverge, Trace, Cfg);
      else
        sim::simulateDmp(*W.Prog, NoDiverge, Image, Cfg);
    });
    EXPECT_EQ(S.code(), ErrorCode::ResourceExhausted);
    EXPECT_EQ(S.toString(), "sim::DmpCore: resource-exhausted: simulation "
                            "exceeded watchdog budget of 10000 instructions");
    EXPECT_EQ(Beats, 2u);

    guard::CancelToken Token;
    Cfg = Plain;
    Cfg.Cancel = &Token;
    Beats = 0;
    Cfg.Progress = [&] {
      if (++Beats == 3)
        Token.cancel();
    };
    S = statusOf([&] {
      if (Replay)
        sim::simulateDmp(*W.Prog, NoDiverge, Trace, Cfg);
      else
        sim::simulateDmp(*W.Prog, NoDiverge, Image, Cfg);
    });
    EXPECT_EQ(S.code(), ErrorCode::Cancelled);
    EXPECT_EQ(S.toString(), "guard: cancelled: cancelled (sim::DmpCore)");
    EXPECT_EQ(Beats, 3u);
  }
}

// InjectFault corrupts only the extracted FinalState: the trace (and so
// the timing) is untouched, and the oracle still catches both canaries.
TEST(CorrectPathRecord, InjectFaultCanariesStillFailTheOracle) {
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    SCOPED_TRACE(Seed);
    const Recipe R(Seed);
    const sim::FinalState Ref =
        check::runReference(*R.G.Prog, R.G.Image, R.Cfg.MaxInstrs);
    const std::vector<uint8_t> Clean = serialize::encodeCorrectPathTrace(
        sim::recordCorrectPath(*R.G.Prog, R.G.Image, R.Cfg));
    for (unsigned Fault : {1u, 2u}) {
      sim::SimConfig Cfg = R.Cfg;
      Cfg.InjectFault = Fault;
      sim::FinalState State;
      EXPECT_EQ(serialize::encodeCorrectPathTrace(sim::recordCorrectPath(
                    *R.G.Prog, R.G.Image, Cfg, &State)),
                Clean);
      if (Fault == 1 && Ref.Stores.empty())
        continue; // Nothing to drop.
      EXPECT_FALSE(State.Regs == Ref.Regs && State.Stores == Ref.Stores)
          << "fault " << Fault;

      check::OracleOptions Opts;
      Opts.MaxInstrs = 60'000;
      Opts.InjectFault = Fault;
      const check::OracleReport Report =
          check::runOracle(*R.G.Prog, *R.PA, R.G.Image, Opts);
      EXPECT_FALSE(Report.ok()) << "fault " << Fault;
    }
  }
}

TEST(CorrectPathRecord, ReplayRejectsATraceOfAnotherPath) {
  const workloads::Workload W = workloads::buildByName("li");
  sim::SimConfig Cfg;
  Cfg.MaxInstrs = 50'000;
  const sim::CorrectPathTrace Trace =
      sim::recordCorrectPath(*W.Prog, W.buildImage(InputSetKind::Run), Cfg);
  const auto ReplayStatus = [&](const sim::CorrectPathTrace &T) {
    return statusOf([&] { sim::DmpCore(*W.Prog, NoDiverge, Cfg).run(T); });
  };
  ASSERT_GT(Trace.Branches.size(), 10u);
  sim::CorrectPathTrace Short = Trace;
  Short.Branches.resize(Trace.Branches.size() / 2);
  EXPECT_EQ(ReplayStatus(Short).code(), ErrorCode::Invariant);
  sim::CorrectPathTrace Long = Trace;
  Long.Instrs = Cfg.MaxInstrs + 1;
  EXPECT_EQ(ReplayStatus(Long).code(), ErrorCode::Invariant);
  sim::CorrectPathTrace Extra = Trace;
  Extra.Branches.push_back(0);
  EXPECT_EQ(ReplayStatus(Extra).code(), ErrorCode::Invariant);
  EXPECT_TRUE(ReplayStatus(Trace).ok());
}

//===----------------------------------------------------------------------===//
// Trace blob
//===----------------------------------------------------------------------===//

TEST(TraceBlob, RoundTripsAndRejectsDamage) {
  const workloads::Workload W = workloads::buildByName("gcc");
  sim::SimConfig Cfg;
  Cfg.MaxInstrs = 200'000;
  const sim::CorrectPathTrace Trace =
      sim::recordCorrectPath(*W.Prog, W.buildImage(InputSetKind::Run), Cfg);
  ASSERT_FALSE(Trace.Events.empty());
  const std::vector<uint8_t> Blob = serialize::encodeCorrectPathTrace(Trace);

  sim::CorrectPathTrace Back;
  ASSERT_TRUE(serialize::decodeCorrectPathTrace(Blob, Back).ok());
  EXPECT_EQ(serialize::encodeCorrectPathTrace(Back), Blob);
  EXPECT_EQ(serialize::encodeSimStats(
                sim::DmpCore(*W.Prog, NoDiverge, Cfg).run(Back)),
            serialize::encodeSimStats(
                sim::DmpCore(*W.Prog, NoDiverge, Cfg).run(Trace)));

  for (size_t Cut : {size_t(0), size_t(7), size_t(40), Blob.size() / 2,
                     Blob.size() - 1}) {
    const std::vector<uint8_t> Short(Blob.begin(), Blob.begin() + Cut);
    EXPECT_EQ(serialize::decodeCorrectPathTrace(Short, Back).code(),
              ErrorCode::Corrupt)
        << "cut at " << Cut;
  }
  std::vector<uint8_t> Bad = Blob;
  Bad[0] ^= 0xFF; // kind tag
  EXPECT_EQ(serialize::decodeCorrectPathTrace(Bad, Back).code(),
            ErrorCode::Corrupt);
  Bad = Blob;
  Bad[40] = 0xFF; // branch count far past the payload
  EXPECT_EQ(serialize::decodeCorrectPathTrace(Bad, Back).code(),
            ErrorCode::Corrupt);
}

TEST(TraceBlob, CachedTraceIsReusedAndDamageRecomputes) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-trace-test-" + std::to_string(::getpid()));
  std::filesystem::remove_all(Dir);
  harness::ExperimentOptions Options = fastOptions();
  Options.Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
  const workloads::BenchmarkSpec &Spec = specFor("twolf");

  std::vector<uint8_t> Recorded, Baseline;
  {
    harness::BenchContext Ctx(Spec, Options);
    Baseline = serialize::encodeSimStats(Ctx.baseline());
    Recorded = serialize::encodeCorrectPathTrace(Ctx.trace());
    EXPECT_EQ(Ctx.traces(), 1u);
  }
  // A context reading the cached trace records nothing and replays to the
  // same baseline.
  const auto FreshContextTraces = [&] {
    harness::BenchContext Ctx(Spec, Options);
    EXPECT_EQ(serialize::encodeCorrectPathTrace(Ctx.trace()), Recorded);
    EXPECT_EQ(serialize::encodeSimStats(sim::simulateDmp(
                  *Ctx.workload().Prog, NoDiverge, Ctx.trace(), Options.Sim)),
              Baseline);
    return Ctx.traces();
  };
  EXPECT_EQ(FreshContextTraces(), 0u);

  // A truncated or corrupt blob under the trace key falls through to a
  // recompute, whose store heals the entry.
  const serialize::Digest Key = harness::traceCacheKey(Spec, Options.Sim);
  std::vector<uint8_t> Damaged(Recorded.begin(),
                               Recorded.begin() + Recorded.size() / 2);
  ASSERT_TRUE(Options.Cache->store(Key, Damaged).ok());
  EXPECT_EQ(FreshContextTraces(), 1u);
  EXPECT_EQ(FreshContextTraces(), 0u);
  Damaged = Recorded;
  Damaged[40] = 0xFF;
  ASSERT_TRUE(Options.Cache->store(Key, Damaged).ok());
  EXPECT_EQ(FreshContextTraces(), 1u);
  EXPECT_EQ(FreshContextTraces(), 0u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// BenchContext trace memo
//===----------------------------------------------------------------------===//

TEST(TraceMemo, ConcurrentStagesRecordOnce) {
  harness::BenchContext Bench(specFor("gcc"), fastOptions());
  const core::DivergeMap Heur =
      Bench.select(core::SelectionFeatures::allBestHeur(), InputSetKind::Run);
  const core::DivergeMap Cost =
      Bench.select(core::SelectionFeatures::allBestCost(), InputSetKind::Run);
  constexpr unsigned N = 6;
  std::vector<std::vector<uint8_t>> Results(N);
  onThreads(N, [&](unsigned I) {
    const sim::SimStats S = I % 3 == 0   ? Bench.baseline()
                            : I % 3 == 1 ? Bench.simulateWith(Heur)
                                         : Bench.simulateWith(Cost);
    Results[I] = serialize::encodeSimStats(S);
  });
  EXPECT_EQ(Bench.traces(), 1u);
  EXPECT_EQ(&Bench.trace(), &Bench.trace());

  // Equal to standalone record + replay simulations.
  const workloads::Workload &W = Bench.workload();
  const std::vector<int64_t> Image = W.buildImage(InputSetKind::Run);
  const sim::SimConfig &Cfg = Bench.options().Sim;
  EXPECT_EQ(Results[0], serialize::encodeSimStats(
                            sim::simulateDmp(*W.Prog, NoDiverge, Image, Cfg)));
  EXPECT_EQ(Results[1], serialize::encodeSimStats(
                            sim::simulateDmp(*W.Prog, Heur, Image, Cfg)));
  EXPECT_EQ(Results[2], serialize::encodeSimStats(
                            sim::simulateDmp(*W.Prog, Cost, Image, Cfg)));
  for (unsigned I = 3; I < N; ++I)
    EXPECT_EQ(Results[I], Results[I % 3]) << "thread " << I;
}

TEST(TraceMemo, FailedRecordingReachesEveryWaiterAndIsRecomputed) {
  harness::ExperimentOptions Options = fastOptions();
  Options.Sim.WatchdogInstrBudget = 2000;
  harness::BenchContext Bench(specFor("mcf"), Options);
  constexpr unsigned N = 6;
  std::vector<Status> Statuses(N);
  onThreads(N, [&](unsigned I) {
    Statuses[I] = statusOf([&] { Bench.baseline(); });
  });
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(Statuses[I].code(), ErrorCode::ResourceExhausted)
        << "thread " << I << ": " << Statuses[I].toString();
  const uint64_t Traces = Bench.traces();
  EXPECT_GE(Traces, 1u);
  EXPECT_EQ(statusOf([&] { Bench.trace(); }).code(),
            ErrorCode::ResourceExhausted);
  EXPECT_EQ(Bench.traces(), Traces + 1);
}

TEST(TraceMemo, CancelledRecordingIsNotMemoized) {
  guard::CancelToken Token;
  harness::ExperimentOptions Options = fastOptions();
  Options.Sim.Cancel = &Token;
  harness::BenchContext Bench(specFor("li"), Options);
  Token.cancel();
  EXPECT_EQ(statusOf([&] { Bench.baseline(); }).code(),
            ErrorCode::Cancelled);
  Token.reset();
  const sim::SimStats Base = Bench.baseline();
  EXPECT_EQ(Bench.traces(), 2u);
  harness::BenchContext Fresh(specFor("li"), fastOptions());
  EXPECT_EQ(serialize::encodeSimStats(Base),
            serialize::encodeSimStats(Fresh.baseline()));
}
