//===- tests/test_sim.cpp - Cycle simulator tests ------------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "core/DivergeSelector.h"
#include "profile/Profiler.h"
#include "sim/DmpCore.h"
#include "sim/Simulator.h"
#include "sim/WrongPathWalker.h"
#include "profile/Emulator.h"
#include "workloads/SpecSuite.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace dmp;
using namespace dmp::sim;

namespace {

std::vector<int64_t> randomImage(size_t Words, double P, uint64_t Seed = 21) {
  std::vector<int64_t> Image(Words, 0);
  RNG Rng(Seed);
  for (auto &W : Image)
    W = Rng.nextBool(P);
  return Image;
}

/// How SimConfig::check, recordCorrectPath and the DmpCore constructor
/// treat \p Config: each must reject it with the same Invariant status
/// before sizing anything from it (so no CycleResource is built, and
/// nothing can hang on a zero-capacity one).
void expectRejected(const SimConfig &Config) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4, /*Iters=*/16);
  const Status S = Config.check();
  EXPECT_EQ(S.code(), ErrorCode::Invariant) << S.toString();
  const auto StatusOf = [](const auto &Call) {
    try {
      Call();
      return Status();
    } catch (const StatusError &E) {
      return E.status();
    }
  };
  EXPECT_EQ(StatusOf([&] {
              recordCorrectPath(*H.Prog, std::vector<int64_t>(64, 0), Config);
            }).toString(),
            S.toString());
  EXPECT_EQ(StatusOf([&] { DmpCore(*H.Prog, nullptr, Config); }).toString(),
            S.toString());
}

core::DivergeMap selectAll(const test::ProgramHandles &H,
                           const std::vector<int64_t> &Image) {
  cfg::ProgramAnalysis PA(*H.Prog);
  auto Prof = profile::collectProfile(*H.Prog, PA, Image);
  core::SelectionConfig Config;
  return core::selectDivergeBranches(PA, Prof, Config,
                                     core::SelectionFeatures::allBestHeur());
}

} // namespace

TEST(SimTest, RetiresEveryInstruction) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4, /*Iters=*/128);
  const auto Image = randomImage(8192, 0.5);
  const SimStats Stats = simulateBaseline(*H.Prog, Image);
  profile::Emulator Emu(*H.Prog, Image);
  profile::DynInstr D;
  while (Emu.step(D)) {
  }
  EXPECT_EQ(Stats.RetiredInstrs, Emu.executedCount());
  EXPECT_GT(Stats.Cycles, 0u);
  EXPECT_GT(Stats.ipc(), 0.1);
  EXPECT_LT(Stats.ipc(), 8.0);
}

TEST(SimTest, MispredictionsCostCycles) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4, /*Iters=*/1024);
  const SimStats Easy =
      simulateBaseline(*H.Prog, std::vector<int64_t>(8192, 0));
  const SimStats Hard = simulateBaseline(*H.Prog, randomImage(8192, 0.5));
  EXPECT_GT(Hard.Mispredictions, Easy.Mispredictions);
  EXPECT_LT(Hard.ipc(), Easy.ipc());
  // A misprediction costs at least the front-end depth worth of cycles.
  const double ExtraCycles =
      static_cast<double>(Hard.Cycles) - static_cast<double>(Easy.Cycles);
  EXPECT_GT(ExtraCycles / Hard.Mispredictions, 15.0);
}

TEST(SimTest, BaselineNeverEntersDpred) {
  auto H = test::buildSimpleHammockLoop();
  const SimStats Stats =
      simulateBaseline(*H.Prog, randomImage(8192, 0.5));
  EXPECT_EQ(Stats.DpredEntries, 0u);
  EXPECT_EQ(Stats.Flushes, Stats.Mispredictions + Stats.RasMispredicts);
}

TEST(SimTest, DmpSavesFlushesOnHardHammock) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4, /*Iters=*/2048);
  const auto Image = randomImage(8192, 0.5);
  const core::DivergeMap Map = selectAll(H, Image);
  ASSERT_TRUE(Map.contains(H.BranchAddr));

  const SimStats Base = simulateBaseline(*H.Prog, Image);
  const SimStats Dmp = simulateDmp(*H.Prog, Map, Image);
  EXPECT_GT(Dmp.DpredEntries, 0u);
  EXPECT_GT(Dmp.DpredSavedFlushes, 0u);
  EXPECT_LT(Dmp.Flushes, Base.Flushes);
  EXPECT_GT(Dmp.ipc(), Base.ipc());
  EXPECT_GT(Dmp.DpredMerged, Dmp.DpredNoMerge);
  EXPECT_GT(Dmp.SelectUops, 0u);
}

TEST(SimTest, AlwaysPredicateBypassesConfidence) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/2, /*Iters=*/1024);
  const auto Image = randomImage(8192, 0.5);
  cfg::ProgramAnalysis PA(*H.Prog);
  auto Prof = profile::collectProfile(*H.Prog, PA, Image);
  core::SelectionConfig Config;
  const core::DivergeMap Short = core::selectDivergeBranches(
      PA, Prof, Config, core::SelectionFeatures::exactFreqShort());
  ASSERT_TRUE(Short.contains(H.BranchAddr));
  ASSERT_TRUE(Short.find(H.BranchAddr)->AlwaysPredicate);

  const SimStats Stats = simulateDmp(*H.Prog, Short, Image);
  // Every execution of the branch enters dpred-mode (always-predicate).
  EXPECT_GT(Stats.DpredEntriesAlways, 0u);
  EXPECT_GE(Stats.DpredEntries, 1000u);
}

TEST(SimTest, LoopDpredOutcomeTaxonomy) {
  auto H = test::buildDataLoop(/*BodyLen=*/4, /*Outer=*/1024);
  std::vector<int64_t> Image(8192, 0);
  RNG Rng(5);
  for (auto &W : Image)
    W = Rng.nextInRange(1, 6); // unpredictable exits
  const core::DivergeMap Map = selectAll(H, Image);
  ASSERT_TRUE(Map.contains(H.BranchAddr));
  ASSERT_EQ(Map.find(H.BranchAddr)->Kind, core::DivergeKind::Loop);

  const SimStats Base = simulateBaseline(*H.Prog, Image);
  const SimStats Dmp = simulateDmp(*H.Prog, Map, Image);
  EXPECT_GT(Dmp.DpredEntriesLoop, 0u);
  // All three misprediction outcomes of Section 5.1 occur with
  // unpredictable trip counts, plus correctly-predicted episodes.
  EXPECT_GT(Dmp.LoopLateExit, 0u);
  EXPECT_GT(Dmp.LoopCorrect + Dmp.LoopEarlyExit + Dmp.LoopNoExit, 0u);
  // Late exits avoid flushes: DMP flushes fewer times.
  EXPECT_LT(Dmp.Flushes, Base.Flushes);
  EXPECT_GT(Dmp.ipc(), Base.ipc());
}

TEST(SimTest, ReturnCfmMerges) {
  auto H = test::buildRetFuncLoop(/*Iters=*/1024);
  const auto Image = randomImage(8192, 0.5);
  cfg::ProgramAnalysis PA(*H.Prog);
  auto Prof = profile::collectProfile(*H.Prog, PA, Image);
  core::SelectionConfig Config;
  const core::DivergeMap Map = core::selectDivergeBranches(
      PA, Prof, Config, core::SelectionFeatures::allBestHeur());
  ASSERT_TRUE(Map.contains(H.BranchAddr));
  ASSERT_EQ(Map.find(H.BranchAddr)->Cfms[0].PointKind,
            core::CfmPoint::Kind::Return);

  const SimStats Base = simulateBaseline(*H.Prog, Image);
  const SimStats Dmp = simulateDmp(*H.Prog, Map, Image);
  EXPECT_GT(Dmp.DpredMerged, 0u);
  EXPECT_GT(Dmp.ipc(), Base.ipc());
}

TEST(SimTest, DeterministicStats) {
  workloads::Workload W = workloads::buildByName("vpr");
  const auto Image = W.buildImage(workloads::InputSetKind::Run);
  SimConfig Config;
  Config.MaxInstrs = 200000;
  const SimStats A = simulateBaseline(*W.Prog, Image, Config);
  const SimStats B = simulateBaseline(*W.Prog, Image, Config);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Mispredictions, B.Mispredictions);
  EXPECT_EQ(A.Flushes, B.Flushes);
}

TEST(SimTest, MaxInstrsBudget) {
  workloads::Workload W = workloads::buildByName("gzip");
  const auto Image = W.buildImage(workloads::InputSetKind::Run);
  SimConfig Config;
  Config.MaxInstrs = 50000;
  const SimStats Stats = simulateBaseline(*W.Prog, Image, Config);
  EXPECT_LE(Stats.RetiredInstrs, 50000u);
}

TEST(SimTest, ConfidenceEstimatorInPaperRange) {
  // On a mixed workload the measured Acc_Conf (PVN) should be in a sane
  // band; the paper quotes 15%-50% and assumes 40% in the model.
  workloads::Workload W = workloads::buildByName("go");
  const auto Image = W.buildImage(workloads::InputSetKind::Run);
  SimConfig Config;
  Config.MaxInstrs = 400000;
  const SimStats Stats = simulateBaseline(*W.Prog, Image, Config);
  EXPECT_GT(Stats.accConf(), 0.10);
  EXPECT_LT(Stats.accConf(), 0.60);
}

TEST(WrongPathWalkerTest, StopsAtCfm) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4);
  core::DivergeAnnotation Ann;
  Ann.Cfms.push_back(
      core::CfmPoint::atAddress(H.Merge->getStartAddr(), 1.0));
  uarch::PerceptronPredictor Pred;
  const WrongPathResult R =
      walkWrongPath(*H.Prog, Pred, Ann, H.FallSide->getStartAddr(), 400);
  EXPECT_TRUE(R.ReachedCfm);
  EXPECT_EQ(R.ReachedCfmAddr, H.Merge->getStartAddr());
  EXPECT_EQ(R.InstrsFetched, 6u); // 4 filler + addi + jmp
  EXPECT_FALSE(R.WrittenRegs.empty());
}

TEST(WrongPathWalkerTest, BudgetLimitsWalk) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/100);
  core::DivergeAnnotation Ann;
  Ann.Cfms.push_back(
      core::CfmPoint::atAddress(H.Merge->getStartAddr(), 1.0));
  uarch::PerceptronPredictor Pred;
  const WrongPathResult R =
      walkWrongPath(*H.Prog, Pred, Ann, H.FallSide->getStartAddr(), 20);
  EXPECT_FALSE(R.ReachedCfm);
  EXPECT_EQ(R.InstrsFetched, 20u);
}

TEST(WrongPathWalkerTest, ReturnCfmStopsAtTopLevelRet) {
  auto H = test::buildRetFuncLoop();
  core::DivergeAnnotation Ann;
  Ann.Cfms.push_back(core::CfmPoint::atReturn(1.0));
  uarch::PerceptronPredictor Pred;
  const WrongPathResult R =
      walkWrongPath(*H.Prog, Pred, Ann, H.FallSide->getStartAddr(), 400);
  EXPECT_TRUE(R.ReachedCfm);
}

TEST(WrongPathWalkerTest, ExtraIterationsUntilPredictedExit) {
  auto H = test::buildDataLoop(/*BodyLen=*/4);
  uarch::PerceptronPredictor Pred;
  // Train the loop branch to predict "stay" twice then exit.
  for (int Round = 0; Round < 200; ++Round) {
    Pred.update(H.BranchAddr, true);
    Pred.update(H.BranchAddr, true);
    Pred.update(H.BranchAddr, false);
  }
  const ExtraIterResult R = walkExtraIterations(
      *H.Prog, Pred, H.BranchBlock->getStartAddr(), H.BranchAddr,
      /*StayTaken=*/true, /*MaxIters=*/16, /*MaxInstrs=*/400);
  EXPECT_GT(R.InstrsFetched, 0u);
  EXPECT_LE(R.Iterations, 16u);
}

TEST(SimConfigTest, RejectsZeroIssueWidth) {
  SimConfig Config;
  Config.IssueWidth = 0;
  expectRejected(Config);
}

// The issue ports count bookings in a 4-bit field: 16 would overflow into
// the epoch tag.
TEST(SimConfigTest, RejectsIssueWidthBeyondTheCountField) {
  SimConfig Config;
  Config.IssueWidth = 16;
  expectRejected(Config);
  Config.IssueWidth = 15;
  EXPECT_TRUE(Config.check().ok());
}

TEST(SimConfigTest, RejectsEmptyRob) {
  SimConfig Config;
  Config.RobSize = 0;
  expectRejected(Config);
  Config.RobSize = 1;
  EXPECT_TRUE(Config.check().ok());
}

TEST(SimConfigTest, Table1Defaults) {
  SimConfig Config;
  EXPECT_TRUE(Config.check().ok());
  EXPECT_EQ(Config.FetchWidth, 8u);
  EXPECT_EQ(Config.RobSize, 512u);
  EXPECT_EQ(Config.BtbEntries, 4096u);
  EXPECT_EQ(Config.RasEntries, 64u);
  EXPECT_EQ(Config.ConfThreshold, 14u);
  EXPECT_EQ(Config.Memory.MemoryLatency, 300u);
  // Minimum misprediction penalty ~25 cycles.
  EXPECT_GE(Config.FrontEndDepth + Config.latencyFor(ir::Opcode::CondBr),
            25u);
  const std::string Text = Config.toString();
  EXPECT_NE(Text.find("perceptron"), std::string::npos);
}
