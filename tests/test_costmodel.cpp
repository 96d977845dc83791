//===- tests/test_costmodel.cpp - Cost-benefit model unit tests ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Verifies the paper's equations numerically: Eq. 1-4 (dpred_cost), Eq. 14
// (simple/nested overhead), Eq. 16 (frequently-hammock), Eq. 17 (multiple
// CFM points), and Eq. 18-20 (loops), plus the model's monotonicity
// properties.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "core/CostModel.h"
#include "sim/SimConfig.h"

#include <gtest/gtest.h>

using namespace dmp;
using namespace dmp::core;

namespace {

/// Builds a BranchCandidate for the simple-hammock program with the data
/// distribution implied by \p TakenProb.
BranchCandidate simpleCandidate(const test::ProgramHandles &H,
                                const cfg::ProgramAnalysis &PA,
                                double TakenProb,
                                const SelectionConfig &Config) {
  cfg::EdgeProfile Prof;
  const auto Taken = static_cast<uint64_t>(TakenProb * 1000);
  for (uint64_t I = 0; I < Taken; ++I)
    Prof.recordBranch(H.BranchAddr, true);
  for (uint64_t I = 0; I < 1000 - Taken; ++I)
    Prof.recordBranch(H.BranchAddr, false);
  // Loop back branch, mostly taken.
  for (uint32_t Addr : H.Prog->condBranchAddrs()) {
    if (Addr == H.BranchAddr)
      continue;
    for (int I = 0; I < 99; ++I)
      Prof.recordBranch(Addr, true);
    Prof.recordBranch(Addr, false);
  }
  return analyzeBranch(PA, Prof, H.BranchAddr, Config, Config.MaxInstr,
                       Config.MaxCondBr);
}

} // namespace

TEST(CostModelTest, SimpleHammockEq14) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4);
  cfg::ProgramAnalysis PA(*H.Prog);
  SelectionConfig Config;
  const BranchCandidate Cand = simpleCandidate(H, PA, 0.5, Config);

  CfmCandidate Exact;
  Exact.Block = Cand.Iposdom;
  Exact.MergeProb = 1.0;
  const HammockCost Cost = evaluateHammockCost(
      Cand, {Exact}, Config, OverheadMethod::EdgeProfile);

  // Fall side: 4 filler + addi + jmp = 6; taken side falls through: 5.
  // useful = 0.5*5 + 0.5*6 = 5.5; useless = 11 - 5.5 = 5.5.
  ASSERT_EQ(Cost.DpredInstsPerCfm.size(), 1u);
  EXPECT_NEAR(Cost.DpredInstsPerCfm[0], 11.0, 1e-9);
  EXPECT_NEAR(Cost.UselessInstsPerCfm[0], 5.5, 1e-9);
  // Eq. 14: overhead = useless / fw = 5.5/8.
  EXPECT_NEAR(Cost.OverheadCycles, 5.5 / 8.0, 1e-9);
  // Eq. 1: overhead*(1-Acc) + (overhead - penalty)*Acc.
  const double Ovh = 5.5 / 8.0;
  EXPECT_NEAR(Cost.CostCycles, Ovh * 0.6 + (Ovh - 25.0) * 0.4, 1e-9);
  EXPECT_TRUE(Cost.Selected);
}

TEST(CostModelTest, BiasedBranchHasAsymmetricUseless) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4);
  cfg::ProgramAnalysis PA(*H.Prog);
  SelectionConfig Config;
  const BranchCandidate Cand = simpleCandidate(H, PA, 0.9, Config);
  EXPECT_NEAR(Cand.TakenProb, 0.9, 1e-9);

  CfmCandidate Exact;
  Exact.Block = Cand.Iposdom;
  Exact.MergeProb = 1.0;
  const HammockCost Cost = evaluateHammockCost(
      Cand, {Exact}, Config, OverheadMethod::EdgeProfile);
  // Useful = 0.9*5 (taken side) + 0.1*6 = 5.1; useless = 11 - 5.1 = 5.9:
  // with a biased branch the *longer* side is usually the useless one.
  EXPECT_NEAR(Cost.UselessInstsPerCfm[0], 5.9, 1e-9);
}

TEST(CostModelTest, FreqHammockEq16MergeProbMatters) {
  auto H = test::buildFreqHammockLoop(/*RareLen=*/60);
  cfg::ProgramAnalysis PA(*H.Prog);
  SelectionConfig Config;

  cfg::EdgeProfile Prof;
  for (int I = 0; I < 500; ++I) {
    Prof.recordBranch(H.BranchAddr, true);
    Prof.recordBranch(H.BranchAddr, false);
  }
  const uint32_t RareAddr = H.TakenSide->instructions().back().Addr;
  for (int I = 0; I < 30; ++I)
    Prof.recordBranch(RareAddr, true);
  for (int I = 0; I < 970; ++I)
    Prof.recordBranch(RareAddr, false);
  const uint32_t LoopAddr = H.End->instructions().back().Addr;
  for (int I = 0; I < 99; ++I)
    Prof.recordBranch(LoopAddr, true);
  Prof.recordBranch(LoopAddr, false);

  const BranchCandidate Cand = analyzeBranch(
      PA, Prof, H.BranchAddr, Config, Config.MaxInstr, Config.MaxCondBr);
  ASSERT_EQ(Cand.StructKind, DivergeKind::FreqHammock);
  ASSERT_FALSE(Cand.Cfms.empty());
  EXPECT_EQ(Cand.Cfms[0].Block, H.Merge);

  // High merge probability: selected.
  std::vector<CfmCandidate> High = {Cand.Cfms[0]};
  const HammockCost HighCost =
      evaluateHammockCost(Cand, High, Config, OverheadMethod::EdgeProfile);
  EXPECT_TRUE(HighCost.Selected);

  // Same candidate with artificially tiny merge probability: the
  // (1-P(merge)) * penalty/2 term dominates and the branch is rejected.
  std::vector<CfmCandidate> Low = High;
  Low[0].MergeProb = 0.05;
  const HammockCost LowCost =
      evaluateHammockCost(Cand, Low, Config, OverheadMethod::EdgeProfile);
  EXPECT_GT(LowCost.OverheadCycles, HighCost.OverheadCycles);
  EXPECT_FALSE(LowCost.Selected);
}

TEST(CostModelTest, Eq17MultipleCfmsSumMergeProbs) {
  auto H = test::buildSimpleHammockLoop();
  cfg::ProgramAnalysis PA(*H.Prog);
  SelectionConfig Config;
  const BranchCandidate Cand = simpleCandidate(H, PA, 0.5, Config);

  CfmCandidate A, B;
  A.Block = Cand.Iposdom;
  A.MergeProb = 0.4;
  B.Block = Cand.Iposdom;
  B.MergeProb = 0.35;
  const HammockCost Cost = evaluateHammockCost(
      Cand, {A, B}, Config, OverheadMethod::EdgeProfile);
  EXPECT_NEAR(Cost.TotalMergeProb, 0.75, 1e-9);
  // Overhead includes the (1 - 0.75) * penalty/2 non-merge term.
  EXPECT_GT(Cost.OverheadCycles, (1.0 - 0.75) * 12.5 - 1e-9);
}

TEST(CostModelTest, LongestPathAtLeastEdgeProfile) {
  auto H = test::buildFreqHammockLoop(/*RareLen=*/40);
  cfg::ProgramAnalysis PA(*H.Prog);
  SelectionConfig Config;
  const BranchCandidate Cand = simpleCandidate(H, PA, 0.5, Config);
  if (Cand.Cfms.empty())
    GTEST_SKIP();
  std::vector<CfmCandidate> Set = {Cand.Cfms[0]};
  const HammockCost Long =
      evaluateHammockCost(Cand, Set, Config, OverheadMethod::LongestPath);
  const HammockCost Edge =
      evaluateHammockCost(Cand, Set, Config, OverheadMethod::EdgeProfile);
  EXPECT_GE(Long.DpredInstsPerCfm[0], Edge.DpredInstsPerCfm[0] - 1e-9);
}

TEST(CostModelTest, CostDecreasesWithAccConf) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4);
  cfg::ProgramAnalysis PA(*H.Prog);
  SelectionConfig Config;
  const BranchCandidate Cand = simpleCandidate(H, PA, 0.5, Config);
  CfmCandidate Exact;
  Exact.Block = Cand.Iposdom;
  Exact.MergeProb = 1.0;

  double Last = 1e9;
  for (double Acc : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    SelectionConfig C = Config;
    C.AccConf = Acc;
    const HammockCost Cost =
        evaluateHammockCost(Cand, {Exact}, C, OverheadMethod::EdgeProfile);
    // A more accurate confidence estimator makes predication cheaper.
    EXPECT_LT(Cost.CostCycles, Last);
    Last = Cost.CostCycles;
  }
}

TEST(CostModelTest, BigHammockRejected) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/120);
  cfg::ProgramAnalysis PA(*H.Prog);
  SelectionConfig Config;
  const BranchCandidate Cand = simpleCandidate(
      H, PA, 0.5, Config);
  // Analyze at the cost-model scope so the paths are fully explored.
  cfg::EdgeProfile Prof;
  for (int I = 0; I < 500; ++I) {
    Prof.recordBranch(H.BranchAddr, true);
    Prof.recordBranch(H.BranchAddr, false);
  }
  for (uint32_t Addr : H.Prog->condBranchAddrs()) {
    if (Addr == H.BranchAddr)
      continue;
    for (int I = 0; I < 99; ++I)
      Prof.recordBranch(Addr, true);
    Prof.recordBranch(Addr, false);
  }
  const BranchCandidate Wide =
      analyzeBranch(PA, Prof, H.BranchAddr, Config,
                    Config.CostScopeMaxInstr, Config.CostScopeMaxCondBr);
  ASSERT_NE(Wide.Iposdom, nullptr);
  CfmCandidate Exact;
  Exact.Block = Wide.Iposdom;
  Exact.MergeProb = 1.0;
  const HammockCost Cost = evaluateHammockCost(
      Wide, {Exact}, Config, OverheadMethod::EdgeProfile);
  // ~122 useless instructions: 15+ cycles of fetch overhead vs a 10-cycle
  // expected benefit -> rejected (the Figure 7 "MAX_INSTR too large" story).
  EXPECT_FALSE(Cost.Selected);
  (void)Cand;
}

TEST(LoopCostTest, Eq18SelectOverheadOnly) {
  SelectionConfig Config;
  LoopCostInputs In;
  In.BodyInstrs = 10;
  In.SelectUops = 4;
  In.DpredIter = 6;
  In.PCorrect = 1.0;
  const LoopCost Cost = evaluateLoopCost(In, Config);
  // Eq. 18: 4*6/8 = 3 cycles, no benefit anywhere.
  EXPECT_NEAR(Cost.OverheadCorrect, 3.0, 1e-9);
  EXPECT_NEAR(Cost.CostCycles, 3.0, 1e-9);
  EXPECT_FALSE(Cost.Selected);
}

TEST(LoopCostTest, Eq19LateExitBenefit) {
  SelectionConfig Config;
  LoopCostInputs In;
  In.BodyInstrs = 8;
  In.SelectUops = 3;
  In.DpredIter = 4;
  In.DpredExtraIter = 2;
  In.PLateExit = 1.0;
  const LoopCost Cost = evaluateLoopCost(In, Config);
  // Eq. 19: 8*2/8 + 3*4/8 = 2 + 1.5 = 3.5; cost = 3.5 - 25 < 0.
  EXPECT_NEAR(Cost.OverheadLate, 3.5, 1e-9);
  EXPECT_NEAR(Cost.CostCycles, 3.5 - 25.0, 1e-9);
  EXPECT_TRUE(Cost.Selected);
}

TEST(LoopCostTest, Eq20MixesCases) {
  SelectionConfig Config;
  LoopCostInputs In;
  In.BodyInstrs = 8;
  In.SelectUops = 4;
  In.DpredIter = 4;
  In.DpredExtraIter = 2;
  In.PCorrect = 0.5;
  In.PEarlyExit = 0.1;
  In.PLateExit = 0.3;
  In.PNoExit = 0.1;
  const LoopCost Cost = evaluateLoopCost(In, Config);
  const double Selects = 4.0 * 4.0 / 8.0;
  const double Late = 8.0 * 2.0 / 8.0 + Selects;
  const double Expected =
      0.5 * Selects + 0.1 * Selects + 0.3 * (Late - 25.0) + 0.1 * Selects;
  EXPECT_NEAR(Cost.CostCycles, Expected, 1e-9);
}

TEST(LoopCostTest, MoreLateExitMoreBenefit) {
  SelectionConfig Config;
  double Last = 1e9;
  for (double PLate : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    LoopCostInputs In;
    In.BodyInstrs = 10;
    In.SelectUops = 4;
    In.DpredIter = 5;
    In.DpredExtraIter = 2;
    In.PLateExit = PLate;
    In.PCorrect = 1.0 - PLate;
    const LoopCost Cost = evaluateLoopCost(In, Config);
    EXPECT_LT(Cost.CostCycles, Last);
    Last = Cost.CostCycles;
  }
}

// The cost model copies two values of the simulated machine; its defaults
// must be the simulator's.
TEST(CostModelTest, MachineDefaultsMatchTheSimulator) {
  const SelectionConfig Selection;
  const sim::SimConfig Sim;
  EXPECT_EQ(Selection.FetchWidth, Sim.FetchWidth);
  EXPECT_EQ(Selection.MispPenaltyCycles,
            Sim.FrontEndDepth + Sim.latencyFor(ir::Opcode::CondBr));
}
