//===- tests/test_wrongpath.cpp - Wrong-path walker unit tests ----------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Direct unit tests for sim::walkWrongPath / sim::walkExtraIterations, the
// speculative-fetch walkers behind dpred-mode's wrong-path cost estimates.
// A fixed-direction stub predictor keeps the expectations exact: these
// tests pin the walker's control flow, not any real predictor's training
// dynamics.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "ir/IRBuilder.h"
#include "sim/WrongPathWalker.h"
#include "uarch/BranchPredictor.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

using namespace dmp;
using namespace dmp::ir;

namespace {

/// Deterministic per-address directions, ignoring history and training.
class FixedPredictor final : public uarch::BranchPredictor {
public:
  bool DefaultTaken = false;
  std::map<uint32_t, bool> Directions;

  bool predict(uint32_t Addr) const override { return directionFor(Addr); }
  bool predictWithHistory(uint32_t Addr, uint64_t) const override {
    return directionFor(Addr);
  }
  bool update(uint32_t, bool) override { return false; }
  uint64_t history() const override { return 0; }
  void reset() override {}

private:
  bool directionFor(uint32_t Addr) const {
    const auto It = Directions.find(Addr);
    return It == Directions.end() ? DefaultTaken : It->second;
  }
};

/// Hammock inside a counted loop, with handles on the pieces the walker
/// cares about:
///
///   entry -> head:{ld r3, br r3!=0 -> taken}
///   fall:{r4+=1, r5+=2, jmp merge} ; taken:{r6+=1} -> merge
///   merge:{r1+=1, br r1<r2 -> head} ; exit: halt
struct HammockProgram {
  std::unique_ptr<Program> Prog;
  uint32_t HeadAddr = 0;   ///< First instruction of the head block.
  uint32_t BranchAddr = 0; ///< The hammock branch.
  uint32_t FallAddr = 0;
  uint32_t TakenAddr = 0;
  uint32_t MergeAddr = 0;
  uint32_t LoopBranchAddr = 0;
};

HammockProgram buildHammock() {
  HammockProgram H;
  H.Prog = std::make_unique<Program>("wrongpath-hammock");
  Function *F = H.Prog->createFunction("main");
  IRBuilder B(*H.Prog);

  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Fall = F->createBlock("fall");
  BasicBlock *Taken = F->createBlock("taken");
  BasicBlock *Merge = F->createBlock("merge");
  BasicBlock *Exit = F->createBlock("exit");

  B.setInsertPoint(Entry);
  B.loadImm(1, 0);
  B.loadImm(2, 8);

  B.setInsertPoint(Head);
  B.load(3, 1, 0);
  B.condBr(BrCond::Ne, 3, 0, Taken);

  B.setInsertPoint(Fall);
  B.addI(4, 4, 1);
  B.addI(5, 5, 2);
  B.jmp(Merge);

  B.setInsertPoint(Taken);
  B.addI(6, 6, 1);
  // Falls through to Merge.

  B.setInsertPoint(Merge);
  B.addI(1, 1, 1);
  B.condBr(BrCond::Lt, 1, 2, Head);

  B.setInsertPoint(Exit);
  B.halt();

  H.Prog->finalize();
  test::requireClean(*H.Prog);
  H.HeadAddr = Head->getStartAddr();
  H.BranchAddr = Head->instructions().back().Addr;
  H.FallAddr = Fall->getStartAddr();
  H.TakenAddr = Taken->getStartAddr();
  H.MergeAddr = Merge->getStartAddr();
  H.LoopBranchAddr = Merge->instructions().back().Addr;
  return H;
}

core::DivergeAnnotation cfmAt(uint32_t Addr) {
  core::DivergeAnnotation Annotation;
  Annotation.Kind = core::DivergeKind::SimpleHammock;
  Annotation.Cfms.push_back(core::CfmPoint::atAddress(Addr, 1.0));
  return Annotation;
}

core::DivergeAnnotation returnCfm() {
  core::DivergeAnnotation Annotation;
  Annotation.Kind = core::DivergeKind::SimpleHammock;
  Annotation.Cfms.push_back(core::CfmPoint::atReturn(1.0));
  return Annotation;
}

} // namespace

TEST(WrongPathWalkerTest, StopsAtCfmPoint) {
  const HammockProgram H = buildHammock();
  FixedPredictor Predictor;
  const sim::WrongPathResult R = sim::walkWrongPath(
      *H.Prog, Predictor, cfmAt(H.MergeAddr), H.FallAddr, /*MaxInstrs=*/100);
  EXPECT_TRUE(R.ReachedCfm);
  EXPECT_EQ(R.ReachedCfmAddr, H.MergeAddr);
  // addI r4, addI r5, jmp — the CFM instruction itself is not fetched.
  EXPECT_EQ(R.InstrsFetched, 3u);
  EXPECT_EQ(R.WrittenRegs.size(), 2u);
  EXPECT_TRUE(R.WrittenRegs.count(4));
  EXPECT_TRUE(R.WrittenRegs.count(5));
}

TEST(WrongPathWalkerTest, FallthroughSideReachesCfmByFallthrough) {
  const HammockProgram H = buildHammock();
  FixedPredictor Predictor;
  const sim::WrongPathResult R = sim::walkWrongPath(
      *H.Prog, Predictor, cfmAt(H.MergeAddr), H.TakenAddr, /*MaxInstrs=*/100);
  EXPECT_TRUE(R.ReachedCfm);
  EXPECT_EQ(R.InstrsFetched, 1u);
  EXPECT_TRUE(R.WrittenRegs.count(6));
}

TEST(WrongPathWalkerTest, BudgetExhaustionStopsShortOfCfm) {
  const HammockProgram H = buildHammock();
  FixedPredictor Predictor;
  const sim::WrongPathResult R = sim::walkWrongPath(
      *H.Prog, Predictor, cfmAt(H.MergeAddr), H.FallAddr, /*MaxInstrs=*/2);
  EXPECT_FALSE(R.ReachedCfm);
  EXPECT_EQ(R.InstrsFetched, 2u);
}

TEST(WrongPathWalkerTest, FollowsPredictedDirectionAtBranches) {
  const HammockProgram H = buildHammock();

  FixedPredictor TakenPred;
  TakenPred.Directions[H.BranchAddr] = true;
  const sim::WrongPathResult ViaTaken = sim::walkWrongPath(
      *H.Prog, TakenPred, cfmAt(H.MergeAddr), H.HeadAddr, /*MaxInstrs=*/100);
  EXPECT_TRUE(ViaTaken.ReachedCfm);
  // load, condBr, taken-side addI r6.
  EXPECT_EQ(ViaTaken.InstrsFetched, 3u);
  EXPECT_TRUE(ViaTaken.WrittenRegs.count(6));
  EXPECT_FALSE(ViaTaken.WrittenRegs.count(4));

  FixedPredictor FallPred;
  FallPred.Directions[H.BranchAddr] = false;
  const sim::WrongPathResult ViaFall = sim::walkWrongPath(
      *H.Prog, FallPred, cfmAt(H.MergeAddr), H.HeadAddr, /*MaxInstrs=*/100);
  EXPECT_TRUE(ViaFall.ReachedCfm);
  // load, condBr, fall-side addI r4, addI r5, jmp.
  EXPECT_EQ(ViaFall.InstrsFetched, 5u);
  EXPECT_TRUE(ViaFall.WrittenRegs.count(4));
  EXPECT_FALSE(ViaFall.WrittenRegs.count(6));
}

TEST(WrongPathWalkerTest, ReturnCfmStopsAtTopLevelReturn) {
  // Walk a function body with a nested call: the nested ret must pop back
  // via the shadow stack; only the walk-level ret is the CFM.
  auto Prog = std::make_unique<Program>("wrongpath-retcfm");
  Function *Outer = Prog->createFunction("outer");
  Function *Inner = Prog->createFunction("inner");
  IRBuilder B(*Prog);

  BasicBlock *OuterBody = Outer->createBlock("body");
  B.setInsertPoint(OuterBody);
  B.addI(9, 9, 1);
  B.call(Inner);
  B.addI(10, 10, 1);
  B.ret();

  BasicBlock *InnerBody = Inner->createBlock("body");
  B.setInsertPoint(InnerBody);
  B.addI(11, 11, 1);
  B.ret();

  Prog->finalize();

  FixedPredictor Predictor;
  const sim::WrongPathResult R =
      sim::walkWrongPath(*Prog, Predictor, returnCfm(),
                         OuterBody->getStartAddr(), /*MaxInstrs=*/100);
  EXPECT_TRUE(R.ReachedCfm);
  // addI r9, call, addI r11, ret (nested), addI r10, ret (top level).
  EXPECT_EQ(R.InstrsFetched, 6u);
  EXPECT_TRUE(R.WrittenRegs.count(9));
  EXPECT_TRUE(R.WrittenRegs.count(10));
  EXPECT_TRUE(R.WrittenRegs.count(11));
}

TEST(WrongPathWalkerTest, HaltEndsWalkWithoutCfm) {
  const HammockProgram H = buildHammock();
  FixedPredictor Predictor; // Loop branch predicted not-taken: exit.
  const sim::WrongPathResult R = sim::walkWrongPath(
      *H.Prog, Predictor, cfmAt(H.FallAddr), H.TakenAddr, /*MaxInstrs=*/1000);
  // taken-side addI, merge addI, loop br (not taken), halt — never reaches
  // the fall block.
  EXPECT_FALSE(R.ReachedCfm);
  EXPECT_EQ(R.InstrsFetched, 4u);
}

TEST(ExtraIterationsTest, StayPredictionRunsToIterationCap) {
  const HammockProgram H = buildHammock();
  FixedPredictor Predictor;
  Predictor.Directions[H.LoopBranchAddr] = true; // Stay in the loop.
  Predictor.Directions[H.BranchAddr] = false;    // Hammock via fall side.
  const sim::ExtraIterResult R = sim::walkExtraIterations(
      *H.Prog, Predictor, /*StayTargetAddr=*/H.HeadAddr,
      /*LoopBranchAddr=*/H.LoopBranchAddr, /*StayTaken=*/true,
      /*MaxIters=*/5, /*MaxInstrs=*/1000);
  EXPECT_FALSE(R.PredictedExit);
  EXPECT_EQ(R.Iterations, 5u);
  // Per iteration: ld, condBr, addI r4, addI r5, jmp, addI r1, loop br.
  EXPECT_EQ(R.InstrsFetched, 35u);
  EXPECT_TRUE(R.WrittenRegs.count(1)); // Induction variable.
  EXPECT_TRUE(R.WrittenRegs.count(4));
}

TEST(ExtraIterationsTest, ExitPredictionStopsFirstIteration) {
  const HammockProgram H = buildHammock();
  FixedPredictor Predictor;
  Predictor.Directions[H.LoopBranchAddr] = false; // Predicts loop exit.
  Predictor.Directions[H.BranchAddr] = false;
  const sim::ExtraIterResult R = sim::walkExtraIterations(
      *H.Prog, Predictor, H.HeadAddr, H.LoopBranchAddr, /*StayTaken=*/true,
      /*MaxIters=*/5, /*MaxInstrs=*/1000);
  EXPECT_TRUE(R.PredictedExit);
  EXPECT_EQ(R.Iterations, 1u);
}

TEST(ExtraIterationsTest, InstructionBudgetBoundsTheWalk) {
  const HammockProgram H = buildHammock();
  FixedPredictor Predictor;
  Predictor.Directions[H.LoopBranchAddr] = true;
  Predictor.Directions[H.BranchAddr] = false;
  const sim::ExtraIterResult R = sim::walkExtraIterations(
      *H.Prog, Predictor, H.HeadAddr, H.LoopBranchAddr, /*StayTaken=*/true,
      /*MaxIters=*/1000, /*MaxInstrs=*/13);
  EXPECT_FALSE(R.PredictedExit);
  EXPECT_LE(R.InstrsFetched, 13u);
  EXPECT_LT(R.Iterations, 1000u);
}
