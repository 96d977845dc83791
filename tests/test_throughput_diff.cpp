//===- tests/test_throughput_diff.cpp - Fast-path differential tests ----------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// The enforcement arm of the digest-identity contract (DESIGN.md "Fast
// paths & the digest-identity contract"): every throughput optimization —
// the predecoded step() dispatch, the block-batched Emulator::run() the
// profiler drives, and the correct-path recorder feeding the DmpCore
// replay — must be bit-identical to the preserved reference interpreter
// in every observable.  These tests drive the fast
// and reference paths over the shared hand-built test programs, all 17
// suite workloads, and 200 fuzz-generated recipes, and compare:
//
//   * every DynInstr field, in lockstep, instruction by instruction;
//   * final architectural state: all registers, memory fingerprint,
//     executed count, PC, halt flag, call depth;
//   * the decoded form itself: no straight-line run (RunLen) and no fused
//     group crosses a block leader or a control instruction, the bound
//     the profiler relies on to count each block entry;
//   * the recorded correct-path trace, its replayed SimStats encoding and
//     the retired FinalState when recorded by EmuMode::Fast vs
//     EmuMode::Reference, baseline and dpred-heavy (adversarial
//     annotations) alike.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "cfg/Analysis.h"
#include "check/Oracle.h"
#include "check/ProgramGen.h"
#include "profile/Emulator.h"
#include "profile/Profiler.h"
#include "serialize/ProfileIO.h"
#include "sim/DmpCore.h"
#include "sim/FinalState.h"
#include "workloads/SpecSuite.h"

#include <gtest/gtest.h>

using namespace dmp;
using namespace dmp::profile;

namespace {

/// Steps the decoded fast path and the reference interpreter in lockstep
/// over (\p P, \p Image) and asserts bit-identical DynInstr streams and
/// final architectural state.
void compareSteppers(const ir::Program &P, const std::vector<int64_t> &Image,
                     uint64_t MaxInstrs) {
  Emulator Fast(P, Image);
  Emulator Ref(P, Image);
  DynInstr DF, DR;
  while (Fast.executedCount() < MaxInstrs) {
    const bool FastAlive = Fast.step(DF);
    const bool RefAlive = Ref.stepReference(DR);
    ASSERT_EQ(FastAlive, RefAlive) << "liveness diverged at instruction "
                                   << Ref.executedCount();
    if (!FastAlive)
      break;
    ASSERT_EQ(DF.I, DR.I);
    ASSERT_EQ(DF.Addr, DR.Addr);
    ASSERT_EQ(DF.NextAddr, DR.NextAddr);
    ASSERT_EQ(DF.Taken, DR.Taken);
    ASSERT_EQ(DF.MemAddr, DR.MemAddr);
  }
  EXPECT_EQ(Fast.executedCount(), Ref.executedCount());
  EXPECT_EQ(Fast.isHalted(), Ref.isHalted());
  EXPECT_EQ(Fast.pc(), Ref.pc());
  EXPECT_EQ(Fast.callDepth(), Ref.callDepth());
  for (unsigned R = 0; R < ir::NumRegs; ++R)
    ASSERT_EQ(Fast.reg(static_cast<ir::Reg>(R)),
              Ref.reg(static_cast<ir::Reg>(R)))
        << "r" << R;
  EXPECT_EQ(Fast.memoryWords(), Ref.memoryWords());
  EXPECT_EQ(sim::fingerprintMemory(Fast), sim::fingerprintMemory(Ref));
}

/// Asserts Emulator::run(\p MaxInstrs) matches the equivalent step() loop
/// in final state — the block-batching must be invisible.
void compareRunVsStepLoop(const ir::Program &P,
                          const std::vector<int64_t> &Image,
                          uint64_t MaxInstrs) {
  Emulator Batched(P, Image);
  Batched.run(MaxInstrs);
  Emulator Stepped(P, Image);
  DynInstr D;
  while (Stepped.executedCount() < MaxInstrs && Stepped.step(D)) {
  }
  EXPECT_EQ(Batched.executedCount(), Stepped.executedCount());
  EXPECT_EQ(Batched.isHalted(), Stepped.isHalted());
  EXPECT_EQ(Batched.pc(), Stepped.pc());
  EXPECT_EQ(Batched.callDepth(), Stepped.callDepth());
  for (unsigned R = 0; R < ir::NumRegs; ++R)
    ASSERT_EQ(Batched.reg(static_cast<ir::Reg>(R)),
              Stepped.reg(static_cast<ir::Reg>(R)))
        << "r" << R;
  EXPECT_EQ(sim::fingerprintMemory(Batched), sim::fingerprintMemory(Stepped));
}

void compareAllPaths(const ir::Program &P, const std::vector<int64_t> &Image,
                     uint64_t MaxInstrs) {
  compareSteppers(P, Image, MaxInstrs);
  compareRunVsStepLoop(P, Image, MaxInstrs);
}

} // namespace

TEST(FastPathDiff, SimpleHammockLoop) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/4, /*Iters=*/64);
  compareAllPaths(*H.Prog, test::alternatingImage(64, 2), 1u << 20);
}

TEST(FastPathDiff, FreqHammockLoop) {
  auto H = test::buildFreqHammockLoop();
  compareAllPaths(*H.Prog, test::alternatingImage(8192, 3), 1u << 20);
}

TEST(FastPathDiff, DataLoop) {
  auto H = test::buildDataLoop();
  compareAllPaths(*H.Prog, test::alternatingImage(8192, 5), 1u << 20);
}

TEST(FastPathDiff, RetFuncLoop) {
  auto H = test::buildRetFuncLoop(/*Iters=*/64);
  compareAllPaths(*H.Prog, test::alternatingImage(64, 2), 1u << 20);
}

// Budgets that stop mid-program (including mid-straight-line-run, which is
// where the batched run() loop must cut a block short) and budgets past
// the halt point.
TEST(FastPathDiff, PartialBudgets) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/6, /*Iters=*/32);
  const auto Image = test::alternatingImage(64, 2);
  for (uint64_t Budget : {1ull, 2ull, 3ull, 7ull, 17ull, 100ull, 101ull,
                          333ull, 1000ull, 1ull << 30}) {
    compareSteppers(*H.Prog, Image, Budget);
    compareRunVsStepLoop(*H.Prog, Image, Budget);
  }
}

// Blocks entered by falling through, a call in the middle of a block, and
// fusable groups straddling leaders, cut at every early budget and at a
// few inside later iterations (mid-block, mid-callee, mid-loop).
TEST(FastPathDiff, FallThroughLeadersAndMidBlockCalls) {
  auto H = test::buildFallThroughCallLoop(/*Iters=*/40);
  const auto Image = test::alternatingImage(1024, 3);
  for (uint64_t Budget = 1; Budget <= 40; ++Budget)
    compareAllPaths(*H.Prog, Image, Budget);
  for (uint64_t Budget : {97ull, 250ull, 251ull, 252ull, 613ull, 1ull << 20})
    compareAllPaths(*H.Prog, Image, Budget);
  // run() resumed at arbitrary cut points ends where one call does.
  Emulator Chunked(*H.Prog, Image);
  for (uint64_t Budget = 1; !Chunked.isHalted(); Budget += 7)
    Chunked.run(Budget);
  Emulator Whole(*H.Prog, Image);
  Whole.run(1u << 20);
  EXPECT_EQ(Chunked.executedCount(), Whole.executedCount());
  EXPECT_EQ(sim::fingerprintMemory(Chunked), sim::fingerprintMemory(Whole));
  // The profiler counts each fall-through entry once per iteration.
  const cfg::ProgramAnalysis PA(*H.Prog);
  const ProfileData Prof = collectProfile(*H.Prog, PA, Image);
  for (const ir::BasicBlock *B : {H.BranchBlock, H.FallSide, H.Merge})
    EXPECT_EQ(Prof.Edges.blockExecCount(B->getStartAddr()), 40u)
        << B->getName();
  EXPECT_TRUE(Prof.Completed);
}

// All 17 suite workloads through both steppers and the batched run.
TEST(FastPathDiff, SpecSuiteWorkloads) {
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    SCOPED_TRACE(Spec.Name);
    const workloads::Workload W = workloads::buildBenchmark(Spec);
    const auto Image = W.buildImage(workloads::InputSetKind::Run);
    compareSteppers(*W.Prog, Image, 150'000);
    compareRunVsStepLoop(*W.Prog, Image, 150'000);
  }
}

// 200 fuzz-recipe seeds (the same generator the differential-oracle fuzz
// campaign draws from): every generated CFG shape must agree across the
// fast and reference paths.
TEST(FastPathDiff, FuzzRecipes200) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    const check::GenRecipe Recipe = check::randomRecipe(Seed);
    const check::GenProgram GP = check::materialize(Recipe);
    ASSERT_TRUE(GP.VerifyErrors.empty())
        << check::describeRecipe(Recipe) << ": " << GP.VerifyErrors.front();
    SCOPED_TRACE(check::describeRecipe(Recipe));
    compareSteppers(*GP.Prog, GP.Image, 40'000);
    compareRunVsStepLoop(*GP.Prog, GP.Image, 40'000);
  }
}

namespace {

/// Dispatch records one DecodedInstr::FuseOp covers.
uint32_t fusedGroupSize(uint8_t FuseOp) {
  switch (FuseOp) {
  case fuse::AddIXorAdd:
    return 3;
  case fuse::AddIXorAdd2:
    return 6;
  case fuse::AddIXor:
  case fuse::XorAdd:
  case fuse::AddAddI:
    return 2;
  default:
    return 1;
  }
}

/// Asserts that every straight-line run and fused group of \p P's decoded
/// form lies inside one block: no record after its first is a block leader
/// or a control instruction, and a run stops only at one of the two.
void expectRunsStayInBlocks(const ir::Program &P) {
  const DecodedProgram &DP = DecodedProgram::of(P);
  std::vector<bool> Leader(DP.size(), false);
  for (const auto &F : P.functions())
    for (const auto &B : F->blocks())
      if (B->instrCount() != 0)
        Leader[B->getStartAddr()] = true;
  const auto StopsRun = [&](uint32_t A) {
    return A >= DP.size() || Leader[A] || ir::isControlFlow(DP.at(A).Op);
  };
  for (uint32_t A = 0; A < DP.size(); ++A) {
    const DecodedInstr &D = DP.at(A);
    ASSERT_EQ(D.RunLen == 0, ir::isControlFlow(D.Op)) << "at " << A;
    for (uint32_t K = 1; K < D.RunLen; ++K)
      ASSERT_FALSE(StopsRun(A + K)) << "run at " << A << " crosses " << A + K;
    if (D.RunLen != 0) {
      ASSERT_TRUE(StopsRun(A + D.RunLen)) << "run at " << A << " stops early";
    }
    ASSERT_LE(fusedGroupSize(D.FuseOp), std::max<uint32_t>(D.RunLen, 1))
        << "fused group at " << A << " leaves its run";
  }
}

} // namespace

TEST(DecodedProgramRuns, StopAtLeadersAndControlFlow) {
  expectRunsStayInBlocks(*test::buildFallThroughCallLoop().Prog);
  expectRunsStayInBlocks(*test::buildSimpleHammockLoop().Prog);
  expectRunsStayInBlocks(*test::buildRetFuncLoop().Prog);
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    SCOPED_TRACE(Spec.Name);
    expectRunsStayInBlocks(*workloads::buildBenchmark(Spec).Prog);
  }
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    SCOPED_TRACE(Seed);
    expectRunsStayInBlocks(
        *check::materialize(check::randomRecipe(Seed)).Prog);
  }
}

namespace {

/// Records the correct path twice — fed by the fast emulator and by the
/// reference interpreter — and asserts byte-identical traces, identical
/// retired state, and byte-identical SimStats encodings (the digest the
/// artifact cache and `dmpc` hash) of their replays.
void compareEmuModes(const ir::Program &P, const core::DivergeMap *Diverge,
                     const sim::SimConfig &Cfg,
                     const std::vector<int64_t> &Image) {
  sim::FinalState FastState, RefState;
  const sim::CorrectPathTrace FastTrace =
      sim::recordCorrectPath(P, Image, Cfg, &FastState, sim::EmuMode::Fast);
  const sim::CorrectPathTrace RefTrace = sim::recordCorrectPath(
      P, Image, Cfg, &RefState, sim::EmuMode::Reference);
  EXPECT_EQ(serialize::encodeCorrectPathTrace(FastTrace),
            serialize::encodeCorrectPathTrace(RefTrace));

  const sim::SimStats FastStats = sim::DmpCore(P, Diverge, Cfg).run(FastTrace);
  const sim::SimStats RefStats = sim::DmpCore(P, Diverge, Cfg).run(RefTrace);
  EXPECT_EQ(serialize::encodeSimStats(FastStats),
            serialize::encodeSimStats(RefStats));
  EXPECT_EQ(FastState.Regs, RefState.Regs);
  EXPECT_EQ(FastState.MemoryFingerprint, RefState.MemoryFingerprint);
  EXPECT_EQ(FastState.RetiredInstrs, RefState.RetiredInstrs);
  EXPECT_EQ(FastState.Halted, RefState.Halted);
  ASSERT_EQ(FastState.Stores.size(), RefState.Stores.size());
  for (size_t I = 0; I < FastState.Stores.size(); ++I)
    ASSERT_TRUE(FastState.Stores[I] == RefState.Stores[I]) << "store " << I;
}

} // namespace

TEST(FastPathDiff, SimEmuModeBaselineWorkloads) {
  for (const char *Name : {"mcf", "go", "gcc"}) {
    SCOPED_TRACE(Name);
    const workloads::Workload W = workloads::buildByName(Name);
    sim::SimConfig Cfg;
    Cfg.MaxInstrs = 100'000;
    compareEmuModes(*W.Prog, nullptr,
                    Cfg, W.buildImage(workloads::InputSetKind::Run));
  }
}

// The dpred machinery exercised hard: every branch adversarially annotated,
// DMP enabled, fast and reference feeds must still collapse to one digest.
TEST(FastPathDiff, SimEmuModeAdversarialDpred) {
  auto H = test::buildFreqHammockLoop();
  const cfg::ProgramAnalysis PA(*H.Prog);
  const core::DivergeMap Map = check::adversarialAnnotations(PA);
  sim::SimConfig Cfg;
  Cfg.EnableDmp = true;
  Cfg.MaxInstrs = 200'000;
  compareEmuModes(*H.Prog, &Map, Cfg, test::alternatingImage(8192, 3));
}
