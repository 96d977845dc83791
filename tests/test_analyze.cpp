//===- tests/test_analyze.cpp - Static checker tests --------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Tests for src/analyze: the diagnostics engine (rendering, severity
// registry, sink accounting), each check against targeted
// corruptions that must yield their specific stable code, the Status
// semantics of lintProgram/lintAll, and a golden file pinning the exact
// text rendering of a deterministic corrupt scenario.
//
// Corrupt programs are produced by building a valid program and then
// mutating instruction fields in place: finalize() freezes storage, so
// field edits keep the flat tables consistent while breaking exactly the
// invariant under test.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "analyze/Analyze.h"
#include "cfg/Analysis.h"
#include "core/AnnotationIO.h"
#include "profile/Profiler.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace dmp;
using analyze::DiagCode;
using analyze::DiagLocation;
using analyze::DiagnosticSink;
using analyze::Severity;

namespace {

std::string goldenPath(const std::string &Name) {
  return std::string(DMP_TEST_GOLDEN_DIR) + "/" + Name;
}

void compareToGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = goldenPath(Name);
  if (std::getenv("DMP_UPDATE_GOLDEN")) {
    std::ofstream Out(Path, std::ios::trunc);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    GTEST_LOG_(INFO) << "updated golden file " << Path;
    return;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path
                         << " (regenerate with DMP_UPDATE_GOLDEN=1)";
  std::stringstream Buf;
  Buf << In.rdbuf();
  EXPECT_EQ(Buf.str(), Actual)
      << "output of " << Name
      << " drifted; if intentional, regenerate with DMP_UPDATE_GOLDEN=1 "
         "and review the diff";
}

/// Runs lintAll with whichever artifacts are given.
Status lintWith(const ir::Program &P, const core::DivergeMap *Map,
                const cfg::EdgeProfile *Profile, DiagnosticSink &Sink) {
  const cfg::ProgramAnalysis PA(P);
  analyze::AnalysisInput Input;
  Input.P = &P;
  Input.PA = &PA;
  Input.Annotations = Map;
  Input.Profile = Profile;
  return analyze::lintAll(Input, &Sink);
}

core::DivergeAnnotation hammockAnn(core::DivergeKind Kind, uint32_t CfmAddr,
                                   double Prob) {
  core::DivergeAnnotation Ann;
  Ann.Kind = Kind;
  Ann.Cfms.push_back(core::CfmPoint::atAddress(CfmAddr, Prob));
  return Ann;
}

} // namespace

//===----------------------------------------------------------------------===//
// Diagnostics engine
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, TextRendering) {
  DiagnosticSink Sink;
  analyze::Diagnostic &D =
      Sink.report(DiagCode::CfmNotPostDominator,
                  DiagLocation::inBlock("main", "merge", 17), "message here");
  EXPECT_EQ(D.renderText(), "error[CFM01] main:merge@17: message here");
  D.Notes.push_back("a supporting detail");
  EXPECT_EQ(D.renderText(), "error[CFM01] main:merge@17: message here\n"
                            "  note: a supporting detail");
}

TEST(DiagnosticsTest, ProgramScopeRendersDashes) {
  DiagnosticSink Sink;
  const analyze::Diagnostic &D = Sink.report(
      DiagCode::AnnBranchAddrOutOfRange, DiagLocation::program(), "gone");
  EXPECT_EQ(D.renderText(), "error[ANN01] -: gone");
}

TEST(DiagnosticsTest, SeverityRegistry) {
  using analyze::diagCodeSeverity;
  EXPECT_EQ(diagCodeSeverity(DiagCode::IrWriteToZeroReg), Severity::Error);
  EXPECT_EQ(diagCodeSeverity(DiagCode::IrUnreachableBlock), Severity::Warning);
  EXPECT_EQ(diagCodeSeverity(DiagCode::IrMaybeUndefRead), Severity::Warning);
  EXPECT_EQ(diagCodeSeverity(DiagCode::CfmNotPostDominator), Severity::Error);
  EXPECT_EQ(diagCodeSeverity(DiagCode::CfmOneSidedMerge), Severity::Warning);
  EXPECT_EQ(diagCodeSeverity(DiagCode::AnnDuplicateEntry), Severity::Warning);
  EXPECT_EQ(diagCodeSeverity(DiagCode::ProfFlowNotConserved), Severity::Error);
  EXPECT_EQ(diagCodeSeverity(DiagCode::ProfAnnotatedNeverExecuted),
            Severity::Warning);
}

TEST(DiagnosticsTest, SinkAccounting) {
  DiagnosticSink Sink;
  EXPECT_TRUE(Sink.empty());
  EXPECT_EQ(Sink.summaryLine(), "clean");
  Sink.report(DiagCode::IrEmptyBlock, DiagLocation::program(), "e1");
  Sink.report(DiagCode::IrEmptyBlock, DiagLocation::program(), "e2");
  Sink.report(DiagCode::IrUnreachableBlock, DiagLocation::program(), "w1");
  EXPECT_EQ(Sink.errorCount(), 2u);
  EXPECT_EQ(Sink.warningCount(), 1u);
  EXPECT_TRUE(Sink.has(DiagCode::IrEmptyBlock));
  EXPECT_FALSE(Sink.has(DiagCode::IrNoHalt));
  EXPECT_EQ(Sink.summaryLine(), "2 errors, 1 warning");
}

//===----------------------------------------------------------------------===//
// IRLint
//===----------------------------------------------------------------------===//

TEST(IRLintTest, CleanProgramsHaveNoErrors) {
  for (auto Build : {test::buildSimpleHammockLoop, test::buildFreqHammockLoop,
                     test::buildDataLoop}) {
    const test::ProgramHandles H = Build(4, 64);
    DiagnosticSink Sink;
    EXPECT_TRUE(analyze::lintProgram(*H.Prog, &Sink).ok());
    EXPECT_EQ(Sink.errorCount(), 0u) << Sink.renderText();
  }
}

TEST(IRLintTest, NotFinalized) {
  ir::Program P("unfinalized");
  ir::Function *F = P.createFunction("main");
  ir::IRBuilder B(P);
  B.setInsertPoint(F->createBlock("entry"));
  B.halt();
  DiagnosticSink Sink;
  EXPECT_FALSE(analyze::lintProgram(P, &Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::IrNotFinalized));
}

TEST(IRLintTest, WriteToZeroRegister) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  // Merge begins with "addI r1, r1, 1"; retarget the write at r0.
  H.Merge->instructions().front().Dst = ir::RegZero;
  DiagnosticSink Sink;
  EXPECT_FALSE(analyze::lintProgram(*H.Prog, &Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::IrWriteToZeroReg)) << Sink.renderText();
}

TEST(IRLintTest, RegisterOutOfRange) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  H.Merge->instructions().front().Src1 = static_cast<ir::Reg>(ir::NumRegs);
  DiagnosticSink Sink;
  EXPECT_FALSE(analyze::lintProgram(*H.Prog, &Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::IrRegOutOfRange)) << Sink.renderText();
}

TEST(IRLintTest, TerminatorMidBlock) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  ir::Instruction &First = H.FallSide->instructions().front();
  First.Op = ir::Opcode::Jmp;
  First.Target = H.Merge;
  DiagnosticSink Sink;
  EXPECT_FALSE(analyze::lintProgram(*H.Prog, &Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::IrTerminatorMidBlock)) << Sink.renderText();
}

TEST(IRLintTest, UnreachableBlockIsWarning) {
  ir::Program P("orphan");
  ir::Function *F = P.createFunction("main");
  ir::IRBuilder B(P);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Orphan = F->createBlock("orphan");
  ir::BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.loadImm(1, 7);
  B.jmp(Exit);
  B.setInsertPoint(Orphan);
  B.addI(2, 1, 1);
  B.jmp(Exit);
  B.setInsertPoint(Exit);
  B.halt();
  P.finalize();
  DiagnosticSink Sink;
  EXPECT_TRUE(analyze::lintProgram(P, &Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::IrUnreachableBlock)) << Sink.renderText();
  EXPECT_EQ(Sink.errorCount(), 0u);
}

TEST(IRLintTest, MaybeUndefReadIsWarning) {
  ir::Program P("undef-read");
  ir::Function *F = P.createFunction("main");
  ir::IRBuilder B(P);
  B.setInsertPoint(F->createBlock("entry"));
  B.add(4, 5, 5); // r5 is never written anywhere.
  B.halt();
  P.finalize();
  DiagnosticSink Sink;
  EXPECT_TRUE(analyze::lintProgram(P, &Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::IrMaybeUndefRead)) << Sink.renderText();
}

//===----------------------------------------------------------------------===//
// AnnotationConsistency
//===----------------------------------------------------------------------===//

TEST(AnnotationConsistencyTest, BranchAddrOutOfRange) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  core::DivergeMap Map;
  Map.add(999999, hammockAnn(core::DivergeKind::SimpleHammock,
                             H.Merge->getStartAddr(), 1.0));
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(*H.Prog, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::AnnBranchAddrOutOfRange))
      << Sink.renderText();
}

TEST(AnnotationConsistencyTest, AnnotatedAddrNotCondBr) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  core::DivergeMap Map; // Address 0 is the entry loadImm.
  Map.add(0, hammockAnn(core::DivergeKind::SimpleHammock,
                        H.Merge->getStartAddr(), 1.0));
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(*H.Prog, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::AnnNotCondBr)) << Sink.renderText();
}

TEST(AnnotationConsistencyTest, CfmNotBlockStart) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  core::DivergeMap Map;
  Map.add(H.BranchAddr, hammockAnn(core::DivergeKind::SimpleHammock,
                                   H.Merge->getStartAddr() + 1, 1.0));
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(*H.Prog, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::AnnCfmNotBlockStart)) << Sink.renderText();
}

TEST(AnnotationConsistencyTest, AnnotationOnDeadBlock) {
  // entry jumps straight to exit; orphan holds an unreachable branch.
  ir::Program P("dead-branch");
  ir::Function *F = P.createFunction("main");
  ir::IRBuilder B(P);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Orphan = F->createBlock("orphan");
  ir::BasicBlock *OrphanFall = F->createBlock("orphanfall");
  ir::BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.loadImm(1, 0);
  B.jmp(Exit);
  B.setInsertPoint(Orphan);
  B.load(3, 1, 0);
  B.condBr(ir::BrCond::Ne, 3, 0, Exit);
  B.setInsertPoint(OrphanFall);
  B.addI(4, 1, 1);
  // Falls through to Exit.
  B.setInsertPoint(Exit);
  B.halt();
  P.finalize();

  const uint32_t DeadBranchAddr = Orphan->instructions().back().Addr;
  core::DivergeMap Map;
  Map.add(DeadBranchAddr, hammockAnn(core::DivergeKind::SimpleHammock,
                                     Exit->getStartAddr(), 1.0));
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(P, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::AnnDeadBlock)) << Sink.renderText();
}

TEST(AnnotationConsistencyTest, DuplicateSerializedEntries) {
  DiagnosticSink Sink;
  analyze::lintDivergeMapText(
      "branch 12 kind=simple always=1\nbranch 12 kind=loop always=0\n", Sink);
  EXPECT_TRUE(Sink.has(DiagCode::AnnDuplicateEntry));
  EXPECT_EQ(Sink.warningCount(), 1u);
  EXPECT_EQ(Sink.errorCount(), 0u);
}

// An address beyond 32 bits is not branch 12 wrapped around: it is
// parseDivergeMap's Corrupt, so the lint reports no duplicate.
TEST(AnnotationConsistencyTest, OversizedAddressIsNotADuplicate) {
  DiagnosticSink Sink;
  analyze::lintDivergeMapText(
      "branch 12 kind=simple always=1\nbranch 4294967308 kind=simple\n",
      Sink);
  EXPECT_FALSE(Sink.has(DiagCode::AnnDuplicateEntry)) << Sink.renderText();
}

TEST(AnnotationConsistencyTest, SerializedRealMapHasNoDuplicates) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  core::DivergeMap Map;
  Map.add(H.BranchAddr, hammockAnn(core::DivergeKind::SimpleHammock,
                                   H.Merge->getStartAddr(), 1.0));
  DiagnosticSink Sink;
  analyze::lintDivergeMapText(core::serializeDivergeMap(Map), Sink);
  EXPECT_FALSE(Sink.has(DiagCode::AnnDuplicateEntry)) << Sink.renderText();
}

//===----------------------------------------------------------------------===//
// CfmLegality
//===----------------------------------------------------------------------===//

TEST(CfmLegalityTest, ExactCfmMustPostDominate) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  // The taken side does not post-dominate the hammock branch, yet the
  // annotation claims an exact (probability 1) merge there.
  core::DivergeMap Map;
  Map.add(H.BranchAddr, hammockAnn(core::DivergeKind::NestedHammock,
                                   H.TakenSide->getStartAddr(), 1.0));
  DiagnosticSink Sink;
  const Status S = lintWith(*H.Prog, &Map, nullptr, Sink);
  EXPECT_FALSE(S.ok());
  EXPECT_TRUE(Sink.has(DiagCode::CfmNotPostDominator)) << Sink.renderText();
  EXPECT_NE(S.toString().find("CFM01"), std::string::npos) << S.toString();
}

TEST(CfmLegalityTest, ApproximateKindExemptFromPostDominance) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  // Same merge point, but a frequently-hammock claiming 0.7: approximate
  // CFMs are legal without post-dominance (Section 3.1's Alg-freq).
  core::DivergeMap Map;
  Map.add(H.BranchAddr, hammockAnn(core::DivergeKind::FreqHammock,
                                   H.TakenSide->getStartAddr(), 0.7));
  DiagnosticSink Sink;
  EXPECT_TRUE(lintWith(*H.Prog, &Map, nullptr, Sink).ok())
      << Sink.renderText();
  EXPECT_FALSE(Sink.has(DiagCode::CfmNotPostDominator));
}

TEST(CfmLegalityTest, SimpleHammockShape) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  // Claiming the loop exit as a *simple* hammock's CFM: the region between
  // branch and exit contains the loop back-branch, so it is not two
  // straight-line sides.
  const ir::BasicBlock *Exit = nullptr;
  for (const auto &Blk : H.Prog->getMain()->blocks())
    if (Blk->getName() == "exit")
      Exit = Blk.get();
  ASSERT_NE(Exit, nullptr);
  core::DivergeMap Map;
  Map.add(H.BranchAddr, hammockAnn(core::DivergeKind::SimpleHammock,
                                   Exit->getStartAddr(), 1.0));
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(*H.Prog, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::CfmNotSimpleHammock)) << Sink.renderText();
}

TEST(CfmLegalityTest, LoopHeaderMustHeadALoop) {
  const test::ProgramHandles H = test::buildDataLoop();
  core::DivergeAnnotation Ann;
  Ann.Kind = core::DivergeKind::Loop;
  Ann.LoopHeaderAddr = 0; // The entry block heads no loop.
  Ann.LoopStayTaken = true;
  core::DivergeMap Map;
  Map.add(H.BranchAddr, Ann);
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(*H.Prog, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::CfmLoopHeaderNotLoop)) << Sink.renderText();
}

TEST(CfmLegalityTest, LoopStayDirectionMustMatchCfg) {
  const test::ProgramHandles H = test::buildDataLoop();
  // buildDataLoop's inner branch stays in the loop when taken; claim the
  // opposite.
  core::DivergeAnnotation Ann;
  Ann.Kind = core::DivergeKind::Loop;
  Ann.LoopHeaderAddr = H.BranchBlock->getStartAddr();
  Ann.LoopStayTaken = false;
  core::DivergeMap Map;
  Map.add(H.BranchAddr, Ann);
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(*H.Prog, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::CfmLoopBranchNotExit)) << Sink.renderText();
}

TEST(CfmLegalityTest, CorrectLoopAnnotationIsClean) {
  const test::ProgramHandles H = test::buildDataLoop();
  core::DivergeAnnotation Ann;
  Ann.Kind = core::DivergeKind::Loop;
  Ann.LoopHeaderAddr = H.BranchBlock->getStartAddr();
  Ann.LoopStayTaken = true;
  core::DivergeMap Map;
  Map.add(H.BranchAddr, Ann);
  DiagnosticSink Sink;
  EXPECT_TRUE(lintWith(*H.Prog, &Map, nullptr, Sink).ok())
      << Sink.renderText();
}

TEST(CfmLegalityTest, DuplicateCfmPoint) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  core::DivergeAnnotation Ann = hammockAnn(core::DivergeKind::SimpleHammock,
                                           H.Merge->getStartAddr(), 0.5);
  Ann.Cfms.push_back(core::CfmPoint::atAddress(H.Merge->getStartAddr(), 0.5));
  core::DivergeMap Map;
  Map.add(H.BranchAddr, Ann);
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(*H.Prog, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::CfmDuplicatePoint)) << Sink.renderText();
}

TEST(CfmLegalityTest, MergeProbOutsideRange) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  core::DivergeMap Map;
  Map.add(H.BranchAddr, hammockAnn(core::DivergeKind::SimpleHammock,
                                   H.Merge->getStartAddr(), 1.5));
  DiagnosticSink Sink;
  EXPECT_FALSE(lintWith(*H.Prog, &Map, nullptr, Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::CfmMergeProbRange)) << Sink.renderText();
}

TEST(CfmLegalityTest, MergeProbSumIsWarning) {
  const test::ProgramHandles H = test::buildFreqHammockLoop();
  ASSERT_NE(H.End, nullptr);
  core::DivergeAnnotation Ann =
      hammockAnn(core::DivergeKind::FreqHammock, H.Merge->getStartAddr(), 0.8);
  Ann.Cfms.push_back(core::CfmPoint::atAddress(H.End->getStartAddr(), 0.8));
  core::DivergeMap Map;
  Map.add(H.BranchAddr, Ann);
  DiagnosticSink Sink;
  EXPECT_TRUE(lintWith(*H.Prog, &Map, nullptr, Sink).ok())
      << Sink.renderText();
  EXPECT_TRUE(Sink.has(DiagCode::CfmMergeProbSum)) << Sink.renderText();
}

//===----------------------------------------------------------------------===//
// ProfileSanity
//===----------------------------------------------------------------------===//

namespace {

/// A real profile of the simple-hammock loop, plus everything needed to
/// corrupt it.
struct ProfiledHammock {
  test::ProgramHandles H;
  std::unique_ptr<cfg::ProgramAnalysis> PA;
  cfg::EdgeProfile Edges;

  ProfiledHammock() : H(test::buildSimpleHammockLoop()) {
    PA = std::make_unique<cfg::ProgramAnalysis>(*H.Prog);
    const std::vector<int64_t> Image = test::alternatingImage(4096, 3);
    Edges = profile::collectProfile(*H.Prog, *PA, Image).Edges;
  }

  Status lint(DiagnosticSink &Sink, const core::DivergeMap *Map = nullptr) {
    analyze::AnalysisInput Input;
    Input.P = H.Prog.get();
    Input.PA = PA.get();
    Input.Profile = &Edges;
    Input.Annotations = Map;
    return analyze::lintAll(Input, &Sink);
  }
};

} // namespace

TEST(ProfileSanityTest, RealProfileIsClean) {
  ProfiledHammock P;
  DiagnosticSink Sink;
  EXPECT_TRUE(P.lint(Sink).ok()) << Sink.renderText();
  EXPECT_FALSE(Sink.has(DiagCode::ProfFlowNotConserved));
  EXPECT_FALSE(Sink.has(DiagCode::ProfBranchTotalsMismatch));
  EXPECT_FALSE(Sink.has(DiagCode::ProfUnknownAddr));
}

TEST(ProfileSanityTest, FlowNotConserved) {
  ProfiledHammock P;
  const uint32_t MergeStart = P.H.Merge->getStartAddr();
  P.Edges.setBlockExecCount(MergeStart,
                            P.Edges.blockExecCount(MergeStart) + 5000);
  DiagnosticSink Sink;
  EXPECT_FALSE(P.lint(Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::ProfFlowNotConserved)) << Sink.renderText();
}

TEST(ProfileSanityTest, BranchTotalsMismatch) {
  ProfiledHammock P;
  cfg::BranchCounts Counts = P.Edges.branchCounts(P.H.BranchAddr);
  Counts.Taken += 5000;
  P.Edges.setBranchCounts(P.H.BranchAddr, Counts);
  DiagnosticSink Sink;
  EXPECT_FALSE(P.lint(Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::ProfBranchTotalsMismatch))
      << Sink.renderText();
}

TEST(ProfileSanityTest, UnknownProfiledAddr) {
  ProfiledHammock P;
  P.Edges.setBlockExecCount(P.H.Merge->getStartAddr() + 1, 10);
  DiagnosticSink Sink;
  EXPECT_FALSE(P.lint(Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::ProfUnknownAddr)) << Sink.renderText();
}

TEST(ProfileSanityTest, AnnotatedBranchNeverExecutedIsWarning) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  const cfg::EdgeProfile Empty; // Nothing ever executed.
  core::DivergeMap Map;
  Map.add(H.BranchAddr, hammockAnn(core::DivergeKind::SimpleHammock,
                                   H.Merge->getStartAddr(), 1.0));
  DiagnosticSink Sink;
  EXPECT_TRUE(lintWith(*H.Prog, &Map, &Empty, Sink).ok())
      << Sink.renderText();
  EXPECT_TRUE(Sink.has(DiagCode::ProfAnnotatedNeverExecuted))
      << Sink.renderText();
}

//===----------------------------------------------------------------------===//
// lintProgram / lintAll Status semantics
//===----------------------------------------------------------------------===//

TEST(LintStatusTest, ErrorStatusCarriesOriginAndFirstFinding) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  H.Merge->instructions().front().Dst = ir::RegZero;
  const Status S = analyze::lintProgram(*H.Prog);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.toString().find("analyze"), std::string::npos) << S.toString();
  EXPECT_NE(S.toString().find("IR06"), std::string::npos) << S.toString();
}

TEST(LintStatusTest, IrLintErrorsShortCircuitLaterPasses) {
  ir::Program P("unfinalized");
  ir::Function *F = P.createFunction("main");
  ir::IRBuilder B(P);
  B.setInsertPoint(F->createBlock("entry"));
  B.halt();
  // No finalize(): checkIR's errors must stop lintAll before the
  // annotation checks touch (and assert on) the unfinalized program.
  core::DivergeMap Map;
  Map.add(999999, core::DivergeAnnotation());
  analyze::AnalysisInput Input;
  Input.P = &P;
  Input.Annotations = &Map;
  DiagnosticSink Sink;
  EXPECT_FALSE(analyze::lintAll(Input, &Sink).ok());
  EXPECT_TRUE(Sink.has(DiagCode::IrNotFinalized));
  EXPECT_FALSE(Sink.has(DiagCode::AnnBranchAddrOutOfRange));
}

TEST(LintStatusTest, WarningsDoNotGate) {
  ir::Program P("warn-only");
  ir::Function *F = P.createFunction("main");
  ir::IRBuilder B(P);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Orphan = F->createBlock("orphan");
  ir::BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.loadImm(1, 7);
  B.jmp(Exit);
  B.setInsertPoint(Orphan);
  B.addI(2, 1, 1);
  B.jmp(Exit);
  B.setInsertPoint(Exit);
  B.halt();
  P.finalize();
  DiagnosticSink Sink;
  EXPECT_TRUE(analyze::lintProgram(P, &Sink).ok());
  EXPECT_GE(Sink.warningCount(), 1u);
  EXPECT_EQ(Sink.errorCount(), 0u);
}

/// lintProgram (which replaced the removed ir::Verifier shim) must report
/// error-severity findings as a non-ok Status with rendered IR codes.
TEST(LintStatusTest, LintProgramReportsErrors) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  H.Merge->instructions().front().Dst = ir::RegZero;
  analyze::DiagnosticSink Sink;
  EXPECT_FALSE(analyze::lintProgram(*H.Prog, &Sink).ok());
  ASSERT_GE(Sink.errorCount(), 1u);
  EXPECT_NE(Sink.renderText().find("IR06"), std::string::npos)
      << Sink.renderText();
}

//===----------------------------------------------------------------------===//
// Golden rendering
//===----------------------------------------------------------------------===//

namespace {

/// A deterministic corrupt scenario exercising one finding per check:
/// an out-of-range annotation (ANN01), a mid-instruction CFM (ANN04), an
/// exact CFM that does not post-dominate (CFM01), and an out-of-range merge
/// probability (CFM08).
DiagnosticSink lintCorruptScenario() {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  core::DivergeMap Map;
  Map.add(999999, hammockAnn(core::DivergeKind::SimpleHammock, 0, 1.0));
  Map.add(H.BranchAddr, [&] {
    core::DivergeAnnotation Ann = hammockAnn(
        core::DivergeKind::NestedHammock, H.TakenSide->getStartAddr(), 1.0);
    Ann.Cfms.push_back(
        core::CfmPoint::atAddress(H.Merge->getStartAddr() + 1, 1.5));
    return Ann;
  }());
  DiagnosticSink Sink;
  lintWith(*H.Prog, &Map, nullptr, Sink);
  return Sink;
}

} // namespace

TEST(GoldenDiagnosticsTest, TextRendering) {
  compareToGolden("analyze_diagnostics.txt", lintCorruptScenario().renderText());
}

