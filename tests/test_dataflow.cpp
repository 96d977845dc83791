//===- tests/test_dataflow.cpp - Dataflow framework tests -------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// The static half of the dataflow test tier (TESTING.md "Dataflow"):
// solver unit tests on hand-built programs, property tests pitting the
// bitset fixpoint against a brute-force per-path evaluator over
// check::ProgramGen's random CFGs, convergence on irreducible and
// loop-heavy shapes, and the dataflow-backed diagnostics (DF01, the IR15
// whole-program generalization) through the full analyze pipeline.  The
// dynamic half — emulator ground truth — lives in
// test_dataflow_soundness.cpp.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "analyze/Analyze.h"
#include "check/ProgramGen.h"
#include "core/AnnotationIO.h"
#include "dataflow/Dataflow.h"
#include "harness/CellRun.h"
#include "ir/IRBuilder.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

using namespace dmp;
using dataflow::AllRegs;
using dataflow::RegSet;
using dataflow::regBit;
using dataflow::ZeroRegBit;

namespace {

//===----------------------------------------------------------------------===//
// Brute-force per-path oracles
//
// Deliberately a different algorithm from the solver: per-register DFS over
// the block graph instead of bitset transfer functions iterated in RPO.
// Each block is classified for one register (use-before-def, def, or
// transparent) and the property becomes plain graph reachability.
//===----------------------------------------------------------------------===//

enum class BlockUse { UseFirst, DefFirst, Transparent };

BlockUse classifyBlock(const ir::BasicBlock *B, unsigned R) {
  for (const ir::Instruction &Inst : B->instructions()) {
    if (dataflow::instrUses(Inst) & regBit(R))
      return BlockUse::UseFirst;
    if (dataflow::instrDefs(Inst) & regBit(R))
      return BlockUse::DefFirst;
  }
  return BlockUse::Transparent;
}

bool blockDefines(const ir::BasicBlock *B, unsigned R) {
  for (const ir::Instruction &Inst : B->instructions())
    if (dataflow::instrDefs(Inst) & regBit(R))
      return true;
  return false;
}

/// Exists a path from the *start* of \p B on which r is read before any
/// write?  (The liveness LiveIn property, calls transparent.)
bool pathLiveIn(const ir::BasicBlock *B, unsigned R,
                std::set<const ir::BasicBlock *> &Visited) {
  if (!Visited.insert(B).second)
    return false; // A cycle of transparent blocks never reads r.
  switch (classifyBlock(B, R)) {
  case BlockUse::UseFirst:
    return true;
  case BlockUse::DefFirst:
    return false;
  case BlockUse::Transparent:
    break;
  }
  for (const ir::BasicBlock *S : B->successors())
    if (pathLiveIn(S, R, Visited))
      return true;
  return false;
}

/// Set of reachable blocks the entry can reach with r still unwritten when
/// the block *starts* (the complement of the definite-assignment AssignedIn
/// property, empty entry set).
std::set<const ir::BasicBlock *>
blocksReachableUnassigned(const cfg::CFGView &View, unsigned R) {
  std::set<const ir::BasicBlock *> RU;
  if (View.reversePostorder().empty())
    return RU;
  std::vector<const ir::BasicBlock *> Work{View.reversePostorder().front()};
  RU.insert(Work.back());
  while (!Work.empty()) {
    const ir::BasicBlock *B = Work.back();
    Work.pop_back();
    if (blockDefines(B, R))
      continue; // Every path through B writes r somewhere inside it.
    for (const ir::BasicBlock *S : B->successors())
      if (RU.insert(S).second)
        Work.push_back(S);
  }
  return RU;
}

void expectLivenessMatchesBruteForce(const cfg::CFGView &View) {
  const dataflow::LivenessResult L =
      dataflow::computeLiveness(View, /*RetLiveOut=*/0);
  for (const ir::BasicBlock *B : View.reversePostorder())
    for (unsigned R = 1; R < ir::NumRegs; ++R) {
      std::set<const ir::BasicBlock *> Visited;
      const bool Brute = pathLiveIn(B, R, Visited);
      const bool Solver = (L.LiveIn[B->getId()] & regBit(R)) != 0;
      ASSERT_EQ(Solver, Brute)
          << "liveness mismatch: r" << R << " at block '" << B->getName()
          << "' of " << View.getFunction().getName();
    }
}

void expectDefiniteAssignMatchesBruteForce(const cfg::CFGView &View) {
  const dataflow::DefiniteAssignResult D =
      dataflow::computeDefiniteAssign(View, /*EntryAssigned=*/0);
  for (unsigned R = 1; R < ir::NumRegs; ++R) {
    const std::set<const ir::BasicBlock *> RU =
        blocksReachableUnassigned(View, R);
    for (const ir::BasicBlock *B : View.reversePostorder()) {
      const bool BruteAssigned = RU.count(B) == 0;
      const bool Solver = (D.AssignedIn[B->getId()] & regBit(R)) != 0;
      ASSERT_EQ(Solver, BruteAssigned)
          << "definite-assignment mismatch: r" << R << " at block '"
          << B->getName() << "' of " << View.getFunction().getName();
    }
  }
}

//===----------------------------------------------------------------------===//
// Hand-built shapes
//===----------------------------------------------------------------------===//

/// entry -> {A, B};  A <-> B (two-entry loop: irreducible);  both -> exit.
std::unique_ptr<ir::Program> buildIrreducible() {
  auto P = std::make_unique<ir::Program>("irreducible");
  ir::Function *F = P->createFunction("main");
  ir::IRBuilder B(*P);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *A = F->createBlock("a");
  ir::BasicBlock *Bb = F->createBlock("b");
  ir::BasicBlock *Exit = F->createBlock("exit");

  // Layout order entry, a, b, exit gives every condBr a distinct
  // fallthrough: entry -> {b, a}, a -> {exit, b}, b -> {a, exit}.  The
  // a<->b cycle has two entries: irreducible.
  B.setInsertPoint(Entry);
  B.loadImm(1, 0);
  B.loadImm(2, 10);
  B.condBr(ir::BrCond::Ne, 1, 2, Bb);

  B.setInsertPoint(A);
  B.addI(1, 1, 1);
  B.condBr(ir::BrCond::Ge, 1, 2, Exit);

  B.setInsertPoint(Bb);
  B.addI(1, 1, 2);
  B.condBr(ir::BrCond::Lt, 1, 2, A);

  B.setInsertPoint(Exit);
  B.halt();
  P->finalize();
  return P;
}

/// main writes r5, calls f; f reads r5 (fine) and r7 (never written
/// anywhere: IR15 in the callee).
std::unique_ptr<ir::Program> buildCalleeUndefRead() {
  auto P = std::make_unique<ir::Program>("callee-undef");
  ir::Function *Main = P->createFunction("main");
  ir::Function *F = P->createFunction("f");
  ir::IRBuilder B(*P);

  ir::BasicBlock *ME = Main->createBlock("entry");
  B.setInsertPoint(ME);
  B.loadImm(5, 42);
  B.call(F);
  B.addI(6, 6, 1); // Uses f's result register.
  B.halt();

  ir::BasicBlock *FE = F->createBlock("entry");
  B.setInsertPoint(FE);
  B.addI(6, 5, 1); // r5 assigned by the caller: no warning.
  B.add(6, 6, 7);  // r7 never assigned on any path: IR15.
  B.ret();
  P->finalize();
  return P;
}

core::DivergeAnnotation simpleAnnotation(uint32_t CfmAddr) {
  core::DivergeAnnotation Ann;
  Ann.Kind = core::DivergeKind::SimpleHammock;
  Ann.Cfms.push_back(core::CfmPoint::atAddress(CfmAddr, 1.0));
  return Ann;
}

} // namespace

//===----------------------------------------------------------------------===//
// Solver unit tests
//===----------------------------------------------------------------------===//

TEST(DataflowSolverTest, SimpleHammockLivenessFacts) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  const ir::Function &F = *H.Prog->functions().front();
  const cfg::CFGView View(F);
  const dataflow::LivenessResult L = dataflow::computeLiveness(View, 0);

  // The loop bound r2 and index r1 are live at the loop header; the
  // condition register r3 is not (the header reloads it).
  const RegSet HeaderIn = L.LiveIn[H.BranchBlock->getId()];
  EXPECT_TRUE(HeaderIn & regBit(1));
  EXPECT_TRUE(HeaderIn & regBit(2));
  EXPECT_FALSE(HeaderIn & regBit(3));
  // Nothing is live after the halt-terminated exit block.
  for (const ir::BasicBlock *B : View.reversePostorder()) {
    const ir::Instruction *T = B->getTerminator();
    if (T != nullptr && T->Op == ir::Opcode::Halt) {
      EXPECT_EQ(L.LiveOut[B->getId()], 0u);
    }
  }
}

TEST(DataflowSolverTest, SimpleHammockDefiniteAssignFacts) {
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  const ir::Function &F = *H.Prog->functions().front();
  const cfg::CFGView View(F);
  const dataflow::DefiniteAssignResult D =
      dataflow::computeDefiniteAssign(View, 0);

  // The entry block writes r1/r2/r4 on the only path to the header.
  const RegSet HeaderIn = D.AssignedIn[H.BranchBlock->getId()];
  EXPECT_TRUE(HeaderIn & regBit(1));
  EXPECT_TRUE(HeaderIn & regBit(2));
  EXPECT_TRUE(HeaderIn & regBit(4));
  // A register nothing writes is assigned nowhere.
  for (const ir::BasicBlock *B : View.reversePostorder())
    EXPECT_FALSE(D.AssignedOut[B->getId()] & regBit(20));
}

TEST(DataflowSolverTest, RetLiveOutFlowsIntoRetBlocks) {
  const test::ProgramHandles H = test::buildRetFuncLoop();
  for (const auto &F : H.Prog->functions()) {
    if (F->getName() == "main")
      continue;
    const cfg::CFGView View(*F);
    const dataflow::LivenessResult Demand =
        dataflow::computeLiveness(View, regBit(9));
    const dataflow::LivenessResult NoDemand =
        dataflow::computeLiveness(View, 0);
    bool SawRet = false;
    for (const ir::BasicBlock *B : View.reversePostorder()) {
      const ir::Instruction *T = B->getTerminator();
      if (T == nullptr || T->Op != ir::Opcode::Ret)
        continue;
      SawRet = true;
      EXPECT_TRUE(Demand.LiveOut[B->getId()] & regBit(9));
      EXPECT_FALSE(NoDemand.LiveOut[B->getId()] & regBit(9));
    }
    EXPECT_TRUE(SawRet);
  }
}

TEST(DataflowSolverTest, BlockEffectsSummaries) {
  const test::ProgramHandles H = test::buildRetFuncLoop();
  for (const auto &F : H.Prog->functions()) {
    const cfg::CFGView View(*F);
    const std::vector<dataflow::BlockEffects> E =
        dataflow::computeBlockEffects(View);
    for (const ir::BasicBlock *B : View.reversePostorder()) {
      uint32_t Calls = 0, Stores = 0;
      bool Halt = false, Ret = false;
      for (const ir::Instruction &Inst : B->instructions()) {
        Calls += Inst.Op == ir::Opcode::Call;
        Stores += Inst.Op == ir::Opcode::Store;
        Halt |= Inst.Op == ir::Opcode::Halt;
        Ret |= Inst.Op == ir::Opcode::Ret;
      }
      EXPECT_EQ(E[B->getId()].Calls, Calls);
      EXPECT_EQ(E[B->getId()].Stores, Stores);
      EXPECT_EQ(E[B->getId()].HasHalt, Halt);
      EXPECT_EQ(E[B->getId()].HasRet, Ret);
      EXPECT_EQ(E[B->getId()].pure(), Calls == 0 && Stores == 0 && !Halt && !Ret);
    }
  }
}

//===----------------------------------------------------------------------===//
// Property tests vs the brute-force per-path evaluator
//===----------------------------------------------------------------------===//

TEST(DataflowPropertyTest, LivenessMatchesBruteForceOnRandomPrograms) {
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    const check::GenProgram G = check::materialize(check::randomRecipe(Seed));
    ASSERT_TRUE(G.VerifyErrors.empty());
    for (const auto &F : G.Prog->functions())
      expectLivenessMatchesBruteForce(cfg::CFGView(*F));
  }
}

TEST(DataflowPropertyTest, DefiniteAssignMatchesBruteForceOnRandomPrograms) {
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    const check::GenProgram G = check::materialize(check::randomRecipe(Seed));
    ASSERT_TRUE(G.VerifyErrors.empty());
    for (const auto &F : G.Prog->functions())
      expectDefiniteAssignMatchesBruteForce(cfg::CFGView(*F));
  }
}

TEST(DataflowPropertyTest, IrreducibleCfgConvergesAndMatchesBruteForce) {
  const std::unique_ptr<ir::Program> P = buildIrreducible();
  const ir::Function &F = *P->functions().front();
  const cfg::CFGView View(F);
  expectLivenessMatchesBruteForce(View);
  expectDefiniteAssignMatchesBruteForce(View);
  const dataflow::LivenessResult L = dataflow::computeLiveness(View, 0);
  EXPECT_LE(L.Rounds, View.blockCount() + 2);
}

TEST(DataflowPropertyTest, LoopHeavyRecipesConvergeQuickly) {
  // Recipes made of nothing but loops: the worst case for a forward
  // RPO sweep of a backward problem and vice versa.
  check::GenRecipe Recipe;
  Recipe.Seed = 99;
  Recipe.OuterIters = 8;
  for (unsigned I = 0; I < 8; ++I) {
    check::GenOp Op;
    Op.Kind = (I % 2) ? check::GenOpKind::ShortLoop
                      : check::GenOpKind::DataLoop;
    Op.A = 3;
    Op.B = 3;
    Op.C = static_cast<uint32_t>(17 * I + 1);
    Recipe.Ops.push_back(Op);
  }
  const check::GenProgram G = check::materialize(Recipe);
  ASSERT_TRUE(G.VerifyErrors.empty());
  for (const auto &F : G.Prog->functions()) {
    const cfg::CFGView View(*F);
    const dataflow::LivenessResult L = dataflow::computeLiveness(View, 0);
    const dataflow::DefiniteAssignResult D =
        dataflow::computeDefiniteAssign(View, 0);
    EXPECT_LE(L.Rounds, View.blockCount() + 2);
    EXPECT_LE(D.Rounds, View.blockCount() + 2);
    expectLivenessMatchesBruteForce(View);
    expectDefiniteAssignMatchesBruteForce(View);
  }
}

TEST(DataflowPropertyTest, ProgramDataflowIsDeterministic) {
  const check::GenProgram G = check::materialize(check::randomRecipe(7));
  ASSERT_TRUE(G.VerifyErrors.empty());
  const dataflow::ProgramDataflow A(*G.Prog);
  const dataflow::ProgramDataflow B(*G.Prog);
  ASSERT_EQ(A.interRounds(), B.interRounds());
  for (uint32_t Addr = 0; Addr < G.Prog->instrCount(); ++Addr) {
    ASSERT_EQ(A.assignedBefore(Addr), B.assignedBefore(Addr));
    ASSERT_EQ(A.liveAfter(Addr), B.liveAfter(Addr));
  }
}

TEST(DataflowPropertyTest, InterproceduralFixpointConverges) {
  for (uint64_t Seed = 0; Seed < 25; ++Seed) {
    const check::GenProgram G = check::materialize(check::randomRecipe(Seed));
    ASSERT_TRUE(G.VerifyErrors.empty());
    const dataflow::ProgramDataflow PD(*G.Prog);
    const unsigned NF =
        static_cast<unsigned>(G.Prog->functions().size());
    EXPECT_LE(PD.interRounds(), 32 * NF + 2);
    // Every instruction's claims respect the r0 invariants.
    // r0 is hardwired-zero, so every claim must treat it as assigned.
    // (It is *not* always live: liveness is may-read-before-write, and the
    // soundness checker masks r0 out of dead claims for the same reason.)
    for (uint32_t Addr = 0; Addr < G.Prog->instrCount(); ++Addr)
      EXPECT_TRUE(PD.assignedBefore(Addr) & ZeroRegBit);
  }
}

//===----------------------------------------------------------------------===//
// DF01 + whole-program IR15 through the analyze pipeline
//===----------------------------------------------------------------------===//

namespace {

analyze::DiagnosticSink lintWithAnnotations(const ir::Program &P,
                                            const core::DivergeMap &Map) {
  analyze::DiagnosticSink Sink;
  const cfg::ProgramAnalysis PA(P);
  analyze::AnalysisInput Input;
  Input.P = &P;
  Input.PA = &PA;
  Input.Annotations = &Map;
  analyze::lintAll(Input, &Sink);
  return Sink;
}

} // namespace

TEST(CfmLegalityTest, ExactCfmWithHaltInRegionErrorsDF01) {
  auto P = std::make_unique<ir::Program>("df01");
  ir::Function *F = P->createFunction("main");
  ir::IRBuilder B(*P);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Fall = F->createBlock("fall"); // Layout: fallthrough leg.
  ir::BasicBlock *Then = F->createBlock("then");
  ir::BasicBlock *Merge = F->createBlock("merge");
  B.setInsertPoint(Entry);
  B.loadImm(1, 1);
  B.condBr(ir::BrCond::Eq, 1, 0, Then);
  B.setInsertPoint(Fall);
  B.addI(2, 1, 1);
  B.jmp(Merge);
  B.setInsertPoint(Then);
  B.halt(); // The "merging" path can end execution inside the region.
  B.setInsertPoint(Merge);
  B.store(2, 0, 0);
  B.halt();
  P->finalize();
  const uint32_t BranchAddr = Entry->getTerminator()->Addr;

  core::DivergeMap Map;
  Map.add(BranchAddr, simpleAnnotation(Merge->getStartAddr()));
  const analyze::DiagnosticSink Sink = lintWithAnnotations(*P, Map);
  // The structural check fires (the CFM does not post-dominate) *and* the
  // side-effect cross-check independently proves the claim impossible.
  EXPECT_TRUE(Sink.has(analyze::DiagCode::CfmNotPostDominator));
  EXPECT_TRUE(Sink.has(analyze::DiagCode::DfExactCfmImpure));
  EXPECT_GT(Sink.errorCount(), 0u);
}

TEST(IRLintWholeProgramTest, UndefReadInCalleeWarnsIR15) {
  const std::unique_ptr<ir::Program> P = buildCalleeUndefRead();
  analyze::DiagnosticSink Sink;
  analyze::lintProgram(*P, &Sink);
  bool SawR7 = false, SawR5 = false;
  for (const analyze::Diagnostic &D : Sink.diagnostics()) {
    if (D.Code != analyze::DiagCode::IrMaybeUndefRead)
      continue;
    SawR7 |= D.Message.find("r7") != std::string::npos;
    SawR5 |= D.Message.find("r5") != std::string::npos;
  }
  // r7 is read in f with no write on any path: warn.  r5 is assigned by
  // the caller before every call to f: the interprocedural entry set must
  // suppress the false positive.
  EXPECT_TRUE(SawR7);
  EXPECT_FALSE(SawR5);
}

TEST(IRLintWholeProgramTest, MainOnlyProgramKeepsLegacyIR15Verdicts) {
  // The golden program the old main-only IR15 was tuned on (the filler's
  // r9/r10/r11 upward-exposed reads in the fall block) must produce the
  // exact same warnings — same registers, same addresses, same message —
  // under the whole-program analysis.
  const test::ProgramHandles H = test::buildSimpleHammockLoop();
  analyze::DiagnosticSink Sink;
  analyze::lintProgram(*H.Prog, &Sink);
  std::vector<std::string> Seen;
  for (const analyze::Diagnostic &D : Sink.diagnostics())
    if (D.Code == analyze::DiagCode::IrMaybeUndefRead)
      Seen.push_back(D.renderText());
  ASSERT_EQ(Seen.size(), 3u) << Sink.renderText();
  EXPECT_EQ(Seen[0],
            "warning[IR15] main:fall@5: r9 may be read before any write "
            "(relies on implicit zero initialization)");
  EXPECT_EQ(Seen[1],
            "warning[IR15] main:fall@6: r10 may be read before any write "
            "(relies on implicit zero initialization)");
  EXPECT_EQ(Seen[2],
            "warning[IR15] main:fall@7: r11 may be read before any write "
            "(relies on implicit zero initialization)");
  EXPECT_EQ(Sink.errorCount(), 0u);
}

//===----------------------------------------------------------------------===//
// dmp_lint --json: the snapshot must round-trip through dmp::json
//===----------------------------------------------------------------------===//

#ifdef DMP_TEST_LINT_TOOL
TEST(LintJsonTest, SnapshotParsesAndCarriesDiagnostics) {
  // gzip's own selection lints clean, so hand dmp_lint that selection with
  // its first `branch` line written twice: ANN07, a warning (exit stays 0).
  harness::CellSpec Cell;
  Cell.Benchmark = "gzip";
  Cell.ProfileInstrs = 120000;
  harness::BenchContext Bench(*workloads::findBenchmark(Cell.Benchmark),
                              harness::cellOptions(Cell, nullptr));
  const std::string Text = core::serializeDivergeMap(
      harness::findSelectionPreset(Cell.Algo)->Select(Bench,
                                                      Cell.ProfileInput));
  const size_t Line = Text.find("\nbranch ");
  ASSERT_NE(Line, std::string::npos) << Text;
  const size_t End = Text.find('\n', Line + 1);
  const std::string MapText =
      Text.substr(0, End) + Text.substr(Line, End - Line) + Text.substr(End);
  const std::string MapFile = ::testing::TempDir() + "lint_snapshot.map";
  {
    std::ofstream(MapFile) << MapText;
  }

  const std::string Out = ::testing::TempDir() + "lint_snapshot.json";
  const std::string Cmd = std::string(DMP_TEST_LINT_TOOL) +
                          " gzip --json --profile-instrs=120000 --map=" +
                          MapFile + " > " + Out;
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

  const StatusOr<json::Value> Parsed = json::parseFile(Out);
  std::remove(Out.c_str());
  std::remove(MapFile.c_str());
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  const json::Value &Root = Parsed.value();

  const json::Value *Schema = Root.findString("schema");
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->asString(), "dmp-bench/1");
  ASSERT_NE(Root.find("clean"), nullptr);

  const json::Value *Workloads = Root.find("workloads");
  ASSERT_NE(Workloads, nullptr);
  ASSERT_EQ(Workloads->asArray().size(), 1u);
  const json::Value &W = Workloads->asArray().front();
  ASSERT_NE(W.findString("name"), nullptr);
  EXPECT_EQ(W.findString("name")->asString(), "gzip");
  ASSERT_NE(W.findNumber("errors"), nullptr);
  ASSERT_NE(W.findNumber("warnings"), nullptr);
  const json::Value *Diags = W.find("diagnostics");
  ASSERT_NE(Diags, nullptr);
  ASSERT_FALSE(Diags->asArray().empty());
  // Every diagnostic element carries the machine-format fields.
  bool SawAnn07 = false;
  for (const json::Value &D : Diags->asArray()) {
    ASSERT_NE(D.findString("code"), nullptr);
    ASSERT_NE(D.findString("severity"), nullptr);
    ASSERT_NE(D.findString("message"), nullptr);
    SawAnn07 |= D.findString("code")->asString() == "ANN07";
  }
  EXPECT_TRUE(SawAnn07);
}
#endif // DMP_TEST_LINT_TOOL
