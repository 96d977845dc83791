//===- analyze/IRLint.cpp - IR structure and semantics lint -------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IRLint (IR01-IR20): the structural checks of the legacy ir::Verifier
/// rewritten onto the diagnostics framework, plus semantic extensions —
/// per-function reachability, a whole-program maybe-undefined-read check
/// (dataflow::ProgramDataflow's interprocedural definite assignment),
/// register-range validation, and call-graph sanity (dead functions,
/// recursion, calls to main).
///
/// CFG-based checks only run on structurally clean input: reachability
/// (IR14) per clean function, the definite-assignment sweep (IR15) only
/// when every function is clean — cfg::CFGView and the dataflow solver
/// assume well-formed blocks, and call boundaries cross functions.
///
//===----------------------------------------------------------------------===//

#include "analyze/Checks.h"

#include "cfg/CFG.h"
#include "dataflow/Dataflow.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dmp::analyze {
namespace {

using dataflow::RegSet;

DiagLocation locAt(const ir::Function &F, const ir::BasicBlock &B,
                   uint32_t Addr = ir::InvalidAddr) {
  return DiagLocation::inBlock(F.getName(), B.getName(), Addr);
}

void checkInstruction(const ir::Program &P, const ir::Function &F,
                      const ir::BasicBlock &B, const ir::Instruction &Inst,
                      bool IsLastInBlock, DiagnosticSink &Sink) {
  const DiagLocation Loc = locAt(F, B, Inst.Addr);

  if (Inst.isTerminator() && !IsLastInBlock)
    Sink.report(DiagCode::IrTerminatorMidBlock, Loc,
                formatString("terminator '%s' is not the last instruction "
                             "of its block",
                             ir::opcodeName(Inst.Op)));

  if (Inst.writesReg() && Inst.Dst == ir::RegZero)
    Sink.report(DiagCode::IrWriteToZeroReg, Loc,
                "instruction writes the hardwired-zero register r0");

  if (Inst.writesReg() && Inst.Dst >= ir::NumRegs)
    Sink.report(DiagCode::IrRegOutOfRange, Loc,
                formatString("destination register r%u out of range "
                             "(%u registers)",
                             Inst.Dst, ir::NumRegs));
  if (ir::readsSrc1(Inst.Op) && Inst.Src1 >= ir::NumRegs)
    Sink.report(DiagCode::IrRegOutOfRange, Loc,
                formatString("source register r%u out of range "
                             "(%u registers)",
                             Inst.Src1, ir::NumRegs));
  if (ir::readsSrc2(Inst.Op) && Inst.Src2 >= ir::NumRegs)
    Sink.report(DiagCode::IrRegOutOfRange, Loc,
                formatString("source register r%u out of range "
                             "(%u registers)",
                             Inst.Src2, ir::NumRegs));

  if (Inst.Op == ir::Opcode::CondBr || Inst.Op == ir::Opcode::Jmp) {
    if (Inst.Target == nullptr)
      Sink.report(DiagCode::IrBranchNoTarget, Loc,
                  formatString("'%s' has no target block",
                               ir::opcodeName(Inst.Op)));
    else if (Inst.Target->getParent() != &F)
      Sink.report(DiagCode::IrCrossFunctionBranch, Loc,
                  formatString("branch target '%s' belongs to function "
                               "'%s'",
                               Inst.Target->getName().c_str(),
                               Inst.Target->getParent()->getName().c_str()));
  }

  if (Inst.Op == ir::Opcode::Call) {
    if (Inst.Callee == nullptr) {
      Sink.report(DiagCode::IrCallNoCallee, Loc,
                  "call has no callee function");
    } else {
      const bool InProgram = std::any_of(
          P.functions().begin(), P.functions().end(),
          [&](const auto &Fn) { return Fn.get() == Inst.Callee; });
      if (!InProgram)
        Sink.report(DiagCode::IrCalleeNotInProgram, Loc,
                    formatString("callee '%s' is not a function of this "
                                 "program",
                                 Inst.Callee->getName().c_str()));
      else if (Inst.Callee == P.getMain())
        Sink.report(DiagCode::IrCallToMain, Loc,
                    "call targets the entry function");
    }
  }
}

void checkFunction(const ir::Program &P, const ir::Function &F,
                   uint32_t &NextAddr, DiagnosticSink &Sink) {
  if (F.blocks().empty()) {
    Sink.report(DiagCode::IrEmptyFunction,
                DiagLocation::inFunction(F.getName()),
                "function has no basic blocks");
    return;
  }

  for (const auto &B : F.blocks()) {
    if (B->empty()) {
      Sink.report(DiagCode::IrEmptyBlock, locAt(F, *B),
                  "basic block has no instructions");
      continue;
    }
    for (size_t I = 0; I < B->size(); ++I) {
      const ir::Instruction &Inst = B->instructions()[I];
      checkInstruction(P, F, *B, Inst, I + 1 == B->size(), Sink);
      if (Inst.Addr != NextAddr) {
        Sink.report(DiagCode::IrAddrTableSkew, locAt(F, *B, Inst.Addr),
                    formatString("instruction address %u breaks the dense "
                                 "layout (expected %u)",
                                 Inst.Addr, NextAddr));
        NextAddr = Inst.Addr; // Resync so one skew reports once.
      } else if (NextAddr < P.instrCount() &&
               P.blockAt(NextAddr) != B.get())
        Sink.report(DiagCode::IrBlockTableSkew, locAt(F, *B, Inst.Addr),
                    formatString("block table maps address %u to block "
                                 "'%s', not its containing block",
                                 Inst.Addr,
                                 P.blockAt(NextAddr)->getName().c_str()));
      ++NextAddr;
    }
  }

  // The last block in layout must end in an explicit non-fall-through
  // terminator: anything else runs off the end of the function.
  const ir::BasicBlock &Last = *F.blocks().back();
  if (!Last.empty()) {
    const ir::Instruction *T = Last.getTerminator();
    if (T == nullptr || T->Op == ir::Opcode::CondBr)
      Sink.report(DiagCode::IrFallsOffEnd, locAt(F, Last),
                  "control can fall off the end of the function (last "
                  "block must end in jmp, ret, or halt)");
  }

  if (&F == P.getMain()) {
    bool HasHalt = false;
    for (const auto &B : F.blocks())
      for (const ir::Instruction &Inst : B->instructions())
        HasHalt |= Inst.Op == ir::Opcode::Halt;
    if (!HasHalt)
      Sink.report(DiagCode::IrNoHalt, DiagLocation::inFunction(F.getName()),
                  "entry function has no halt instruction");
  }
}

void dfsCycle(const ir::Program &P, unsigned Id,
              const std::vector<std::vector<unsigned>> &Callees,
              std::vector<uint8_t> &Color, DiagnosticSink &Sink) {
  Color[Id] = 1;
  for (unsigned Callee : Callees[Id]) {
    if (Color[Callee] == 1)
      Sink.report(DiagCode::IrRecursion,
                  DiagLocation::inFunction(
                      P.functions()[Id]->getName()),
                  formatString("call to '%s' forms a recursive cycle",
                               P.functions()[Callee]->getName().c_str()));
    else if (Color[Callee] == 0)
      dfsCycle(P, Callee, Callees, Color, Sink);
  }
  Color[Id] = 2;
}

void checkCallGraph(const ir::Program &P, DiagnosticSink &Sink) {
  const size_t N = P.functions().size();
  // Callee id lists per function, restricted to in-program callees.
  std::vector<std::vector<unsigned>> Callees(N);
  for (const auto &F : P.functions())
    for (const auto &B : F->blocks())
      for (const ir::Instruction &Inst : B->instructions())
        if (Inst.Op == ir::Opcode::Call && Inst.Callee != nullptr &&
            Inst.Callee->getParent() == &P)
          Callees[F->getId()].push_back(Inst.Callee->getId());

  // Reachability from main over the call graph.
  std::vector<bool> Reached(N, false);
  std::vector<unsigned> Work{P.getMain()->getId()};
  Reached[P.getMain()->getId()] = true;
  while (!Work.empty()) {
    const unsigned Id = Work.back();
    Work.pop_back();
    for (unsigned Callee : Callees[Id])
      if (!Reached[Callee]) {
        Reached[Callee] = true;
        Work.push_back(Callee);
      }
  }
  for (const auto &F : P.functions())
    if (!Reached[F->getId()])
      Sink.report(DiagCode::IrUnreachableFunction,
                  DiagLocation::inFunction(F->getName()),
                  "function is never called (unreachable from the entry "
                  "function)");

  // Cycle detection (recursion is legal but the stack model is finite,
  // so surface it).  Colors: 0 white, 1 on-stack, 2 done.
  std::vector<uint8_t> Color(N, 0);
  for (const auto &F : P.functions())
    if (Color[F->getId()] == 0)
      dfsCycle(P, F->getId(), Callees, Color, Sink);
}

void checkReachability(const ir::Function &F, DiagnosticSink &Sink) {
  const cfg::CFGView View(F);
  for (const auto &B : F.blocks())
    if (!View.isReachable(B.get()))
      Sink.report(DiagCode::IrUnreachableBlock, locAt(F, *B),
                  "basic block is unreachable from the function entry");
}

/// Maybe-undefined reads (IR15), whole program: registers are implicitly
/// zero at program start, so this is style-level (warning).  Callees
/// inherit the caller's register file (the ISA has no calling
/// convention), which is exactly what ProgramDataflow's interprocedural
/// definite assignment models — a callee's entry facts are the meet over
/// its call sites, main's are {r0}.
void checkMaybeUndefReads(const ir::Program &P, DiagnosticSink &Sink) {
  const dataflow::ProgramDataflow PD(P);
  for (const auto &F : P.functions()) {
    const cfg::CFGView View(*F);
    RegSet Warned = 0; // One warning per register keeps the noise bounded.
    for (const ir::BasicBlock *B : View.reversePostorder()) {
      for (const ir::Instruction &Inst : B->instructions()) {
        const RegSet Assigned = PD.assignedBefore(Inst.Addr);
        const auto CheckRead = [&](ir::Reg R) {
          const RegSet Bit = dataflow::regBit(R);
          if ((Assigned & Bit) == 0 && (Warned & Bit) == 0) {
            Warned |= Bit;
            Sink.report(DiagCode::IrMaybeUndefRead, locAt(*F, *B, Inst.Addr),
                        formatString("r%u may be read before any write "
                                     "(relies on implicit zero "
                                     "initialization)",
                                     R));
          }
        };
        if (ir::readsSrc1(Inst.Op))
          CheckRead(Inst.Src1);
        if (ir::readsSrc2(Inst.Op))
          CheckRead(Inst.Src2);
      }
    }
  }
}

} // namespace

void checkIR(const ir::Program &P, DiagnosticSink &Sink) {
  if (!P.isFinalized()) {
    Sink.report(DiagCode::IrNotFinalized, DiagLocation::program(),
                "program is not finalized; no addresses assigned");
    return; // Every other check needs addresses.
  }
  if (P.getMain() == nullptr) {
    Sink.report(DiagCode::IrNoMain, DiagLocation::program(),
                "program has no functions (no entry point)");
    return;
  }

  // Structural sweep, in layout order.  NextAddr tracks the address the
  // finalize() tables must have assigned.
  uint32_t NextAddr = 0;
  std::vector<bool> FnStructurallyOk(P.functions().size(), true);
  for (const auto &F : P.functions()) {
    const size_t ErrorsBefore = Sink.errorCount();
    checkFunction(P, *F, NextAddr, Sink);
    FnStructurallyOk[F->getId()] = Sink.errorCount() == ErrorsBefore;
  }

  checkCallGraph(P, Sink);

  for (const auto &F : P.functions())
    if (FnStructurallyOk[F->getId()])
      checkReachability(*F, Sink);

  // The definite-assignment sweep solves call boundaries across the whole
  // program, so it needs every function well-formed, not just one.
  if (std::all_of(FnStructurallyOk.begin(), FnStructurallyOk.end(),
                  [](bool Ok) { return Ok; }))
    checkMaybeUndefReads(P, Sink);
}

} // namespace dmp::analyze
