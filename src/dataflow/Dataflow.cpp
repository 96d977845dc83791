//===- dataflow/Dataflow.cpp - Concrete dataflow analyses ------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "dataflow/Dataflow.h"

#include <cassert>
#include <memory>

namespace dmp::dataflow {

RegSet instrUses(const ir::Instruction &I) {
  RegSet Uses = 0;
  if (ir::readsSrc1(I.Op))
    Uses |= regBit(I.Src1);
  if (ir::readsSrc2(I.Op))
    Uses |= regBit(I.Src2);
  return Uses;
}

RegSet instrDefs(const ir::Instruction &I) {
  if (!ir::writesRegister(I.Op) || I.Dst == ir::RegZero)
    return 0;
  return regBit(I.Dst);
}

namespace {

CallEffect effectOf(const ir::Instruction &I, CallEffectFn CallFn,
                    void *CallCtx) {
  if (I.Op == ir::Opcode::Call && CallFn && I.Callee)
    return CallFn(*I.Callee, CallCtx);
  return CallEffect{instrUses(I), instrDefs(I)};
}

} // namespace

LivenessResult computeLiveness(const cfg::CFGView &View, RegSet RetLiveOut,
                               CallEffectFn CallFn, void *CallCtx) {
  const unsigned N = View.blockCount();
  Problem<RegSet> Pr;
  Pr.Dir = Direction::Backward;
  Pr.MeetKind = Meet::Union;
  Pr.Interior = 0;
  Pr.Boundary = 0; // Halt (and malformed exits): nothing live after.
  Pr.Transfers.resize(N);

  for (const ir::BasicBlock *B : View.reversePostorder()) {
    Transfer<RegSet> &T = Pr.Transfers[B->getId()];
    for (const ir::Instruction &I : B->instructions()) {
      const CallEffect CE = effectOf(I, CallFn, CallCtx);
      T.Gen |= CE.Uses & ~T.Kill; // Upward-exposed uses.
      T.Kill |= CE.Defs;
    }
    if (const ir::Instruction *Term = B->getTerminator();
        Term && Term->Op == ir::Opcode::Ret && View.successors(B->getId()).empty())
      Pr.ExitOverrides.emplace_back(B->getId(), RetLiveOut);
  }

  const Solution<RegSet> S = solve(View, Pr);
  LivenessResult R;
  R.LiveIn = S.In;
  R.LiveOut = S.Out;
  R.Rounds = S.Rounds;
  return R;
}

DefiniteAssignResult computeDefiniteAssign(const cfg::CFGView &View,
                                           RegSet EntryAssigned,
                                           CallEffectFn CallFn, void *CallCtx) {
  const unsigned N = View.blockCount();
  Problem<RegSet> Pr;
  Pr.Dir = Direction::Forward;
  Pr.MeetKind = Meet::Intersect;
  Pr.Interior = AllRegs; // Optimistic top: facts only shrink.
  Pr.Boundary = EntryAssigned | ZeroRegBit;
  Pr.Transfers.resize(N);

  for (const ir::BasicBlock *B : View.reversePostorder()) {
    Transfer<RegSet> &T = Pr.Transfers[B->getId()];
    for (const ir::Instruction &I : B->instructions())
      T.Gen |= effectOf(I, CallFn, CallCtx).Defs; // Assignment never killed.
  }

  const Solution<RegSet> S = solve(View, Pr);
  DefiniteAssignResult R;
  R.AssignedIn = S.In;
  R.AssignedOut = S.Out;
  R.Rounds = S.Rounds;
  return R;
}

std::vector<BlockEffects> computeBlockEffects(const cfg::CFGView &View) {
  std::vector<BlockEffects> E(View.blockCount());
  for (unsigned Id = 0; Id < View.blockCount(); ++Id)
    for (const ir::Instruction &I : View.block(Id)->instructions()) {
      BlockEffects &BE = E[Id];
      switch (I.Op) {
      case ir::Opcode::Store:
        ++BE.Stores;
        break;
      case ir::Opcode::Load:
        ++BE.Loads;
        break;
      case ir::Opcode::Call:
        ++BE.Calls;
        break;
      case ir::Opcode::Halt:
        BE.HasHalt = true;
        break;
      case ir::Opcode::Ret:
        BE.HasRet = true;
        break;
      default:
        break;
      }
    }
  return E;
}

//===----------------------------------------------------------------------===//
// ProgramDataflow
//===----------------------------------------------------------------------===//

namespace {

using Summary = ProgramDataflow::FunctionSummary;

// CallEffect adapters threading the current summary table through the
// per-function analyses.  Liveness sees a callee as (use LiveInEntry, kill
// MustDef); definite assignment sees it as (define ExitAssigned).
CallEffect livenessCallEffect(const ir::Function &Callee, void *Ctx) {
  const auto &S = *static_cast<const std::vector<Summary> *>(Ctx);
  return CallEffect{S[Callee.getId()].LiveInEntry, S[Callee.getId()].MustDef};
}

CallEffect assignCallEffect(const ir::Function &Callee, void *Ctx) {
  const auto &S = *static_cast<const std::vector<Summary> *>(Ctx);
  return CallEffect{0, S[Callee.getId()].ExitAssigned};
}

CallEffect mustDefCallEffect(const ir::Function &Callee, void *Ctx) {
  const auto &S = *static_cast<const std::vector<Summary> *>(Ctx);
  return CallEffect{0, S[Callee.getId()].MustDef};
}

/// Per-instruction facts inside one block, derived from the block-boundary
/// solutions: the definitely-assigned set before each instruction executes
/// and the may-live set after it.
struct BlockWalk {
  std::vector<RegSet> AssignedBefore;
  std::vector<RegSet> LiveAfter;
};

BlockWalk walkBlock(const ir::BasicBlock &B, RegSet AssignedIn, RegSet LiveOut,
                    const std::vector<Summary> &S) {
  const auto &Insts = B.instructions();
  BlockWalk W;
  W.AssignedBefore.resize(Insts.size());
  W.LiveAfter.resize(Insts.size());

  RegSet Assigned = AssignedIn | ZeroRegBit;
  for (size_t I = 0; I < Insts.size(); ++I) {
    W.AssignedBefore[I] = Assigned;
    if (Insts[I].Op == ir::Opcode::Call && Insts[I].Callee)
      Assigned |= S[Insts[I].Callee->getId()].ExitAssigned;
    else
      Assigned |= instrDefs(Insts[I]);
  }

  RegSet Live = LiveOut;
  for (size_t I = Insts.size(); I > 0; --I) {
    W.LiveAfter[I - 1] = Live;
    RegSet Uses;
    RegSet Kill;
    if (Insts[I - 1].Op == ir::Opcode::Call && Insts[I - 1].Callee) {
      Uses = S[Insts[I - 1].Callee->getId()].LiveInEntry;
      Kill = S[Insts[I - 1].Callee->getId()].MustDef;
    } else {
      Uses = instrUses(Insts[I - 1]);
      Kill = instrDefs(Insts[I - 1]);
    }
    Live = Uses | (Live & ~Kill);
  }
  return W;
}

/// Meet of a function's assigned-at-ret facts: intersect AssignedOut over
/// every reachable Ret block.  AllRegs when the function never returns
/// (meet over the empty set — sound, since callers never resume).
RegSet meetAtRets(const cfg::CFGView &View, const DefiniteAssignResult &DA) {
  RegSet R = AllRegs;
  for (const ir::BasicBlock *B : View.reversePostorder())
    if (const ir::Instruction *Term = B->getTerminator();
        Term && Term->Op == ir::Opcode::Ret)
      R &= DA.AssignedOut[B->getId()];
  return R;
}

} // namespace

ProgramDataflow::ProgramDataflow(const ir::Program &Prog) : P(Prog) {
  assert(P.isFinalized() && "dataflow over an unfinalized program");
  solveFunctions();
  flattenInstructionFacts();
}

void ProgramDataflow::solveFunctions() {
  const size_t NF = P.functions().size();
  Summaries.assign(NF, FunctionSummary{});
  Live.resize(NF);
  Assign.resize(NF);
  Effects.resize(NF);

  std::vector<std::unique_ptr<cfg::CFGView>> Views;
  Views.reserve(NF);
  for (const auto &F : P.functions())
    Views.push_back(std::make_unique<cfg::CFGView>(*F));

  // Functions reachable from main through calls in reachable blocks.  Only
  // their call sites constrain callee summaries; everything else gets the
  // pessimistic boundary (entry {r0}, everything live at ret) so the static
  // checks still run there without claiming unexecutable facts.
  std::vector<bool> Reached(NF, false);
  if (const ir::Function *Main = P.getMain()) {
    std::vector<unsigned> Work{Main->getId()};
    Reached[Main->getId()] = true;
    while (!Work.empty()) {
      const unsigned Id = Work.back();
      Work.pop_back();
      for (const ir::BasicBlock *B : Views[Id]->reversePostorder())
        for (const ir::Instruction &I : B->instructions())
          if (I.Op == ir::Opcode::Call && I.Callee &&
              !Reached[I.Callee->getId()]) {
            Reached[I.Callee->getId()] = true;
            Work.push_back(I.Callee->getId());
          }
    }
  }

  for (size_t Id = 0; Id < NF; ++Id) {
    Effects[Id] = computeBlockEffects(*Views[Id]);
    if (!Reached[Id]) {
      Summaries[Id].EntryAssigned = ZeroRegBit;
      Summaries[Id].RetLive = AllRegs & ~ZeroRegBit;
    } else if (Id == P.getMain()->getId()) {
      Summaries[Id].EntryAssigned = ZeroRegBit;
    }
  }

  // Two-level fixpoint: re-solve every function against the current summary
  // table, then refresh the call-boundary summaries from the solutions.
  // EntryAssigned/ExitAssigned/MustDef only shrink from their optimistic
  // all-ones start and LiveInEntry/RetLive only grow from empty, so this
  // terminates; the cap is a safety net for broken monotonicity.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++InterRounds;
    assert(InterRounds <= 32 * NF + 2 && "summary fixpoint not converging");

    for (size_t Id = 0; Id < NF; ++Id) {
      const cfg::CFGView &View = *Views[Id];
      FunctionSummary &S = Summaries[Id];

      // MustDef: assigned at every ret from an empty entry.
      DefiniteAssignResult MD = computeDefiniteAssign(
          View, ZeroRegBit, mustDefCallEffect, &Summaries);
      const RegSet NewMustDef = meetAtRets(View, MD);

      // ExitAssigned: same, seeded with the call sites' meet.
      Assign[Id] = computeDefiniteAssign(View, S.EntryAssigned,
                                         assignCallEffect, &Summaries);
      const RegSet NewExit = meetAtRets(View, Assign[Id]);

      Live[Id] =
          computeLiveness(View, S.RetLive, livenessCallEffect, &Summaries);
      const RegSet NewLiveIn =
          View.getFunction().getEntry()
              ? Live[Id].LiveIn[View.getFunction().getEntry()->getId()]
              : 0;

      if (NewMustDef != S.MustDef || NewExit != S.ExitAssigned ||
          NewLiveIn != S.LiveInEntry) {
        S.MustDef = NewMustDef;
        S.ExitAssigned = NewExit;
        S.LiveInEntry = NewLiveIn;
        Changed = true;
      }
    }

    // Refresh caller-derived summaries from per-call-site facts.
    std::vector<RegSet> NewEntry(NF), NewRetLive(NF);
    for (size_t Id = 0; Id < NF; ++Id) {
      if (!Reached[Id]) {
        NewEntry[Id] = ZeroRegBit;
        NewRetLive[Id] = AllRegs & ~ZeroRegBit;
      } else {
        NewEntry[Id] =
            Id == P.getMain()->getId() ? ZeroRegBit : AllRegs;
        NewRetLive[Id] = 0;
      }
    }
    for (size_t Caller = 0; Caller < NF; ++Caller) {
      if (!Reached[Caller])
        continue;
      for (const ir::BasicBlock *B : Views[Caller]->reversePostorder()) {
        const BlockWalk W =
            walkBlock(*B, Assign[Caller].AssignedIn[B->getId()],
                      Live[Caller].LiveOut[B->getId()], Summaries);
        const auto &Insts = B->instructions();
        for (size_t I = 0; I < Insts.size(); ++I)
          if (Insts[I].Op == ir::Opcode::Call && Insts[I].Callee) {
            const unsigned Callee = Insts[I].Callee->getId();
            NewEntry[Callee] &= W.AssignedBefore[I];
            NewRetLive[Callee] |= W.LiveAfter[I];
          }
      }
    }
    for (size_t Id = 0; Id < NF; ++Id) {
      NewEntry[Id] |= ZeroRegBit;
      if (NewEntry[Id] != Summaries[Id].EntryAssigned ||
          NewRetLive[Id] != Summaries[Id].RetLive) {
        Summaries[Id].EntryAssigned = NewEntry[Id];
        Summaries[Id].RetLive = NewRetLive[Id];
        Changed = true;
      }
    }
  }
}

void ProgramDataflow::flattenInstructionFacts() {
  // Unvisited addresses (statically unreachable blocks) keep the claim-free
  // facts: nothing proved assigned beyond r0, everything possibly live.
  AssignedBeforeFlat.assign(P.instrCount(), ZeroRegBit);
  LiveAfterFlat.assign(P.instrCount(), AllRegs);

  for (const auto &F : P.functions()) {
    const cfg::CFGView View(*F);
    for (const ir::BasicBlock *B : View.reversePostorder()) {
      const BlockWalk W =
          walkBlock(*B, Assign[F->getId()].AssignedIn[B->getId()],
                    Live[F->getId()].LiveOut[B->getId()], Summaries);
      const auto &Insts = B->instructions();
      for (size_t I = 0; I < Insts.size(); ++I) {
        AssignedBeforeFlat[Insts[I].Addr] = W.AssignedBefore[I];
        LiveAfterFlat[Insts[I].Addr] = W.LiveAfter[I];
      }
    }
  }
}

} // namespace dmp::dataflow
