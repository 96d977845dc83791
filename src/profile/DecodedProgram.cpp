//===- profile/DecodedProgram.cpp - Predecoded instruction array ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/DecodedProgram.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"

using namespace dmp;
using namespace dmp::ir;
using namespace dmp::profile;

DecodedProgram::DecodedProgram(const Program &P) {
  assert(P.isFinalized() && "decoding an unfinalized program");
  const uint32_t N = P.instrCount();
  Instrs.resize(N);
  for (uint32_t A = 0; A < N; ++A) {
    const Instruction &I = P.instrAt(A);
    DecodedInstr &D = Instrs[A];
    D.Imm = I.Imm;
    D.Src = &I;
    D.Op = I.Op;
    D.Cond = I.Cond;
    D.Dst = I.Dst;
    D.Src1 = I.Src1;
    D.Src2 = I.Src2;
    if (I.Op == Opcode::CondBr || I.Op == Opcode::Jmp)
      D.Target = I.Target->getStartAddr();
    else if (I.Op == Opcode::Call)
      D.Target = I.Callee->getEntryAddr();
  }
  // Straight-line run lengths, back to front: an instruction that cannot
  // transfer control extends the run starting right after it, unless that
  // instruction leads a basic block.  Every valid program ends each
  // function in a terminator, so a run never falls off the end of the
  // address space.
  std::vector<bool> Leader(N, false);
  for (const auto &F : P.functions())
    for (const auto &B : F->blocks())
      if (B->instrCount() != 0)
        Leader[B->getStartAddr()] = true;
  for (uint32_t A = N; A-- > 0;)
    if (!isControlFlow(Instrs[A].Op))
      Instrs[A].RunLen =
          (A + 1 < N && !Leader[A + 1] ? Instrs[A + 1].RunLen : 0) + 1;
  // Superop fusion for the batched dispatch loop: at every address, pick
  // the longest fused group that fits inside the straight-line run
  // (greedy, overlapping — each address describes execution starting
  // there, so branching into the middle of someone else's group is fine).
  for (uint32_t A = 0; A < N; ++A) {
    DecodedInstr &D = Instrs[A];
    const Opcode Op1 = D.Op;
    const Opcode Op2 = D.RunLen >= 2 ? Instrs[A + 1].Op : Opcode::Halt;
    const bool Triple = D.RunLen >= 3 && Op1 == Opcode::AddI &&
                        Op2 == Opcode::Xor && Instrs[A + 2].Op == Opcode::Add;
    if (Triple && D.RunLen >= 6 && Instrs[A + 3].Op == Opcode::AddI &&
        Instrs[A + 4].Op == Opcode::Xor && Instrs[A + 5].Op == Opcode::Add)
      D.FuseOp = fuse::AddIXorAdd2;
    else if (Triple)
      D.FuseOp = fuse::AddIXorAdd;
    else if (Op1 == Opcode::AddI && Op2 == Opcode::Xor)
      D.FuseOp = fuse::AddIXor;
    else if (Op1 == Opcode::Xor && Op2 == Opcode::Add)
      D.FuseOp = fuse::XorAdd;
    else if (Op1 == Opcode::Add && Op2 == Opcode::AddI)
      D.FuseOp = fuse::AddAddI;
    else
      D.FuseOp = static_cast<uint8_t>(Op1);
  }
}

const DecodedProgram &DecodedProgram::of(const Program &P) {
  const auto &Slot =
      P.decodeCache(+[](const Program &Prog) -> std::shared_ptr<const void> {
        return std::shared_ptr<const void>(new DecodedProgram(Prog));
      });
  return *static_cast<const DecodedProgram *>(Slot.get());
}
