//===- profile/Emulator.cpp - Functional ISA emulator --------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/Emulator.h"

#include "support/Compiler.h"
#include "support/MathExtras.h"

using namespace dmp;
using namespace dmp::ir;
using namespace dmp::profile;

/// Smallest emulated memory, in 64-bit words.
static constexpr uint64_t MinMemoryWords = 1ull << 16;

namespace {

// Reference-interpreter copies of the guest arithmetic helpers.  Kept
// file-local (rather than reusing profile::isa) so the reference path stays
// textually self-contained: it is the oracle the predecoded fast path is
// diffed against, and should not share code with it beyond the ISA spec.
int64_t refWrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t refWrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t refWrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
int64_t refWrapShl(int64_t A, uint64_t Shamt) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) << (Shamt & 63));
}

/// Retires the straight-line records [D, End) one at a time, dispatching on
/// the base opcode.  Used for budget-clamped partial runs (where a fused
/// group could straddle the cut) and as the portable fallback when the
/// threaded-dispatch extension is unavailable.
void execScalarRun(const DecodedInstr *D, const DecodedInstr *const End,
                   int64_t *DMP_RESTRICT RegsL, int64_t *DMP_RESTRICT MemL,
                   const uint64_t Mask) {
  for (; D != End; ++D) {
    switch (D->Op) {
    case Opcode::Add:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapAdd(RegsL[D->Src1], RegsL[D->Src2]);
      break;
    case Opcode::Sub:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapSub(RegsL[D->Src1], RegsL[D->Src2]);
      break;
    case Opcode::Mul:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapMul(RegsL[D->Src1], RegsL[D->Src2]);
      break;
    case Opcode::Div:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapDiv(RegsL[D->Src1], RegsL[D->Src2]);
      break;
    case Opcode::And:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] & RegsL[D->Src2];
      break;
    case Opcode::Or:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] | RegsL[D->Src2];
      break;
    case Opcode::Xor:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] ^ RegsL[D->Src2];
      break;
    case Opcode::Shl:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapShl(RegsL[D->Src1],
                                     static_cast<uint64_t>(RegsL[D->Src2]));
      break;
    case Opcode::Shr:
      if (D->Dst)
        RegsL[D->Dst] = static_cast<int64_t>(
            static_cast<uint64_t>(RegsL[D->Src1]) >>
            (static_cast<uint64_t>(RegsL[D->Src2]) & 63));
      break;
    case Opcode::Slt:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] < RegsL[D->Src2] ? 1 : 0;
      break;
    case Opcode::AddI:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapAdd(RegsL[D->Src1], D->Imm);
      break;
    case Opcode::MulI:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapMul(RegsL[D->Src1], D->Imm);
      break;
    case Opcode::AndI:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] & D->Imm;
      break;
    case Opcode::SltI:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] < D->Imm ? 1 : 0;
      break;
    case Opcode::LoadImm:
      if (D->Dst)
        RegsL[D->Dst] = D->Imm;
      break;
    case Opcode::Load:
      if (D->Dst)
        RegsL[D->Dst] =
            MemL[static_cast<uint64_t>(isa::wrapAdd(RegsL[D->Src1], D->Imm)) &
                 Mask];
      break;
    case Opcode::Store:
      MemL[static_cast<uint64_t>(isa::wrapAdd(RegsL[D->Src1], D->Imm)) &
           Mask] = RegsL[D->Src2];
      break;
    default: // Nop; control flow never appears inside a run.
      break;
    }
  }
}

} // namespace

Emulator::Emulator(const Program &P, const std::vector<int64_t> &MemoryImage)
    : P(P), Code(DecodedProgram::of(P).data()), Memory(MemoryImage) {
  assert(P.isFinalized() && "emulating an unfinalized program");
  uint64_t Words = Memory.size() < MinMemoryWords ? MinMemoryWords
                                                  : Memory.size();
  if (!isPowerOf2(Words))
    Words = 1ull << log2Ceil(Words);
  Memory.resize(Words, 0);
  AddrMask = Words - 1;
  PC = P.getMain()->getEntryAddr();
  CallStack.reserve(64);
}

void Emulator::run(uint64_t MaxInstrs) {
  // Hoist the hot state into restrict-qualified locals: the register file
  // and data memory are distinct objects, but both are int64_t arrays, so
  // without restrict every Store forces the compiler to reload registers
  // (and the vector's data pointer) on the next instruction.
  int64_t *DMP_RESTRICT RegsL = Regs;
  int64_t *DMP_RESTRICT MemL = Memory.data();
  const DecodedInstr *DMP_RESTRICT CodeL = Code;
  const uint64_t Mask = AddrMask;
  uint32_t LPC = PC;
  uint64_t Done = Executed;

  while (!Halted && Done < MaxInstrs) {
    const DecodedInstr *D = CodeL + LPC;
    uint64_t Run = D->RunLen;
    if (DMP_UNLIKELY(Run > MaxInstrs - Done)) {
      // Budget-clamped partial run: a fused group could straddle the cut,
      // so retire it record by record on the base opcode; the loop
      // condition then ends the call with the budget met exactly.
      Run = MaxInstrs - Done;
      execScalarRun(D, D + Run, RegsL, MemL, Mask);
      LPC += static_cast<uint32_t>(Run);
      Done += Run;
      continue;
    }
    // A straight-line run: every instruction falls through and cannot halt,
    // so retire the whole run with one PC/Executed update, no DynInstr, and
    // one dispatch per instruction — or per fused group.
    const DecodedInstr *const End = D + Run;
#if defined(__GNUC__)
    {
      // Direct-threaded dispatch (GNU labels-as-values): every handler ends
      // in its own indirect jump, so the host branch predictor learns a
      // separate successor history per opcode instead of sharing one
      // switch site.  Indexed by DecodedInstr::FuseOp — base opcodes in
      // enum order, then the fuse:: superops.  Control-flow opcodes never
      // occur inside a run and alias the Nop handler only to keep the
      // table total.
      static_assert(static_cast<unsigned>(Opcode::Add) == 0 &&
                        static_cast<unsigned>(Opcode::Store) == 16 &&
                        static_cast<unsigned>(Opcode::Halt) == 22 &&
                        fuse::AddIXorAdd == 23 && fuse::NumDispatchOps == 28,
                    "dispatch table must match Opcode and fuse:: order");
      static const void *const Dispatch[fuse::NumDispatchOps] = {
          &&Op_Add,     &&Op_Sub,  &&Op_Mul,   &&Op_Div,  &&Op_And,
          &&Op_Or,      &&Op_Xor,  &&Op_Shl,   &&Op_Shr,  &&Op_Slt,
          &&Op_AddI,    &&Op_MulI, &&Op_AndI,  &&Op_SltI, &&Op_LoadImm,
          &&Op_Load,    &&Op_Store,
          &&Op_Nop /*CondBr*/, &&Op_Nop /*Jmp*/, &&Op_Nop /*Call*/,
          &&Op_Nop /*Ret*/,    &&Op_Nop,         &&Op_Nop /*Halt*/,
          &&Op_AddIXorAdd,     &&Op_AddIXorAdd2, &&Op_AddIXor,
          &&Op_XorAdd,         &&Op_AddAddI};
#define DMP_DISPATCH_NEXT(Step)                                                \
  do {                                                                         \
    D += (Step);                                                               \
    if (D >= End)                                                              \
      goto RunDone;                                                            \
    goto *Dispatch[D->FuseOp];                                                 \
  } while (false)
      if (D == End)
        goto RunDone;
      goto *Dispatch[D->FuseOp];
    Op_Add:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapAdd(RegsL[D->Src1], RegsL[D->Src2]);
      DMP_DISPATCH_NEXT(1);
    Op_Sub:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapSub(RegsL[D->Src1], RegsL[D->Src2]);
      DMP_DISPATCH_NEXT(1);
    Op_Mul:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapMul(RegsL[D->Src1], RegsL[D->Src2]);
      DMP_DISPATCH_NEXT(1);
    Op_Div:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapDiv(RegsL[D->Src1], RegsL[D->Src2]);
      DMP_DISPATCH_NEXT(1);
    Op_And:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] & RegsL[D->Src2];
      DMP_DISPATCH_NEXT(1);
    Op_Or:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] | RegsL[D->Src2];
      DMP_DISPATCH_NEXT(1);
    Op_Xor:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] ^ RegsL[D->Src2];
      DMP_DISPATCH_NEXT(1);
    Op_Shl:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapShl(RegsL[D->Src1],
                                     static_cast<uint64_t>(RegsL[D->Src2]));
      DMP_DISPATCH_NEXT(1);
    Op_Shr:
      if (D->Dst)
        RegsL[D->Dst] = static_cast<int64_t>(
            static_cast<uint64_t>(RegsL[D->Src1]) >>
            (static_cast<uint64_t>(RegsL[D->Src2]) & 63));
      DMP_DISPATCH_NEXT(1);
    Op_Slt:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] < RegsL[D->Src2] ? 1 : 0;
      DMP_DISPATCH_NEXT(1);
    Op_AddI:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapAdd(RegsL[D->Src1], D->Imm);
      DMP_DISPATCH_NEXT(1);
    Op_MulI:
      if (D->Dst)
        RegsL[D->Dst] = isa::wrapMul(RegsL[D->Src1], D->Imm);
      DMP_DISPATCH_NEXT(1);
    Op_AndI:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] & D->Imm;
      DMP_DISPATCH_NEXT(1);
    Op_SltI:
      if (D->Dst)
        RegsL[D->Dst] = RegsL[D->Src1] < D->Imm ? 1 : 0;
      DMP_DISPATCH_NEXT(1);
    Op_LoadImm:
      if (D->Dst)
        RegsL[D->Dst] = D->Imm;
      DMP_DISPATCH_NEXT(1);
    Op_Load:
      if (D->Dst)
        RegsL[D->Dst] = MemL[static_cast<uint64_t>(
                                 isa::wrapAdd(RegsL[D->Src1], D->Imm)) &
                             Mask];
      DMP_DISPATCH_NEXT(1);
    Op_Store:
      MemL[static_cast<uint64_t>(isa::wrapAdd(RegsL[D->Src1], D->Imm)) &
           Mask] = RegsL[D->Src2];
      DMP_DISPATCH_NEXT(1);
    Op_Nop:
      DMP_DISPATCH_NEXT(1);
    Op_AddIXorAdd:
      if (D[0].Dst)
        RegsL[D[0].Dst] = isa::wrapAdd(RegsL[D[0].Src1], D[0].Imm);
      if (D[1].Dst)
        RegsL[D[1].Dst] = RegsL[D[1].Src1] ^ RegsL[D[1].Src2];
      if (D[2].Dst)
        RegsL[D[2].Dst] = isa::wrapAdd(RegsL[D[2].Src1], RegsL[D[2].Src2]);
      DMP_DISPATCH_NEXT(3);
    Op_AddIXorAdd2:
      if (D[0].Dst)
        RegsL[D[0].Dst] = isa::wrapAdd(RegsL[D[0].Src1], D[0].Imm);
      if (D[1].Dst)
        RegsL[D[1].Dst] = RegsL[D[1].Src1] ^ RegsL[D[1].Src2];
      if (D[2].Dst)
        RegsL[D[2].Dst] = isa::wrapAdd(RegsL[D[2].Src1], RegsL[D[2].Src2]);
      if (D[3].Dst)
        RegsL[D[3].Dst] = isa::wrapAdd(RegsL[D[3].Src1], D[3].Imm);
      if (D[4].Dst)
        RegsL[D[4].Dst] = RegsL[D[4].Src1] ^ RegsL[D[4].Src2];
      if (D[5].Dst)
        RegsL[D[5].Dst] = isa::wrapAdd(RegsL[D[5].Src1], RegsL[D[5].Src2]);
      DMP_DISPATCH_NEXT(6);
    Op_AddIXor:
      if (D[0].Dst)
        RegsL[D[0].Dst] = isa::wrapAdd(RegsL[D[0].Src1], D[0].Imm);
      if (D[1].Dst)
        RegsL[D[1].Dst] = RegsL[D[1].Src1] ^ RegsL[D[1].Src2];
      DMP_DISPATCH_NEXT(2);
    Op_XorAdd:
      if (D[0].Dst)
        RegsL[D[0].Dst] = RegsL[D[0].Src1] ^ RegsL[D[0].Src2];
      if (D[1].Dst)
        RegsL[D[1].Dst] = isa::wrapAdd(RegsL[D[1].Src1], RegsL[D[1].Src2]);
      DMP_DISPATCH_NEXT(2);
    Op_AddAddI:
      if (D[0].Dst)
        RegsL[D[0].Dst] = isa::wrapAdd(RegsL[D[0].Src1], RegsL[D[0].Src2]);
      if (D[1].Dst)
        RegsL[D[1].Dst] = isa::wrapAdd(RegsL[D[1].Src1], D[1].Imm);
      DMP_DISPATCH_NEXT(2);
    RunDone:;
#undef DMP_DISPATCH_NEXT
    }
#else
    execScalarRun(D, End, RegsL, MemL, Mask);
#endif
    LPC += static_cast<uint32_t>(Run);
    Done += Run;
    if (Done >= MaxInstrs)
      break;
    // The instruction at LPC now leads the next block (a straight-line run
    // of its own) or is the control-flow terminator of the run (or we
    // started on one: Run == 0).  Handle a terminator inline — same
    // semantics as step(), minus the DynInstr bookkeeping no caller of
    // run() needs.
    const DecodedInstr &T = CodeL[LPC];
    if (T.RunLen != 0)
      continue;
    ++Done;
    switch (T.Op) {
    case Opcode::CondBr:
      LPC = isa::evalCond(T.Cond, RegsL[T.Src1], RegsL[T.Src2]) ? T.Target
                                                                : LPC + 1;
      break;
    case Opcode::Jmp:
      LPC = T.Target;
      break;
    case Opcode::Call:
      CallStack.push_back(LPC + 1);
      LPC = T.Target;
      break;
    case Opcode::Ret:
      if (CallStack.empty())
        Halted = true; // PC stays on the Ret, as in step().
      else {
        LPC = CallStack.back();
        CallStack.pop_back();
      }
      break;
    default: // Halt (the only other RunLen == 0 opcode).
      Halted = true;
      break;
    }
  }
  PC = LPC;
  Executed = Done;
}

bool Emulator::stepReference(DynInstr &Out) {
  if (Halted)
    return false;

  const Instruction &I = P.instrAt(PC);
  Out.I = &I;
  Out.Addr = PC;
  Out.Taken = false;
  Out.MemAddr = 0;

  auto readReg = [this](Reg R) -> int64_t {
    return R == RegZero ? 0 : Regs[R];
  };
  auto writeReg = [this](Reg R, int64_t V) {
    if (R != RegZero)
      Regs[R] = V;
  };

  uint32_t Next = PC + 1;
  switch (I.Op) {
  case Opcode::Add:
    writeReg(I.Dst, refWrapAdd(readReg(I.Src1), readReg(I.Src2)));
    break;
  case Opcode::Sub:
    writeReg(I.Dst, refWrapSub(readReg(I.Src1), readReg(I.Src2)));
    break;
  case Opcode::Mul:
    writeReg(I.Dst, refWrapMul(readReg(I.Src1), readReg(I.Src2)));
    break;
  case Opcode::Div: {
    const int64_t Num = readReg(I.Src1);
    const int64_t Den = readReg(I.Src2);
    // Guest semantics: x/0 = 0 and INT64_MIN/-1 wraps to itself, so the
    // host division is never undefined.
    writeReg(I.Dst, Den == 0 ? 0
             : (Num == INT64_MIN && Den == -1) ? Num
                                               : Num / Den);
    break;
  }
  case Opcode::And:
    writeReg(I.Dst, readReg(I.Src1) & readReg(I.Src2));
    break;
  case Opcode::Or:
    writeReg(I.Dst, readReg(I.Src1) | readReg(I.Src2));
    break;
  case Opcode::Xor:
    writeReg(I.Dst, readReg(I.Src1) ^ readReg(I.Src2));
    break;
  case Opcode::Shl:
    writeReg(I.Dst, refWrapShl(readReg(I.Src1),
                               static_cast<uint64_t>(readReg(I.Src2))));
    break;
  case Opcode::Shr:
    writeReg(I.Dst, static_cast<int64_t>(
                        static_cast<uint64_t>(readReg(I.Src1)) >>
                        (static_cast<uint64_t>(readReg(I.Src2)) & 63)));
    break;
  case Opcode::Slt:
    writeReg(I.Dst, readReg(I.Src1) < readReg(I.Src2) ? 1 : 0);
    break;
  case Opcode::AddI:
    writeReg(I.Dst, refWrapAdd(readReg(I.Src1), I.Imm));
    break;
  case Opcode::MulI:
    writeReg(I.Dst, refWrapMul(readReg(I.Src1), I.Imm));
    break;
  case Opcode::AndI:
    writeReg(I.Dst, readReg(I.Src1) & I.Imm);
    break;
  case Opcode::SltI:
    writeReg(I.Dst, readReg(I.Src1) < I.Imm ? 1 : 0);
    break;
  case Opcode::LoadImm:
    writeReg(I.Dst, I.Imm);
    break;
  case Opcode::Load: {
    const uint64_t Addr =
        static_cast<uint64_t>(refWrapAdd(readReg(I.Src1), I.Imm)) & AddrMask;
    Out.MemAddr = Addr;
    writeReg(I.Dst, Memory[Addr]);
    break;
  }
  case Opcode::Store: {
    const uint64_t Addr =
        static_cast<uint64_t>(refWrapAdd(readReg(I.Src1), I.Imm)) & AddrMask;
    Out.MemAddr = Addr;
    Memory[Addr] = readReg(I.Src2);
    break;
  }
  case Opcode::CondBr:
    Out.Taken = I.evalCond(readReg(I.Src1), readReg(I.Src2));
    if (Out.Taken)
      Next = I.Target->getStartAddr();
    break;
  case Opcode::Jmp:
    Next = I.Target->getStartAddr();
    break;
  case Opcode::Call:
    CallStack.push_back(PC + 1);
    Next = I.Callee->getEntryAddr();
    break;
  case Opcode::Ret:
    if (CallStack.empty()) {
      Halted = true;
      Next = PC;
    } else {
      Next = CallStack.back();
      CallStack.pop_back();
    }
    break;
  case Opcode::Nop:
    break;
  case Opcode::Halt:
    Halted = true;
    Next = PC;
    break;
  }

  Out.NextAddr = Next;
  PC = Next;
  ++Executed;
  return true;
}
