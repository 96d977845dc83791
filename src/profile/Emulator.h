//===- profile/Emulator.h - Functional ISA emulator ----------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Functional (architectural) emulator of the DMP ISA.  It is the ground
/// truth for both the profiler (edge/branch/loop profiles) and the cycle
/// simulator (which consumes the dynamic instruction stream the emulator
/// produces: trace-driven timing with execution-driven outcomes).
///
/// Two execution paths share one architectural state:
///  - step() dispatches over the predecoded flat array (DecodedProgram) and
///    is inlined into every caller's loop; run() additionally retires whole
///    straight-line runs without per-instruction bookkeeping.  A run ends
///    at the next block leader or control instruction, so the profiler
///    (collectProfile, run()'s production caller) retires each block body
///    with one run() and steps only the control instruction that ends it.
///  - stepReference() re-dispatches from the IR every step — the original
///    interpreter, kept verbatim as the oracle the fast path is
///    differentially tested against (and used by the fuzz oracle's
///    reference leg so the two legs stay independent).
/// Both paths must be bit-identical in every observable: registers, memory,
/// executed count, and every DynInstr field.  See DESIGN.md "Fast paths &
/// the digest-identity contract".
///
//===----------------------------------------------------------------------===//

#ifndef DMP_PROFILE_EMULATOR_H
#define DMP_PROFILE_EMULATOR_H

#include "profile/DecodedProgram.h"

#include <cstdint>
#include <vector>

namespace dmp::profile {

/// One dynamically executed instruction, as seen by emulator clients.
struct DynInstr {
  const ir::Instruction *I = nullptr;
  uint32_t Addr = 0;
  /// Address of the next instruction actually executed.
  uint32_t NextAddr = 0;
  /// For CondBr: the resolved direction.
  bool Taken = false;
  /// For Load/Store: the effective word address.
  uint64_t MemAddr = 0;
};

/// Architectural state + stepper.
///
/// Memory is a flat array of 64-bit words; effective addresses wrap (are
/// masked) to the memory size, so every program is memory-safe by
/// construction.  r0 reads as zero.  Ret in main (empty call stack) halts.
class Emulator {
public:
  /// \p MemoryImage is the input data set; it is copied so one image can
  /// drive many runs.  Memory is padded to the next power of two, at least
  /// 64K words.
  Emulator(const ir::Program &P, const std::vector<int64_t> &MemoryImage);

  /// Executes one instruction over the predecoded fast path.  Returns false
  /// (and leaves \p Out untouched) when the program has halted.
  ///
  /// One flat switch covers every opcode — a single dispatch per step, like
  /// the reference interpreter, but over the dense DecodedInstr record with
  /// pre-resolved targets and unconditional register reads.
  bool step(DynInstr &Out) {
    if (Halted)
      return false;
    const DecodedInstr &D = Code[PC];
    Out.I = D.Src;
    Out.Addr = PC;
    Out.Taken = false;
    Out.MemAddr = 0;
    uint32_t Next = PC + 1;
    switch (D.Op) {
    case ir::Opcode::Add:
      writeReg(D.Dst, isa::wrapAdd(Regs[D.Src1], Regs[D.Src2]));
      break;
    case ir::Opcode::Sub:
      writeReg(D.Dst, isa::wrapSub(Regs[D.Src1], Regs[D.Src2]));
      break;
    case ir::Opcode::Mul:
      writeReg(D.Dst, isa::wrapMul(Regs[D.Src1], Regs[D.Src2]));
      break;
    case ir::Opcode::Div:
      writeReg(D.Dst, isa::wrapDiv(Regs[D.Src1], Regs[D.Src2]));
      break;
    case ir::Opcode::And:
      writeReg(D.Dst, Regs[D.Src1] & Regs[D.Src2]);
      break;
    case ir::Opcode::Or:
      writeReg(D.Dst, Regs[D.Src1] | Regs[D.Src2]);
      break;
    case ir::Opcode::Xor:
      writeReg(D.Dst, Regs[D.Src1] ^ Regs[D.Src2]);
      break;
    case ir::Opcode::Shl:
      writeReg(D.Dst, isa::wrapShl(Regs[D.Src1],
                                   static_cast<uint64_t>(Regs[D.Src2])));
      break;
    case ir::Opcode::Shr:
      writeReg(D.Dst, static_cast<int64_t>(
                          static_cast<uint64_t>(Regs[D.Src1]) >>
                          (static_cast<uint64_t>(Regs[D.Src2]) & 63)));
      break;
    case ir::Opcode::Slt:
      writeReg(D.Dst, Regs[D.Src1] < Regs[D.Src2] ? 1 : 0);
      break;
    case ir::Opcode::AddI:
      writeReg(D.Dst, isa::wrapAdd(Regs[D.Src1], D.Imm));
      break;
    case ir::Opcode::MulI:
      writeReg(D.Dst, isa::wrapMul(Regs[D.Src1], D.Imm));
      break;
    case ir::Opcode::AndI:
      writeReg(D.Dst, Regs[D.Src1] & D.Imm);
      break;
    case ir::Opcode::SltI:
      writeReg(D.Dst, Regs[D.Src1] < D.Imm ? 1 : 0);
      break;
    case ir::Opcode::LoadImm:
      writeReg(D.Dst, D.Imm);
      break;
    case ir::Opcode::Load: {
      const uint64_t Addr =
          static_cast<uint64_t>(isa::wrapAdd(Regs[D.Src1], D.Imm)) & AddrMask;
      Out.MemAddr = Addr;
      writeReg(D.Dst, Memory[Addr]);
      break;
    }
    case ir::Opcode::Store: {
      const uint64_t Addr =
          static_cast<uint64_t>(isa::wrapAdd(Regs[D.Src1], D.Imm)) & AddrMask;
      Out.MemAddr = Addr;
      Memory[Addr] = Regs[D.Src2];
      break;
    }
    case ir::Opcode::CondBr:
      Out.Taken = isa::evalCond(D.Cond, Regs[D.Src1], Regs[D.Src2]);
      if (Out.Taken)
        Next = D.Target;
      break;
    case ir::Opcode::Jmp:
      Next = D.Target;
      break;
    case ir::Opcode::Call:
      CallStack.push_back(PC + 1);
      Next = D.Target;
      break;
    case ir::Opcode::Ret:
      if (CallStack.empty()) {
        Halted = true;
        Next = PC;
      } else {
        Next = CallStack.back();
        CallStack.pop_back();
      }
      break;
    case ir::Opcode::Nop:
      break;
    case ir::Opcode::Halt:
      Halted = true;
      Next = PC;
      break;
    }
    Out.NextAddr = Next;
    PC = Next;
    ++Executed;
    return true;
  }

  /// Executes until \p MaxInstrs instructions have retired in total or the
  /// program halts — bit-identical in final state to
  /// `DynInstr D; while (executedCount() < MaxInstrs && step(D));` but
  /// retires straight-line runs in a batch, without materializing DynInstr
  /// records or re-checking halt/budget per instruction.  A run that ends
  /// at a block leader continues with the next block's run; a budget of
  /// executedCount() plus the RunLen at pc() retires the straight-line
  /// rest of the current block and stops on its control instruction or
  /// the next leader.
  void run(uint64_t MaxInstrs);

  /// Executes one instruction by re-decoding from the IR — the original
  /// interpreter loop, preserved as the reference semantics for the
  /// differential tests and the fuzz oracle.  Interchangeable with step()
  /// at any instruction boundary.
  bool stepReference(DynInstr &Out);

  bool isHalted() const { return Halted; }
  uint64_t executedCount() const { return Executed; }

  int64_t reg(ir::Reg R) const { return R == ir::RegZero ? 0 : Regs[R]; }
  int64_t memWord(uint64_t WordAddr) const {
    return Memory[WordAddr & AddrMask];
  }
  /// Size of the (padded) memory image, in 64-bit words.
  uint64_t memoryWords() const { return Memory.size(); }
  uint32_t pc() const { return PC; }
  size_t callDepth() const { return CallStack.size(); }

private:
  /// r0 is hardwired to zero: writes are dropped, which keeps Regs[0] == 0
  /// forever and lets every read be a plain array load.
  void writeReg(ir::Reg R, int64_t V) {
    if (R != ir::RegZero)
      Regs[R] = V;
  }

  const ir::Program &P;
  /// Flat decoded array, owned by the Program's decode cache (valid as long
  /// as P is).
  const DecodedInstr *Code;
  std::vector<int64_t> Memory;
  uint64_t AddrMask;
  int64_t Regs[ir::NumRegs] = {};
  uint32_t PC = 0;
  std::vector<uint32_t> CallStack;
  bool Halted = false;
  uint64_t Executed = 0;
};

} // namespace dmp::profile

#endif // DMP_PROFILE_EMULATOR_H
