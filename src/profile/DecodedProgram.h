//===- profile/DecodedProgram.h - Predecoded instruction array ----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flat predecoded form of an ir::Program, built once per program and shared
/// by every emulator over it.  Each DecodedInstr carries all operand fields
/// by value and branch/call targets resolved to flat addresses, so the
/// emulator's hot loop touches one dense 32-byte record per instruction
/// instead of chasing Instruction -> BasicBlock/Function pointers.
///
/// Decoding is pure caching: it must never change architectural semantics.
/// The digest-identity contract (DESIGN.md) is enforced by the differential
/// tests in tests/test_throughput_diff.cpp, which compare this fast path
/// against Emulator::stepReference() instruction by instruction.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_PROFILE_DECODEDPROGRAM_H
#define DMP_PROFILE_DECODEDPROGRAM_H

#include "ir/Instruction.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace dmp::profile {

/// Guest integer semantics, shared by the decoded fast path and the
/// reference interpreter: two's-complement wraparound mod 2^64, computed in
/// unsigned so host signed-overflow UB never enters the emulated ISA.
namespace isa {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t wrapShl(int64_t A, uint64_t Shamt) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) << (Shamt & 63));
}
/// x/0 = 0 and INT64_MIN/-1 wraps to itself, so the host division is never
/// undefined (mirrors the Div case of the reference interpreter).
inline int64_t wrapDiv(int64_t Num, int64_t Den) {
  return Den == 0                          ? 0
         : (Num == INT64_MIN && Den == -1) ? Num
                                           : Num / Den;
}
/// Branch-condition evaluation; semantics identical to
/// ir::Instruction::evalCond but on a bare BrCond so the decoded path never
/// touches the Instruction record.
inline bool evalCond(ir::BrCond C, int64_t A, int64_t B) {
  switch (C) {
  case ir::BrCond::Eq:
    return A == B;
  case ir::BrCond::Ne:
    return A != B;
  case ir::BrCond::Lt:
    return A < B;
  case ir::BrCond::Ge:
    return A >= B;
  case ir::BrCond::Ltu:
    return static_cast<uint64_t>(A) < static_cast<uint64_t>(B);
  case ir::BrCond::Geu:
    return static_cast<uint64_t>(A) >= static_cast<uint64_t>(B);
  }
  return false; // Unreachable for valid BrCond values.
}

} // namespace isa

/// Extended dispatch-op space for the batched interpreter loop: values
/// 0..22 are the ir::Opcode values verbatim; values from FirstFused up are
/// superops — adjacent instruction groups fused at decode time so the hot
/// loop pays one dispatch for the whole group.  Fusion is purely a dispatch
/// accelerator: each fused handler executes the member records' own
/// operand fields with unchanged architectural semantics, and every
/// address keeps its own (greedily longest) FuseOp, so control flow that
/// enters the middle of a group re-dispatches there exactly.
namespace fuse {
enum : uint8_t {
  FirstFused = 23,
  /// AddI; Xor; Add — the dominant ALU triple of the generated workloads.
  AddIXorAdd = FirstFused,
  /// Two consecutive AddI; Xor; Add triples (one dispatch per six ops).
  AddIXorAdd2,
  AddIXor,
  XorAdd,
  AddAddI,
  NumDispatchOps,
};
} // namespace fuse

/// One predecoded instruction.  32 bytes, address-indexed, immutable after
/// construction.
struct DecodedInstr {
  int64_t Imm = 0;
  /// Canonical IR instruction (for DynInstr::I and any client introspection).
  const ir::Instruction *Src = nullptr;
  /// Resolved control-transfer target: taken target of CondBr, target of
  /// Jmp, callee entry of Call.  Zero otherwise.
  uint32_t Target = 0;
  /// Number of consecutive non-control-flow instructions starting at this
  /// address (including this one) up to the next block leader or control
  /// instruction; 0 when this instruction itself may transfer control.  A
  /// run of RunLen instructions always falls through and stays inside one
  /// basic block, so the emulator can retire the whole run without
  /// per-instruction next-PC or halt checks, and the profiler can count a
  /// block entry per run (Emulator::run).
  uint32_t RunLen = 0;
  ir::Opcode Op = ir::Opcode::Nop;
  ir::BrCond Cond = ir::BrCond::Eq;
  ir::Reg Dst = 0;
  ir::Reg Src1 = 0;
  ir::Reg Src2 = 0;
  /// Dispatch op for run(): the base opcode, or a fuse:: superop covering
  /// this and the following record(s).  A group never extends past the
  /// containing straight-line run (group size <= RunLen), so never past a
  /// block leader.
  uint8_t FuseOp = static_cast<uint8_t>(ir::Opcode::Nop);
};

/// The decoded-instruction cache for one program.  Obtain via of(); the
/// instance is built once (thread-safe) and owned by the Program, so it is
/// valid exactly as long as the Program is.
class DecodedProgram {
public:
  /// The decoded form of \p P, building it on first use.
  static const DecodedProgram &of(const ir::Program &P);

  const DecodedInstr *data() const { return Instrs.data(); }
  uint32_t size() const { return static_cast<uint32_t>(Instrs.size()); }
  const DecodedInstr &at(uint32_t Addr) const {
    assert(Addr < Instrs.size() && "address out of range");
    return Instrs[Addr];
  }

private:
  explicit DecodedProgram(const ir::Program &P);

  std::vector<DecodedInstr> Instrs;
};

} // namespace dmp::profile

#endif // DMP_PROFILE_DECODEDPROGRAM_H
