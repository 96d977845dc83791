//===- dataflow/Dataflow.h - Concrete dataflow analyses -----------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete analyses built on the generic solver (dataflow/Solver.h):
///
///   liveness             backward/union: which registers may be read
///                        before their next write.
///   definite assignment  forward/intersect: which registers are written
///                        on *every* path from program entry (the whole-
///                        program generalization of IRLint's old IR15
///                        maybe-undef sweep).
///   block effects        per-block side-effect summaries (stores, loads,
///                        calls, halts, rets) consumed by CfmLegality's
///                        exact-CFM cross-check (DF01).
///
/// The per-function primitives take explicit call-boundary summaries (what
/// a Call uses/defines) so they stay context-free and property-testable;
/// ProgramDataflow is the whole-program driver that iterates the function-
/// level facts to their own fixed point:
///
///   EntryAssigned[f] = meet over call sites of assigned-before-call
///   ExitAssigned[f]  = meet over f's ret blocks of assigned-at-ret
///   MustDef[f]       = ExitAssigned computed from an empty entry set
///   RetLive[f]       = join over call sites of live-after-call
///   LiveIn[f]        = live-in of f's entry block
///
/// All summary updates are monotone (the assigned sets only shrink from
/// their optimistic all-ones start, the live sets only grow from empty),
/// so the outer iteration converges; the rounds are exposed for tests.
///
/// Soundness contract (validated dynamically by dataflow/Soundness.h
/// against the emulator's retired-instruction trace): a register the
/// analysis claims definitely-assigned before an instruction has always
/// been written when that instruction retires, and a register claimed
/// dead after an instruction is never read again before being written.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_DATAFLOW_DATAFLOW_H
#define DMP_DATAFLOW_DATAFLOW_H

#include "dataflow/Solver.h"
#include "ir/Program.h"

#include <cstdint>
#include <vector>

namespace dmp::dataflow {

/// One bit per architectural register (ir::NumRegs == 32 exactly).
using RegSet = uint32_t;
inline constexpr RegSet AllRegs = ~static_cast<RegSet>(0);
inline constexpr RegSet ZeroRegBit = 1u; // r0, always assigned, never dead.

inline RegSet regBit(ir::Reg R) { return RegSet(1) << R; }

/// Registers \p I reads (per-opcode Src1/Src2 usage).
RegSet instrUses(const ir::Instruction &I);
/// Register \p I writes, as a set (empty for non-writing opcodes and for
/// writes to r0, which the hardware drops).
RegSet instrDefs(const ir::Instruction &I);

/// What a Call instruction does at a function boundary, from the caller's
/// point of view.  Pass zeros to treat calls as transparent (the intra-
/// function configuration the property tests exercise).
struct CallEffect {
  RegSet Uses = 0; ///< Registers the callee may read before writing.
  RegSet Defs = 0; ///< Registers the callee writes on every return path.
};

/// Resolves the CallEffect of one callee; per-function analyses take this
/// as a parameter so the whole-program driver can thread its current
/// summaries through without a layering cycle.
using CallEffectFn = CallEffect (*)(const ir::Function &Callee, void *Ctx);

/// Per-function liveness facts (backward, union).
struct LivenessResult {
  std::vector<RegSet> LiveIn;  ///< Per block id.
  std::vector<RegSet> LiveOut; ///< Per block id.
  unsigned Rounds = 0;
};

/// Liveness over one function.  \p RetLiveOut is the live-out of every Ret
/// block (the caller's demand; Halt blocks always get an empty live-out).
/// \p CallFn (optional) maps Call instructions to their boundary effect.
LivenessResult computeLiveness(const cfg::CFGView &View, RegSet RetLiveOut,
                               CallEffectFn CallFn = nullptr,
                               void *CallCtx = nullptr);

/// Per-function definite-assignment facts (forward, intersect).
struct DefiniteAssignResult {
  std::vector<RegSet> AssignedIn;  ///< Per block id.
  std::vector<RegSet> AssignedOut; ///< Per block id.
  unsigned Rounds = 0;
};

/// Definite assignment over one function: a register is in AssignedIn[b]
/// when every path from the function entry (seeded with \p EntryAssigned)
/// writes it before reaching b.  Calls add CallEffect::Defs.
DefiniteAssignResult computeDefiniteAssign(const cfg::CFGView &View,
                                           RegSet EntryAssigned,
                                           CallEffectFn CallFn = nullptr,
                                           void *CallCtx = nullptr);

/// Per-block side-effect summary.
struct BlockEffects {
  uint32_t Stores = 0;
  uint32_t Loads = 0;
  uint32_t Calls = 0;
  bool HasHalt = false;
  bool HasRet = false;

  bool pure() const {
    return Stores == 0 && Calls == 0 && !HasHalt && !HasRet;
  }
};

std::vector<BlockEffects> computeBlockEffects(const cfg::CFGView &View);

/// Whole-program dataflow: runs the per-function analyses with
/// interprocedural call/return boundaries iterated to a fixed point, then
/// flattens per-instruction facts over the program's address space.
///
/// The program must be finalized and structurally valid (IRLint-clean at
/// error severity): CFGView construction assumes well-formed blocks.
class ProgramDataflow {
public:
  explicit ProgramDataflow(const ir::Program &P);

  const ir::Program &getProgram() const { return P; }

  /// Function-boundary summaries, indexed by ir::Function::getId().
  struct FunctionSummary {
    RegSet EntryAssigned = AllRegs; ///< Meet over call sites (main: {r0}).
    RegSet ExitAssigned = AllRegs;  ///< Assigned at every ret, given entry.
    RegSet MustDef = AllRegs;       ///< Assigned at every ret, empty entry.
    RegSet LiveInEntry = 0;         ///< May be read before written.
    RegSet RetLive = 0;             ///< Join of live-after over call sites.
  };

  const FunctionSummary &summary(const ir::Function &F) const {
    return Summaries[F.getId()];
  }
  const LivenessResult &liveness(const ir::Function &F) const {
    return Live[F.getId()];
  }
  const DefiniteAssignResult &definiteAssign(const ir::Function &F) const {
    return Assign[F.getId()];
  }
  const std::vector<BlockEffects> &effects(const ir::Function &F) const {
    return Effects[F.getId()];
  }

  /// Registers definitely written before the instruction at \p Addr
  /// executes (r0 always included).
  RegSet assignedBefore(uint32_t Addr) const { return AssignedBeforeFlat[Addr]; }

  /// Registers that may still be read before their next write once the
  /// instruction at \p Addr has executed.  The complement (minus r0) is
  /// the set of dead registers at that point.
  RegSet liveAfter(uint32_t Addr) const { return LiveAfterFlat[Addr]; }

  /// Outer (function-summary) fixpoint rounds; tests pin convergence.
  unsigned interRounds() const { return InterRounds; }

private:
  void solveFunctions();
  void flattenInstructionFacts();

  const ir::Program &P;
  std::vector<FunctionSummary> Summaries;
  std::vector<LivenessResult> Live;
  std::vector<DefiniteAssignResult> Assign;
  std::vector<std::vector<BlockEffects>> Effects;
  std::vector<RegSet> AssignedBeforeFlat;
  std::vector<RegSet> LiveAfterFlat;
  unsigned InterRounds = 0;
};

} // namespace dmp::dataflow

#endif // DMP_DATAFLOW_DATAFLOW_H
