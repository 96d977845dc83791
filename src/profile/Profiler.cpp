//===- profile/Profiler.cpp - Profile collection -------------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "profile/Profiler.h"

#include "profile/Emulator.h"

#include <algorithm>

using namespace dmp;
using namespace dmp::profile;

double ProfileData::profileMPKI() const {
  if (DynamicInstrs == 0)
    return 0.0;
  return 1000.0 * static_cast<double>(Branches.totalMispredictions()) /
         static_cast<double>(DynamicInstrs);
}

uint64_t BranchProfile::totalMispredictions() const {
  uint64_t Total = 0;
  for (const auto &Entry : Stats)
    Total += Entry.second.Mispredicted;
  return Total;
}

namespace {

/// Tracks loop invocations/iterations along the dynamic execution, frame by
/// frame so that calls inside loops do not disturb the caller's loop state.
///
/// Per-loop dynamic-instruction counts are span-based: a loop remains
/// active continuously from open to close, so instead of bumping a map
/// entry for every active loop on every instruction (the old hot path),
/// each active loop records the executed-instruction count at open time
/// and the close charges the whole span at once.  Counting conventions
/// match the old per-instruction scheme exactly: an instruction is charged
/// to every loop active while it executed, where loops closed by entering
/// a non-member block stop *before* the entering instruction, and loops
/// closed by Ret (or end of run) still count the closing instruction.
class LoopTracker {
public:
  explicit LoopTracker(LoopProfile &Out) : Out(Out) { Frames.emplace_back(); }

  /// \p Innermost is the innermost loop containing \p Block (nullptr when
  /// none); \p Executed is the emulator's executedCount() right after
  /// stepping the first instruction of \p Block.
  void onBlockEntry(const ir::BasicBlock *Block, const cfg::Loop *Innermost,
                    uint64_t Executed) {
    auto &Active = Frames.back();

    // The common case: the block stays in the innermost active loop (or in
    // no loop at all).  Every loop around an active loop is active below
    // it, so nothing closes or opens; only a header entry counts.
    if (Innermost == (Active.empty() ? nullptr : Active.back().L)) {
      if (Innermost && Innermost->getHeader() == Block)
        ++Active.back().Iterations;
      return;
    }

    // Close loops that no longer contain the new block.  Their span ends
    // before the entering instruction, which executed outside the loop.
    while (!Active.empty() && !Active.back().L->contains(Block))
      closeTop(Executed);

    // Open the chain of loops that contain the block and are not active,
    // outermost first.  The entering instruction itself (already stepped)
    // is the first one charged to them.
    std::vector<const cfg::Loop *> ToOpen;
    for (const cfg::Loop *L = Innermost; L; L = L->getParent()) {
      const bool AlreadyActive =
          std::any_of(Active.begin(), Active.end(),
                      [L](const ActiveLoop &A) { return A.L == L; });
      if (!AlreadyActive)
        ToOpen.push_back(L);
    }
    for (auto It = ToOpen.rbegin(); It != ToOpen.rend(); ++It)
      Active.push_back({*It, 1, Executed});

    // A back edge into the header of the innermost active loop is a new
    // iteration.
    if (!Active.empty() && Active.back().L->getHeader() == Block &&
        ToOpen.empty())
      ++Active.back().Iterations;
  }

  void onCall() { Frames.emplace_back(); }

  /// \p Executed is the executedCount() right after stepping the Ret, which
  /// is charged to the loops it closes.
  void onRet(uint64_t Executed) {
    while (!Frames.back().empty())
      closeTop(Executed + 1);
    if (Frames.size() > 1)
      Frames.pop_back();
  }

  /// Closes everything still active at end of run; the last executed
  /// instruction is charged to all of them.
  void finish(uint64_t Executed) {
    while (Frames.size() > 1)
      onRet(Executed);
    while (!Frames.back().empty())
      closeTop(Executed + 1);
  }

private:
  struct ActiveLoop {
    const cfg::Loop *L;
    uint64_t Iterations;
    /// executedCount() when the loop was opened (the open instruction has
    /// already been stepped, so it is the first one inside the span).
    uint64_t OpenExecuted;
  };

  /// Closes the innermost active loop.  \p At is the exclusive end of its
  /// instruction span, in executedCount() units: the count right after the
  /// last instruction charged to the loop.
  void closeTop(uint64_t At) {
    auto &Active = Frames.back();
    const ActiveLoop &A = Active.back();
    LoopStats &S = Out.statsFor(A.L->getHeader()->getStartAddr());
    S.Iterations.addSample(A.Iterations);
    ++S.Invocations;
    S.DynamicInstrs += At - A.OpenExecuted;
    Active.pop_back();
  }

  LoopProfile &Out;
  std::vector<std::vector<ActiveLoop>> Frames;
};

} // namespace

ProfileData profile::collectProfile(const ir::Program &P,
                                    const cfg::ProgramAnalysis &PA,
                                    const std::vector<int64_t> &MemoryImage,
                                    const ProfileOptions &Options) {
  ProfileData Data;
  Emulator Emu(P, MemoryImage);
  const DecodedInstr *const Code = DecodedProgram::of(P).data();
  auto Predictor = uarch::createPredictor(Options.Predictor);
  LoopTracker Loops(Data.Loops);

  // The block starting at each address (a null Block inside a block) with
  // its innermost loop, so a block entry costs one load.
  struct Leader {
    const ir::BasicBlock *Block = nullptr;
    const cfg::Loop *Innermost = nullptr;
  };
  std::vector<Leader> LeaderAt(P.instrCount());
  for (const auto &F : P.functions()) {
    const cfg::LoopInfo &LI = PA.forFunction(*F).LI;
    for (const auto &B : F->blocks())
      if (B->instrCount() != 0)
        LeaderAt[B->getStartAddr()] = {B.get(), LI.loopFor(B.get())};
  }

  // Dense per-address counters, folded into the sparse profiles at the end.
  struct PcCounts {
    uint64_t Entries = 0;
    uint64_t Taken = 0;
    uint64_t NotTaken = 0;
    uint64_t Mispredicted = 0;
  };
  std::vector<PcCounts> Counts(P.instrCount());

  // One iteration per block body and one per control instruction: the
  // body runs through run()'s batched dispatch (DecodedInstr::RunLen stops
  // at the next block leader or control instruction), and only the
  // control instruction is stepped.
  const uint64_t MaxInstrs = Options.MaxInstrs;
  DynInstr Inst;
  while (Emu.executedCount() < MaxInstrs && !Emu.isHalted()) {
    const uint32_t PC = Emu.pc();
    if (const Leader &L = LeaderAt[PC]; L.Block) {
      ++Counts[PC].Entries;
      // The count right after the entering instruction retires.
      Loops.onBlockEntry(L.Block, L.Innermost, Emu.executedCount() + 1);
    }
    if (const uint32_t Run = Code[PC].RunLen) {
      Emu.run(std::min(MaxInstrs, Emu.executedCount() + Run));
      continue;
    }

    Emu.step(Inst);
    switch (Code[PC].Op) {
    case ir::Opcode::CondBr: {
      const bool Predicted = Predictor->predict(PC);
      Predictor->update(PC, Inst.Taken);
      PcCounts &C = Counts[PC];
      ++(Inst.Taken ? C.Taken : C.NotTaken);
      if (Predicted != Inst.Taken)
        ++C.Mispredicted;
      break;
    }
    case ir::Opcode::Call:
      Loops.onCall();
      break;
    case ir::Opcode::Ret:
      Loops.onRet(Emu.executedCount());
      break;
    default:
      break;
    }
  }

  for (uint32_t Addr = 0; Addr < Counts.size(); ++Addr) {
    const PcCounts &C = Counts[Addr];
    if (C.Entries != 0)
      Data.Edges.setBlockExecCount(Addr, C.Entries);
    if (const uint64_t Executed = C.Taken + C.NotTaken) {
      Data.Edges.setBranchCounts(Addr, {C.Taken, C.NotTaken});
      Data.Branches.setStats(Addr, {Executed, C.Taken, C.Mispredicted});
    }
  }
  Loops.finish(Emu.executedCount());
  Data.DynamicInstrs = Emu.executedCount();
  Data.Completed = Emu.isHalted();
  return Data;
}
