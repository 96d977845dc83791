//===- sim/DmpCore.cpp - Cycle-level DMP out-of-order core --------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/DmpCore.h"

#include "sim/WrongPathWalker.h"

#include <algorithm>

using namespace dmp;
using namespace dmp::ir;
using namespace dmp::sim;

DmpCore::DmpCore(const Program &P, const core::DivergeMap *Diverge,
                 const SimConfig &Config)
    : P(P), Code(profile::DecodedProgram::of(P)), Diverge(Diverge),
      Config(Config), DmpEnabled(Config.EnableDmp && Diverge != nullptr),
      NeedsPredictor(DmpEnabled && Diverge->size() != 0),
      FetchWidth(Config.FetchWidth), RetireWidth(Config.RetireWidth),
      MaxNtBranches(Config.MaxNotTakenBranchesPerFetch),
      FrontEndDepth(Config.FrontEndDepth), RobSize(Config.RobSize),
      FetchL2Penalty(Config.Memory.L2Latency),
      FetchMemPenalty(Config.Memory.L2Latency + Config.Memory.MemoryLatency),
      LoadDL1Latency(Config.Memory.DL1Latency),
      LoadL2Latency(Config.Memory.DL1Latency + Config.Memory.L2Latency),
      LoadMemLatency(Config.Memory.DL1Latency + Config.Memory.L2Latency +
                     Config.Memory.MemoryLatency),
      Predictor(NeedsPredictor ? uarch::createPredictor(Config.Predictor)
                               : nullptr),
      IssuePorts(Config.IssueWidth), RobRetireRing(Config.RobSize, 0) {
  for (unsigned OpVal = 0; OpVal < NumOpcodeValues; ++OpVal)
    OpLatency[OpVal] = static_cast<uint8_t>(
        Config.latencyFor(static_cast<Opcode>(OpVal)));
  // Write latency is hidden by the store buffer.
  OpLatency[static_cast<unsigned>(Opcode::Store)] = 1;
  CallStack.reserve(64);
}

//===----------------------------------------------------------------------===//
// Fetch engine
//===----------------------------------------------------------------------===//

void DmpCore::redirectFetch(uint64_t Cycle) {
  if (Cycle > FetchCycle) {
    FetchCycle = Cycle;
    SlotsUsed = 0;
    NtBranchesThisCycle = 0;
  } else {
    // Redirect into the past cannot happen; same-cycle redirect restarts
    // the fetch group.
    SlotsUsed = 0;
    NtBranchesThisCycle = 0;
  }
}

void DmpCore::consumeFetchSlots(unsigned Count) {
  for (unsigned I = 0; I < Count; ++I) {
    if (SlotsUsed >= FetchWidth) {
      ++FetchCycle;
      SlotsUsed = 0;
      NtBranchesThisCycle = 0;
    }
    ++SlotsUsed;
  }
}

uint64_t DmpCore::fetchInstr(Opcode Op, bool PredictedTaken, unsigned Events) {
  // ROB back-pressure: instruction i cannot fetch before instruction
  // i - RobSize retires.
  const uint64_t RobGate = RobRetireRing[RobCursor];
  if (RobGate > FetchCycle)
    redirectFetch(RobGate);

  // I-cache: the recorder charged the line once, when fetch crossed into
  // it; a miss costs the L2 or memory latency beyond the IL1 hit.
  if (DMP_UNLIKELY(Events & (evBit(CorrectPathTrace::FetchL2) |
                             evBit(CorrectPathTrace::FetchMem)))) {
    FetchCycle += (Events & evBit(CorrectPathTrace::FetchL2)) ? FetchL2Penalty
                                                              : FetchMemPenalty;
    SlotsUsed = 0;
    NtBranchesThisCycle = 0;
  }

  if (SlotsUsed >= FetchWidth) {
    ++FetchCycle;
    SlotsUsed = 0;
    NtBranchesThisCycle = 0;
  }

  const bool IsCondBr = Op == Opcode::CondBr;
  if (IsCondBr && !PredictedTaken) {
    if (NtBranchesThisCycle >= MaxNtBranches) {
      ++FetchCycle;
      SlotsUsed = 0;
      NtBranchesThisCycle = 0;
    }
    ++NtBranchesThisCycle;
  }

  const uint64_t Assigned = FetchCycle;
  ++SlotsUsed;

  // In dpred-mode the front end alternates between the two paths: each
  // correct-path instruction costs one extra slot while the wrong path is
  // still being fetched.
  if (Ep.Active && !Ep.IsLoop && Ep.WrongRemaining > 0) {
    consumeFetchSlots(1);
    --Ep.WrongRemaining;
  }

  // Taken control transfers end the fetch group; taken-predicted branches
  // additionally need the BTB for their target.
  const bool TakenTransfer = (IsCondBr && PredictedTaken) ||
                             Op == Opcode::Jmp || Op == Opcode::Call ||
                             Op == Opcode::Ret;
  if (TakenTransfer) {
    SlotsUsed = FetchWidth; // group break
    if (Events & evBit(CorrectPathTrace::BtbMiss)) {
      ++Stats.BtbMissBubbles;
      ++FetchCycle;
    }
  }
  return Assigned;
}

//===----------------------------------------------------------------------===//
// Dataflow schedule
//===----------------------------------------------------------------------===//

uint64_t DmpCore::scheduleInstr(const profile::DecodedInstr &D,
                                uint64_t FetchedAt, unsigned Events) {
  const Opcode Op = D.Op;
  uint64_t Ready = FetchedAt + FrontEndDepth;
  if (readsSrc1(Op) && D.Src1 != RegZero)
    Ready = std::max(Ready, RegReady[D.Src1]);
  if (readsSrc2(Op) && D.Src2 != RegZero)
    Ready = std::max(Ready, RegReady[D.Src2]);

  const uint64_t ExecStart = IssuePorts.reserve(Ready);

  unsigned Latency;
  if (Op == Opcode::Load)
    Latency = (Events & evBit(CorrectPathTrace::LoadL2))    ? LoadL2Latency
              : (Events & evBit(CorrectPathTrace::LoadMem)) ? LoadMemLatency
                                                            : LoadDL1Latency;
  else
    Latency = OpLatency[static_cast<unsigned>(Op)];
  const uint64_t Done = ExecStart + Latency;
  if (writesRegister(Op))
    RegReady[D.Dst] = Done;
  return Done;
}

void DmpCore::chargeWrongPathIssue(unsigned Ops, uint64_t FetchedAt) {
  const uint64_t Base = FetchedAt + FrontEndDepth;
  for (unsigned K = 0; K < Ops; ++K)
    IssuePorts.reserve(Base + K / FetchWidth);
}

void DmpCore::occupyRobPhantoms(unsigned Count, uint64_t RetireCycle) {
  for (unsigned K = 0; K < Count; ++K) {
    RobRetireRing[RobCursor] = RetireCycle;
    advanceRobCursor();
  }
}

uint64_t DmpCore::retireInstr(uint64_t DoneCycle) {
  // In-order retirement books cycles monotonically, so the full
  // CycleResource ring reduces to the last retire cycle plus the number of
  // retires already booked in it: a new cycle starts with one retire, and a
  // full cycle pushes the retire to the next one.
  uint64_t Retire = std::max(DoneCycle + 1, LastRetireCycle);
  if (Retire != LastRetireCycle)
    RetiresThisCycle = 0;
  else if (RetiresThisCycle >= RetireWidth) {
    ++Retire;
    RetiresThisCycle = 0;
  }
  ++RetiresThisCycle;
  LastRetireCycle = Retire;
  RobRetireRing[RobCursor] = Retire;
  advanceRobCursor();
  return Retire;
}

//===----------------------------------------------------------------------===//
// dpred-mode
//===----------------------------------------------------------------------===//

bool DmpCore::isCfmAddr(uint32_t Addr) const {
  for (const core::CfmPoint &Cfm : Ep.Ann->Cfms)
    if (Cfm.PointKind == core::CfmPoint::Kind::Address && Cfm.Addr == Addr)
      return true;
  return false;
}

bool DmpCore::hasReturnCfm() const {
  for (const core::CfmPoint &Cfm : Ep.Ann->Cfms)
    if (Cfm.PointKind == core::CfmPoint::Kind::Return)
      return true;
  return false;
}

void DmpCore::insertSelectUops(unsigned Count, uint64_t AtCycle) {
  if (Count == 0)
    return;
  consumeFetchSlots(Count);
  Stats.SelectUops += Count;
  // Select-µops serialize the merged registers for one cycle.
  const uint64_t Avail = AtCycle + FrontEndDepth + 1;
  for (uint8_t R : Ep.WrittenRegs)
    RegReady[R] = std::max(RegReady[R], Avail);
}

void DmpCore::enterHammockDpred(const core::DivergeAnnotation &Ann,
                                const Retired &R, uint64_t FetchedAt,
                                uint64_t DoneCycle, bool Mispredicted) {
  Ep = DpredEpisode();
  Ep.Active = true;
  Ep.Ann = &Ann;
  Ep.ResolveCycle = DoneCycle;
  Ep.BranchMispredicted = Mispredicted;
  Ep.AlwaysPredicated = Ann.AlwaysPredicate;
  Ep.EntryCallDepth = CallStack.size();

  ++Stats.DpredEntries;
  if (Ann.AlwaysPredicate)
    ++Stats.DpredEntriesAlways;
  if (!Mispredicted)
    ++Stats.DpredWastedEntries;

  // The wrong path starts at the direction the program did not take.  It
  // can only fetch until the diverge branch resolves, at roughly half the
  // front-end bandwidth (the two paths alternate), so the walk is bounded
  // by both the window budget and the resolution-time fetch budget.
  const uint32_t WrongStart = R.taken() ? R.Addr + 1 : R.D->Target;
  const uint64_t CyclesToResolve =
      DoneCycle > FetchedAt ? DoneCycle - FetchedAt : 1;
  const unsigned FetchBudget = static_cast<unsigned>(std::min<uint64_t>(
      Config.MaxDpredInstrs,
      CyclesToResolve * Config.FetchWidth / 2 + Config.FetchWidth));
  const WrongPathResult WP =
      walkWrongPath(P, *Predictor, Ann, WrongStart, FetchBudget);
  Ep.WrongRemaining = WP.InstrsFetched;
  Ep.WrongReachedCfm = WP.ReachedCfm;
  Ep.WrongCfmAddr = WP.ReachedCfmAddr;
  Ep.WrittenRegs = WP.WrittenRegs;
  Stats.UselessDpredInstrs += WP.InstrsFetched;
  chargeWrongPathIssue(WP.IssueOps, FetchedAt);
  occupyRobPhantoms(WP.InstrsFetched, DoneCycle + 1);
}

void DmpCore::enterLoopDpred(const core::DivergeAnnotation &Ann,
                             const Retired &R, uint64_t DoneCycle,
                             bool Mispredicted) {
  Ep = DpredEpisode();
  Ep.Active = true;
  Ep.IsLoop = true;
  Ep.Ann = &Ann;
  Ep.ResolveCycle = DoneCycle;
  Ep.BranchMispredicted = Mispredicted;
  Ep.LoopBranchAddr = R.Addr;
  ++Stats.DpredEntries;
  ++Stats.DpredEntriesLoop;
  if (!Mispredicted)
    ++Stats.DpredWastedEntries;
}

void DmpCore::checkDpredProgress(uint32_t Addr) {
  assert(Ep.Active && !Ep.IsLoop && "hammock progress without episode");

  const bool CorrectAtCfm = Ep.MergePendingAfterRet || isCfmAddr(Addr);
  if (CorrectAtCfm) {
    // Both paths must arrive at the *same* CFM point to merge (Section
    // 2.2); a return CFM matches any top-level return on both sides.
    const bool SameCfm =
        Ep.MergePendingAfterRet || Ep.WrongCfmAddr == Addr;
    if (Ep.WrongReachedCfm && SameCfm) {
      // The slower path finishes fetching alone, then the paths merge.
      if (Ep.WrongRemaining > 0) {
        consumeFetchSlots(Ep.WrongRemaining);
        Ep.WrongRemaining = 0;
      }
      mergeDpred();
    } else {
      // The wrong path never reaches a CFM: fetch stalls until the diverge
      // branch resolves, then the wrong path is squashed into NOPs.
      redirectFetch(std::max(FetchCycle, Ep.ResolveCycle + 1));
      endDpredAtResolve();
    }
    return;
  }

  // Window full, or the diverge branch resolved before the paths merged.
  if (Ep.CorrectFetched >= Config.MaxDpredInstrs ||
      FetchCycle > Ep.ResolveCycle)
    endDpredAtResolve();
}

void DmpCore::mergeDpred() {
  ++Stats.DpredMerged;
  insertSelectUops(static_cast<unsigned>(Ep.WrittenRegs.size()), FetchCycle);
  if (Ep.BranchMispredicted)
    ++Stats.DpredSavedFlushes;
  Ep.Active = false;
}

void DmpCore::endDpredAtResolve() {
  ++Stats.DpredNoMerge;
  if (Ep.BranchMispredicted)
    ++Stats.DpredSavedFlushes; // Dual-path execution avoided the flush.
  Ep.Active = false;
}

void DmpCore::trainPredictor(const Retired &R) {
  if (NeedsPredictor)
    Predictor->replayUpdate(R.Addr, R.taken(),
                            R.Bits & CorrectPathTrace::Trained);
}

void DmpCore::handleLoopIteration(const Retired &R, uint64_t FetchedAt,
                                  uint64_t DoneCycle) {
  assert(Ep.Active && Ep.IsLoop && "loop iteration without loop episode");

  ++Stats.CondBranches;
  const bool Mispredicted = R.predictedTaken() != R.taken();
  if (Mispredicted)
    ++Stats.Mispredictions;
  if (R.Bits & CorrectPathTrace::LowConf) {
    ++Stats.LowConfBranches;
    if (Mispredicted)
      ++Stats.LowConfMispredicted;
  }

  // The iteration trains before classifyLoopInstance walks extra iterations.
  trainPredictor(R);
  classifyLoopInstance(R, FetchedAt, DoneCycle);
}

void DmpCore::classifyLoopInstance(const Retired &R, uint64_t FetchedAt,
                                   uint64_t DoneCycle) {
  const core::DivergeAnnotation &Ann = *Ep.Ann;
  ++Ep.IterCount;
  // Select-µops after each predicated iteration (Section 5.1).
  consumeFetchSlots(Ann.LoopSelectUops);
  Stats.SelectUops += Ann.LoopSelectUops;

  const bool StayActual = (R.taken() == Ann.LoopStayTaken);
  const bool StayPred = (R.predictedTaken() == Ann.LoopStayTaken);

  if (StayActual && StayPred) {
    // Keep iterating under predication; bound the episode by the window.
    if (Ep.IterCount >= Config.MaxLoopDpredIters) {
      ++Stats.LoopCorrect;
      Ep.Active = false;
    }
    return;
  }

  if (StayActual && !StayPred) {
    // Early exit: the predicated stream left the loop too soon; the loop
    // must run again, so the pipeline flushes (Section 5.1, case 1).
    ++Stats.LoopEarlyExit;
    ++Stats.Flushes;
    redirectFetch(DoneCycle + 1);
    Ep.Active = false;
    return;
  }

  if (!StayActual && StayPred) {
    // The program exits here but the predictor keeps iterating: fetch the
    // extra predicated iterations; they become NOPs (late exit) unless the
    // predictor never exits (no exit -> flush).
    const uint32_t StayTarget = Ann.LoopStayTaken ? R.D->Target : R.Addr + 1;
    const unsigned ItersLeft =
        Config.MaxLoopDpredIters > Ep.IterCount
            ? Config.MaxLoopDpredIters - Ep.IterCount
            : 1;
    // Extra iterations are fetched only until this (exiting) instance
    // resolves and the predicate squashes the loop path.
    const uint64_t CyclesToResolve =
        DoneCycle > FetchedAt ? DoneCycle - FetchedAt : 1;
    const unsigned FetchBudget = static_cast<unsigned>(std::min<uint64_t>(
        Config.MaxDpredInstrs, CyclesToResolve * Config.FetchWidth));
    const ExtraIterResult Extra = walkExtraIterations(
        P, *Predictor, StayTarget, R.Addr, Ann.LoopStayTaken, ItersLeft,
        FetchBudget);
    if (Extra.PredictedExit) {
      ++Stats.LoopLateExit;
      Stats.LoopExtraIterInstrs += Extra.InstrsFetched;
      Stats.UselessDpredInstrs += Extra.InstrsFetched;
      consumeFetchSlots(Extra.InstrsFetched);
      chargeWrongPathIssue(Extra.InstrsFetched, FetchedAt);
      occupyRobPhantoms(Extra.InstrsFetched, DoneCycle + 1);
      const unsigned Selects = Ann.LoopSelectUops * Extra.Iterations;
      consumeFetchSlots(Selects);
      Stats.SelectUops += Selects;
      // Predicted stay vs actual exit is by definition a misprediction
      // whose flush the late exit avoided.
      ++Stats.DpredSavedFlushes;
    } else {
      ++Stats.LoopNoExit;
      ++Stats.Flushes;
      redirectFetch(DoneCycle + 1);
    }
    Ep.Active = false;
    return;
  }

  // Correctly predicted exit: the episode ends with only select-µop cost.
  ++Stats.LoopCorrect;
  Ep.Active = false;
}

//===----------------------------------------------------------------------===//
// Branch handling
//===----------------------------------------------------------------------===//

void DmpCore::handleCondBranch(const Retired &R, uint64_t FetchedAt,
                               uint64_t DoneCycle) {
  ++Stats.CondBranches;
  const bool Mispredicted = R.predictedTaken() != R.taken();
  if (Mispredicted)
    ++Stats.Mispredictions;

  const bool LowConf = R.Bits & CorrectPathTrace::LowConf;
  if (LowConf) {
    ++Stats.LowConfBranches;
    if (Mispredicted)
      ++Stats.LowConfMispredicted;
  }

  const core::DivergeAnnotation *Ann =
      (DmpEnabled && !Ep.Active) ? Diverge->find(R.Addr) : nullptr;

  if (Ann && (LowConf || Ann->AlwaysPredicate)) {
    // Enter dpred-mode instead of risking (or suffering) a flush.
    if (Ann->Kind == core::DivergeKind::Loop) {
      enterLoopDpred(*Ann, R, DoneCycle, Mispredicted);
      // The entry instance may itself exit the loop: classify it so a
      // mispredicted entry pays the correct early/late/no-exit outcome.
      classifyLoopInstance(R, FetchedAt, DoneCycle);
    } else {
      enterHammockDpred(*Ann, R, FetchedAt, DoneCycle, Mispredicted);
    }
  } else if (Mispredicted) {
    ++Stats.Flushes;
    redirectFetch(DoneCycle + 1);
    if (Ep.Active) {
      // A mispredicted branch inside the predicated region aborts the
      // episode (the fetched stream beyond it is wrong on both paths).
      ++Stats.DpredAborted;
      Ep.Active = false;
    }
  }

  // The branch trains after the hammock walk and the loop-entry walk.
  trainPredictor(R);
}

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

namespace {

/// Reads a trace's Events stream one instruction at a time.
class EventReader {
public:
  explicit EventReader(const std::vector<uint32_t> &Events)
      : It(Events.data()), End(Events.data() + Events.size()) {
    seek();
  }

  /// The event mask (1 << code) of instruction \p Index; instructions must
  /// be visited in order.
  DMP_ALWAYS_INLINE unsigned at(uint64_t Index) {
    if (DMP_LIKELY(Index != NextIndex))
      return 0;
    unsigned Mask = 0;
    do {
      Mask |= 1u << (*It & 0xFF);
      ++It;
      seek();
    } while (NextIndex == Index);
    return Mask;
  }

private:
  /// Advances NextIndex to the next real (non-Skip) event at or after It.
  void seek() {
    for (; It != End; ++It) {
      NextIndex += *It >> 8;
      if ((*It & 0xFF) != CorrectPathTrace::Skip)
        return;
    }
    NextIndex = ~0ull;
  }

  const uint32_t *It;
  const uint32_t *const End;
  uint64_t NextIndex = 0;
};

StatusError corruptTrace(const char *What) {
  return StatusError(
      Status::invariant(std::string("correct-path trace ") + What,
                        "sim::DmpCore"));
}

} // namespace

SimStats DmpCore::run(const CorrectPathTrace &Trace) {
  if (Trace.Instrs > Config.MaxInstrs)
    throw corruptTrace("is longer than the run's instruction budget");
  RunGuard Guard(Config);
  EventReader Events(Trace.Events);
  const uint8_t *Branch = Trace.Branches.data();
  const uint8_t *const BranchEnd = Branch + Trace.Branches.size();
  const profile::DecodedInstr *const Decoded = Code.data();
  const uint64_t N = Trace.Instrs;
  Retired R;
  R.Addr = P.getMain()->getEntryAddr();

  for (uint64_t Index = 0; Index < N; ++Index) {
    Guard.retired(Index + 1);
    const profile::DecodedInstr &D = Decoded[R.Addr];
    R.D = &D;
    const Opcode Op = D.Op;
    const unsigned Ev = Events.at(Index);

    if (Ep.Active && !Ep.IsLoop)
      checkDpredProgress(R.Addr);

    if (Op == Opcode::CondBr) {
      if (DMP_UNLIKELY(Branch == BranchEnd))
        throw corruptTrace("has fewer branch records than its path");
      R.Bits = *Branch++;
    }

    const uint64_t FetchedAt = fetchInstr(Op, R.predictedTaken(), Ev);
    const uint64_t Done = scheduleInstr(D, FetchedAt, Ev);

    if (Ep.Active) {
      ++Ep.CorrectFetched;
      ++Stats.UsefulDpredInstrs;
      if (!Ep.IsLoop && writesRegister(Op))
        Ep.WrittenRegs.insert(D.Dst);
    }

    uint32_t Next = R.Addr + 1;
    switch (Op) {
    case Opcode::CondBr:
      if (Ep.Active && Ep.IsLoop && R.Addr == Ep.LoopBranchAddr)
        handleLoopIteration(R, FetchedAt, Done);
      else
        handleCondBranch(R, FetchedAt, Done);
      if (R.taken())
        Next = D.Target;
      break;
    case Opcode::Jmp:
      Next = D.Target;
      break;
    case Opcode::Call:
      CallStack.push_back(R.Addr + 1);
      Next = D.Target;
      break;
    case Opcode::Ret: {
      if (CallStack.empty()) {
        // Ret in main halts the program.
        if (Index + 1 != N)
          throw corruptTrace("continues past the program's halt");
        break;
      }
      const size_t DepthBefore = CallStack.size();
      Next = CallStack.back();
      CallStack.pop_back();
      if (Ev & evBit(CorrectPathTrace::RasMiss)) {
        ++Stats.RasMispredicts;
        ++Stats.Flushes;
        redirectFetch(Done + 1);
        if (Ep.Active) {
          ++Stats.DpredAborted;
          Ep.Active = false;
        }
      }
      if (Ep.Active && !Ep.IsLoop && hasReturnCfm() &&
          DepthBefore == Ep.EntryCallDepth)
        Ep.MergePendingAfterRet = true;
      break;
    }
    case Opcode::Halt:
      if (Index + 1 != N)
        throw corruptTrace("continues past the program's halt");
      break;
    default:
      break;
    }

    retireInstr(Done);
    ++Stats.RetiredInstrs;
    R.Addr = Next;
  }
  if (Branch != BranchEnd)
    throw corruptTrace("has more branch records than its path");

  Stats.Cycles = std::max(LastRetireCycle, FetchCycle) + 1;
  Stats.IL1Misses = Trace.IL1Misses;
  Stats.DL1Misses = Trace.DL1Misses;
  Stats.L2Misses = Trace.L2Misses;
  Stats.DpredActiveAtEnd = Ep.Active ? 1 : 0;
  return Stats;
}
