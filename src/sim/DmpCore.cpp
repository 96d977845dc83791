//===- sim/DmpCore.cpp - Cycle-level DMP out-of-order core --------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/DmpCore.h"

#include "sim/WrongPathWalker.h"

#include <algorithm>
#include <utility>

using namespace dmp;
using namespace dmp::ir;
using namespace dmp::sim;

namespace {

/// \p Config, once SimConfig::check accepts it; runs before any member is
/// sized from it.
const SimConfig &checked(const SimConfig &Config) {
  const Status S = Config.check();
  if (!S.ok())
    throw StatusError(S);
  return Config;
}

} // namespace

DmpCore::DmpCore(const Program &P, const core::DivergeMap &Diverge,
                 const SimConfig &Config)
    : P(P), Code(profile::DecodedProgram::of(P)), Config(checked(Config)),
      NeedsPredictor(!Diverge.empty()),
      FetchWidth(Config.FetchWidth), RetireWidth(Config.RetireWidth),
      MaxNtBranches(Config.MaxNotTakenBranchesPerFetch),
      FrontEndDepth(Config.FrontEndDepth), RobSize(Config.RobSize),
      ConfThreshold(Config.ConfThreshold),
      FetchL2Penalty(Config.Memory.L2Latency),
      FetchMemPenalty(Config.Memory.L2Latency + Config.Memory.MemoryLatency),
      LoadL2Latency(Config.Memory.DL1Latency + Config.Memory.L2Latency),
      LoadMemLatency(Config.Memory.DL1Latency + Config.Memory.L2Latency +
                     Config.Memory.MemoryLatency),
      Predictor(NeedsPredictor ? uarch::createPredictor(Config.Predictor)
                               : nullptr),
      IssuePorts(Config.IssueWidth), RobRetireRing(Config.RobSize, 0) {
  TimingAt.resize(Code.size());
  for (uint32_t Addr = 0; Addr < Code.size(); ++Addr) {
    const profile::DecodedInstr &D = Code.data()[Addr];
    OpTiming &T = TimingAt[Addr];
    if (readsSrc1(D.Op) && D.Src1 != RegZero)
      T.Src1 = D.Src1;
    if (readsSrc2(D.Op) && D.Src2 != RegZero)
      T.Src2 = D.Src2;
    if (writesRegister(D.Op))
      T.Dst = D.Dst;
    // Write latency is hidden by the store buffer.
    T.Latency = D.Op == Opcode::Load    ? Config.Memory.DL1Latency
                : D.Op == Opcode::Store ? 1
                                        : Config.latencyFor(D.Op);
  }
  if (NeedsPredictor) {
    AnnotationAt.assign(Code.size(), nullptr);
    for (const auto &[Addr, Ann] : Diverge.all())
      if (Addr < Code.size())
        AnnotationAt[Addr] = &Ann;
  }
  CallStack.reserve(64);
}

core::DivergeMap sim::machineView(const core::DivergeMap &Diverge) {
  core::DivergeMap View;
  for (const auto &[Addr, Ann] : Diverge.all()) {
    core::DivergeAnnotation Seen;
    Seen.AlwaysPredicate = Ann.AlwaysPredicate;
    if (Ann.Kind == core::DivergeKind::Loop) {
      Seen.Kind = core::DivergeKind::Loop;
      Seen.LoopSelectUops = Ann.LoopSelectUops;
      Seen.LoopStayTaken = Ann.LoopStayTaken;
    } else {
      Seen.Kind = core::DivergeKind::SimpleHammock;
      for (const core::CfmPoint &Cfm : Ann.Cfms)
        Seen.Cfms.push_back(Cfm.PointKind == core::CfmPoint::Kind::Return
                                ? core::CfmPoint::atReturn(0.0)
                                : core::CfmPoint::atAddress(Cfm.Addr, 0.0));
      const auto Key = [](const core::CfmPoint &C) {
        return std::make_pair(C.PointKind, C.Addr);
      };
      std::sort(Seen.Cfms.begin(), Seen.Cfms.end(),
                [&](const core::CfmPoint &A, const core::CfmPoint &B) {
                  return Key(A) < Key(B);
                });
      Seen.Cfms.erase(std::unique(Seen.Cfms.begin(), Seen.Cfms.end(),
                                  [&](const core::CfmPoint &A,
                                      const core::CfmPoint &B) {
                                    return Key(A) == Key(B);
                                  }),
                      Seen.Cfms.end());
    }
    View.add(Addr, std::move(Seen));
  }
  return View;
}

//===----------------------------------------------------------------------===//
// Fetch engine
//===----------------------------------------------------------------------===//

void DmpCore::redirectFetch(PipeState &S, uint64_t Cycle) {
  // A redirect never moves fetch into the past; a same-cycle redirect
  // restarts the fetch group.
  S.FetchCycle = std::max(S.FetchCycle, Cycle);
  S.SlotsUsed = 0;
  S.NtBranchesThisCycle = 0;
}

void DmpCore::consumeFetchSlots(PipeState &S, unsigned Count) {
  for (unsigned I = 0; I < Count; ++I) {
    if (S.SlotsUsed >= FetchWidth) {
      ++S.FetchCycle;
      S.SlotsUsed = 0;
      S.NtBranchesThisCycle = 0;
    }
    ++S.SlotsUsed;
  }
}

uint64_t DmpCore::fetchSlot(PipeState &S, unsigned Events,
                            bool NotTakenBranch) {
  // ROB back-pressure: instruction i cannot fetch before instruction
  // i - RobSize retires.
  const uint64_t RobGate = RobRetireRing[S.RobCursor];
  if (RobGate > S.FetchCycle)
    redirectFetch(S, RobGate);

  // I-cache: the recorder charged the line once, when fetch crossed into
  // it; a miss costs the L2 or memory latency beyond the IL1 hit.
  if (DMP_UNLIKELY(Events & (evBit(CorrectPathTrace::FetchL2) |
                             evBit(CorrectPathTrace::FetchMem)))) {
    S.FetchCycle += (Events & evBit(CorrectPathTrace::FetchL2))
                        ? FetchL2Penalty
                        : FetchMemPenalty;
    S.SlotsUsed = 0;
    S.NtBranchesThisCycle = 0;
  }

  if (S.SlotsUsed >= FetchWidth) {
    ++S.FetchCycle;
    S.SlotsUsed = 0;
    S.NtBranchesThisCycle = 0;
  }

  if (NotTakenBranch) {
    if (S.NtBranchesThisCycle >= MaxNtBranches) {
      ++S.FetchCycle;
      S.SlotsUsed = 0;
      S.NtBranchesThisCycle = 0;
    }
    ++S.NtBranchesThisCycle;
  }

  const uint64_t Assigned = S.FetchCycle;
  ++S.SlotsUsed;
  return Assigned;
}

uint64_t DmpCore::fetchInstr(PipeState &S, Opcode Op, bool PredictedTaken,
                             unsigned Events, bool Alternate) {
  const bool IsCondBr = Op == Opcode::CondBr;
  const uint64_t Assigned =
      fetchSlot(S, Events, IsCondBr && !PredictedTaken);

  // In dpred-mode the front end alternates between the two paths: each
  // correct-path instruction costs one extra slot while the wrong path is
  // still being fetched.
  if (Alternate) {
    consumeFetchSlots(S, 1);
    --Ep.WrongRemaining;
  }

  // Taken control transfers end the fetch group; taken-predicted branches
  // additionally need the BTB for their target.
  const bool TakenTransfer = (IsCondBr && PredictedTaken) ||
                             Op == Opcode::Jmp || Op == Opcode::Call ||
                             Op == Opcode::Ret;
  if (TakenTransfer) {
    S.SlotsUsed = FetchWidth; // group break
    if (Events & evBit(CorrectPathTrace::BtbMiss)) {
      ++Stats.BtbMissBubbles;
      ++S.FetchCycle;
    }
  }
  return Assigned;
}

//===----------------------------------------------------------------------===//
// Dataflow schedule
//===----------------------------------------------------------------------===//

uint64_t DmpCore::scheduleInstr(uint32_t Addr, uint64_t FetchedAt,
                                unsigned Events) {
  const OpTiming T = TimingAt[Addr];
  const uint64_t Ready = std::max(
      {FetchedAt + FrontEndDepth, RegReady[T.Src1], RegReady[T.Src2]});
  const uint64_t ExecStart = IssuePorts.reserve(Ready);

  // Only loads have these events; a load without one hits the DL1.
  unsigned Latency = T.Latency;
  if (DMP_UNLIKELY(Events & (evBit(CorrectPathTrace::LoadL2) |
                             evBit(CorrectPathTrace::LoadMem))))
    Latency = (Events & evBit(CorrectPathTrace::LoadL2)) ? LoadL2Latency
                                                         : LoadMemLatency;
  const uint64_t Done = ExecStart + Latency;
  RegReady[T.Dst] = Done;
  return Done;
}

void DmpCore::chargeWrongPathIssue(unsigned Ops, uint64_t FetchedAt) {
  // The ops arrive FetchWidth per cycle: group g issues from
  // FetchedAt + FrontEndDepth + g on.
  uint64_t Earliest = FetchedAt + FrontEndDepth;
  for (unsigned K = 0; K < Ops; K += FetchWidth, ++Earliest)
    IssuePorts.reserveMany(Earliest, std::min(FetchWidth, Ops - K));
}

void DmpCore::occupyRobPhantoms(unsigned Count, uint64_t RetireCycle) {
  for (unsigned K = 0; K < Count; ++K) {
    RobRetireRing[Pipe.RobCursor] = RetireCycle;
    advanceRobCursor(Pipe);
  }
}

uint64_t DmpCore::retireInstr(PipeState &S, uint64_t DoneCycle) {
  // In-order retirement books cycles monotonically, so the full
  // CycleResource ring reduces to the last retire cycle plus the number of
  // retires already booked in it: a new cycle starts with one retire, and a
  // full cycle pushes the retire to the next one.
  uint64_t Retire = std::max(DoneCycle + 1, S.LastRetireCycle);
  if (Retire != S.LastRetireCycle)
    S.RetiresThisCycle = 0;
  else if (S.RetiresThisCycle >= RetireWidth) {
    ++Retire;
    S.RetiresThisCycle = 0;
  }
  ++S.RetiresThisCycle;
  S.LastRetireCycle = Retire;
  RobRetireRing[S.RobCursor] = Retire;
  advanceRobCursor(S);
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
  consumeFetchSlots(Pipe, Count);
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
        consumeFetchSlots(Pipe, Ep.WrongRemaining);
        Ep.WrongRemaining = 0;
      }
      mergeDpred();
    } else {
      // The wrong path never reaches a CFM: fetch stalls until the diverge
      // branch resolves, then the wrong path is squashed into NOPs.
      redirectFetch(Pipe, Ep.ResolveCycle + 1);
      endDpredAtResolve();
    }
    return;
  }

  // Window full, or the diverge branch resolved before the paths merged.
  if (Ep.CorrectFetched >= Config.MaxDpredInstrs ||
      Pipe.FetchCycle > Ep.ResolveCycle)
    endDpredAtResolve();
}

void DmpCore::mergeDpred() {
  ++Stats.DpredMerged;
  insertSelectUops(static_cast<unsigned>(Ep.WrittenRegs.size()),
                   Pipe.FetchCycle);
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

void DmpCore::handleLoopIteration(const Retired &R, uint64_t FetchedAt,
                                  uint64_t DoneCycle) {
  assert(Ep.Active && Ep.IsLoop && "loop iteration without loop episode");

  countBranch(R.Bits);
  // The iteration trains before classifyLoopInstance walks extra iterations.
  trainPredictor(R.Addr, R.Bits);
  classifyLoopInstance(R, FetchedAt, DoneCycle);
}

void DmpCore::classifyLoopInstance(const Retired &R, uint64_t FetchedAt,
                                   uint64_t DoneCycle) {
  const core::DivergeAnnotation &Ann = *Ep.Ann;
  ++Ep.IterCount;
  // Select-µops after each predicated iteration (Section 5.1).
  consumeFetchSlots(Pipe, Ann.LoopSelectUops);
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
    redirectFetch(Pipe, DoneCycle + 1);
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
      consumeFetchSlots(Pipe, Extra.InstrsFetched);
      chargeWrongPathIssue(Extra.InstrsFetched, FetchedAt);
      occupyRobPhantoms(Extra.InstrsFetched, DoneCycle + 1);
      const unsigned Selects = Ann.LoopSelectUops * Extra.Iterations;
      consumeFetchSlots(Pipe, Selects);
      Stats.SelectUops += Selects;
      // Predicted stay vs actual exit is by definition a misprediction
      // whose flush the late exit avoided.
      ++Stats.DpredSavedFlushes;
    } else {
      ++Stats.LoopNoExit;
      ++Stats.Flushes;
      redirectFetch(Pipe, DoneCycle + 1);
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

bool DmpCore::countBranch(uint8_t Bits) {
  ++Stats.CondBranches;
  const bool Taken = Bits & CorrectPathTrace::Taken;
  const bool Mispredicted = Taken != bool(Bits & CorrectPathTrace::Predicted);
  if (Mispredicted)
    ++Stats.Mispredictions;
  if (lowConfidence(Bits)) {
    ++Stats.LowConfBranches;
    if (Mispredicted)
      ++Stats.LowConfMispredicted;
  }
  return Mispredicted;
}

bool DmpCore::resolveBranch(PipeState &S, uint32_t Addr, uint8_t Bits,
                            uint64_t DoneCycle) {
  const bool Mispredicted = countBranch(Bits);
  if (Mispredicted) {
    ++Stats.Flushes;
    redirectFetch(S, DoneCycle + 1);
  }
  trainPredictor(Addr, Bits);
  return Mispredicted;
}

void DmpCore::handleCondBranch(const Retired &R, uint64_t FetchedAt,
                               uint64_t DoneCycle) {
  const core::DivergeAnnotation *Ann =
      Ep.Active ? nullptr : annotationAt(R.Addr);
  if (!Ann || !entersDpred(*Ann, R.Bits)) {
    if (resolveBranch(Pipe, R.Addr, R.Bits, DoneCycle) && Ep.Active) {
      // A mispredicted branch inside the predicated region aborts the
      // episode (the fetched stream beyond it is wrong on both paths).
      ++Stats.DpredAborted;
      Ep.Active = false;
    }
    return;
  }

  // Enter dpred-mode instead of risking (or suffering) a flush.
  const bool Mispredicted = countBranch(R.Bits);
  if (Ann->Kind == core::DivergeKind::Loop) {
    enterLoopDpred(*Ann, R, DoneCycle, Mispredicted);
    // The entry instance may itself exit the loop: classify it so a
    // mispredicted entry pays the correct early/late/no-exit outcome.
    classifyLoopInstance(R, FetchedAt, DoneCycle);
  } else {
    enterHammockDpred(*Ann, R, FetchedAt, DoneCycle, Mispredicted);
  }
  // The branch trains after the hammock walk and the loop-entry walk.
  trainPredictor(R.Addr, R.Bits);
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

  /// The index of the next instruction with an event (~0 when none is left).
  uint64_t nextIndex() const { return NextIndex; }

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

uint32_t DmpCore::step(const Retired &R, unsigned Ev, bool Last) {
  const profile::DecodedInstr &D = *R.D;
  const Opcode Op = D.Op;
  if (Ep.Active && !Ep.IsLoop)
    checkDpredProgress(R.Addr);

  const uint64_t FetchedAt =
      fetchInstr(Pipe, Op, R.predictedTaken(), Ev,
                 Ep.Active && !Ep.IsLoop && Ep.WrongRemaining > 0);
  const uint64_t Done = scheduleInstr(R.Addr, FetchedAt, Ev);

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
      if (!Last)
        throw corruptTrace("continues past the program's halt");
      break;
    }
    const size_t DepthBefore = CallStack.size();
    Next = CallStack.back();
    CallStack.pop_back();
    if (Ev & evBit(CorrectPathTrace::RasMiss)) {
      ++Stats.RasMispredicts;
      ++Stats.Flushes;
      redirectFetch(Pipe, Done + 1);
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
    if (!Last)
      throw corruptTrace("continues past the program's halt");
    break;
  default:
    break;
  }

  retireInstr(Pipe, Done);
  return Next;
}

SimStats DmpCore::run(const CorrectPathTrace &Trace) {
  if (Trace.Instrs > Config.MaxInstrs)
    throw corruptTrace("is longer than the run's instruction budget");
  RunGuard Guard(Config);
  EventReader Events(Trace.Events);
  const uint8_t *Branch = Trace.Branches.data();
  const uint8_t *const BranchEnd = Branch + Trace.Branches.size();
  const profile::DecodedInstr *const Decoded = Code.data();
  const uint64_t N = Trace.Instrs;
  uint32_t Addr = P.getMain()->getEntryAddr();
  // The cursors live here between out-of-line steps (see the file comment).
  PipeState S = Pipe;

  uint64_t Index = 0;
  while (Index < N) {
    // The inline step, up to the next instruction with a trace event or a
    // guard beat: outside an episode, a straight-line run at a time, and a
    // conditional branch that cannot enter dpred-mode.
    if (!Ep.Active) {
      const uint64_t Stop =
          std::min({N, Events.nextIndex(), Guard.nextCheck() - 1});
      while (Index < Stop) {
        const profile::DecodedInstr &D = Decoded[Addr];
        if (const uint32_t Run = D.RunLen) {
          // No instruction of a run transfers control, so Addr counts the
          // run off on its own.
          const uint32_t Len =
              static_cast<uint32_t>(std::min<uint64_t>(Run, Stop - Index));
          Index += Len;
          for (const uint32_t End = Addr + Len; Addr != End; ++Addr)
            retireInstr(S, scheduleInstr(Addr, fetchSlot(S, 0, false), 0));
          continue;
        }
        if (D.Op != Opcode::CondBr || DMP_UNLIKELY(Branch == BranchEnd))
          break;
        const uint8_t Bits = *Branch;
        const core::DivergeAnnotation *Ann = annotationAt(Addr);
        if (DMP_UNLIKELY(Ann && entersDpred(*Ann, Bits)))
          break;
        ++Branch;
        const uint64_t FetchedAt = fetchInstr(
            S, Opcode::CondBr, Bits & CorrectPathTrace::Predicted, 0, false);
        const uint64_t DoneCycle = scheduleInstr(Addr, FetchedAt, 0);
        resolveBranch(S, Addr, Bits, DoneCycle);
        retireInstr(S, DoneCycle);
        Addr = (Bits & CorrectPathTrace::Taken) ? D.Target : Addr + 1;
        ++Index;
      }
      if (Index == N)
        break;
    }

    // Everything else steps out of line on the member cursors.
    Guard.retired(Index + 1);
    const profile::DecodedInstr &D = Decoded[Addr];
    const unsigned Ev = Events.at(Index);
    uint8_t Bits = 0;
    if (D.Op == Opcode::CondBr) {
      if (Branch == BranchEnd)
        throw corruptTrace("has fewer branch records than its path");
      Bits = *Branch++;
    }
    Pipe = S;
    Addr = step(Retired{Addr, &D, Bits}, Ev, Index + 1 == N);
    S = Pipe;
    ++Index;
  }
  if (Branch != BranchEnd)
    throw corruptTrace("has more branch records than its path");

  Stats.RetiredInstrs = N;
  Stats.Cycles = std::max(S.LastRetireCycle, S.FetchCycle) + 1;
  Stats.IL1Misses = Trace.IL1Misses;
  Stats.DL1Misses = Trace.DL1Misses;
  Stats.L2Misses = Trace.L2Misses;
  Stats.DpredActiveAtEnd = Ep.Active ? 1 : 0;
  return Stats;
}
