//===- sim/CorrectPathTrace.cpp - Recorded correct-path front end -------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/CorrectPathTrace.h"

#include "profile/Emulator.h"
#include "support/MathExtras.h"
#include "uarch/BTB.h"
#include "uarch/BranchPredictor.h"
#include "uarch/Cache.h"
#include "uarch/ConfidenceEstimator.h"
#include "uarch/ReturnAddressStack.h"

using namespace dmp;
using namespace dmp::ir;
using namespace dmp::sim;

namespace {

/// Appends events to a trace, tracking the index of the last one.
class EventWriter {
public:
  explicit EventWriter(std::vector<uint32_t> &Events) : Events(Events) {}

  void add(uint64_t Index, CorrectPathTrace::EventCode Code) {
    uint64_t Gap = Index - Last;
    for (; Gap > CorrectPathTrace::kMaxGap; Gap -= CorrectPathTrace::kMaxGap)
      Events.push_back(CorrectPathTrace::kMaxGap << 8 |
                       CorrectPathTrace::Skip);
    Events.push_back(static_cast<uint32_t>(Gap) << 8 | Code);
    Last = Index;
  }

private:
  std::vector<uint32_t> &Events;
  uint64_t Last = 0;
};

} // namespace

CorrectPathTrace
sim::recordCorrectPath(const Program &P,
                       const std::vector<int64_t> &MemoryImage,
                       const SimConfig &Config, FinalState *FinalStateOut,
                       EmuMode Mode) {
  if (const Status S = Config.check(); !S.ok())
    throw StatusError(S);
  profile::Emulator Emu(P, MemoryImage);
  const std::unique_ptr<uarch::BranchPredictor> Predictor =
      uarch::createPredictor(Config.Predictor);
  uarch::ConfidenceEstimator Confidence(Config.ConfIndexBits,
                                        Config.ConfHistoryBits);
  uarch::BTB Btb(Config.BtbEntries);
  uarch::ReturnAddressStack Ras(Config.RasEntries);
  uarch::MemoryHierarchy Memory(Config.Memory);
  const uarch::MemoryConfig &Mem = Config.Memory;
  const unsigned FetchLineShift = log2Floor(Mem.LineBytes);
  RunGuard Guard(Config);

  CorrectPathTrace Trace;
  EventWriter Events(Trace.Events);
  uint64_t CurrentFetchLine = ~0ull;
  size_t CallDepth = 0;
  const bool UseReference = Mode == EmuMode::Reference;
  const uint64_t MaxInstrs = Config.MaxInstrs;
  profile::DynInstr D;

  while (Emu.executedCount() < MaxInstrs &&
         (UseReference ? Emu.stepReference(D) : Emu.step(D))) {
    const uint64_t Index = Emu.executedCount() - 1;
    Guard.retired(Index + 1);
    const Opcode Op = D.I->Op;
    // Retired-store probe: the store has executed, so the value written is
    // exactly what memory now holds at the effective address.  Only
    // correct-path instructions pass through this loop — the wrong path of
    // a dpred episode is walked statically by the replay and never touches
    // Emu — so the sequence recorded here is the architectural store order.
    if (FinalStateOut && Op == Opcode::Store)
      FinalStateOut->Stores.push_back(
          {D.Addr, D.MemAddr, Emu.memWord(D.MemAddr)});

    // The front end of this instruction: its branch prediction, the fetch
    // of its line (before its data access, which shares the L2), the BTB
    // on a taken transfer, then the data access and the RAS.
    bool PredictedTaken = false;
    if (Op == Opcode::CondBr) {
      PredictedTaken = Predictor->predict(D.Addr);
      uint8_t Bits = static_cast<uint8_t>(Confidence.counter(D.Addr)
                                          << CorrectPathTrace::kConfShift);
      if (D.Taken)
        Bits |= CorrectPathTrace::Taken;
      if (PredictedTaken)
        Bits |= CorrectPathTrace::Predicted;
      if (Predictor->update(D.Addr, D.Taken))
        Bits |= CorrectPathTrace::Trained;
      Confidence.update(D.Addr, PredictedTaken == D.Taken, D.Taken);
      Trace.Branches.push_back(Bits);
    }

    const uint64_t FetchByte = static_cast<uint64_t>(D.Addr) * 4;
    const uint64_t Line = FetchByte >> FetchLineShift;
    if (Line != CurrentFetchLine) {
      CurrentFetchLine = Line;
      const unsigned Lat = Memory.fetchLatency(FetchByte);
      if (Lat > Mem.IL1Latency)
        Events.add(Index, Lat == Mem.IL1Latency + Mem.L2Latency
                              ? CorrectPathTrace::FetchL2
                              : CorrectPathTrace::FetchMem);
    }

    const bool TakenTransfer = (Op == Opcode::CondBr && PredictedTaken) ||
                               Op == Opcode::Jmp || Op == Opcode::Call;
    if (TakenTransfer) {
      uint32_t Target = 0;
      if (!Btb.lookup(D.Addr, Target))
        Events.add(Index, CorrectPathTrace::BtbMiss);
      Btb.update(D.Addr, D.NextAddr);
    }

    switch (Op) {
    case Opcode::Load: {
      const unsigned Lat = Memory.loadLatency(D.MemAddr * 8);
      if (Lat != Mem.DL1Latency)
        Events.add(Index, Lat == Mem.DL1Latency + Mem.L2Latency
                              ? CorrectPathTrace::LoadL2
                              : CorrectPathTrace::LoadMem);
      break;
    }
    case Opcode::Store:
      Memory.storeAccess(D.MemAddr * 8);
      break;
    case Opcode::Call:
      Ras.push(D.Addr + 1);
      ++CallDepth;
      break;
    case Opcode::Ret:
      if (CallDepth > 0) {
        --CallDepth;
        if (Ras.pop() != D.NextAddr)
          Events.add(Index, CorrectPathTrace::RasMiss);
      }
      break;
    default:
      break;
    }
  }

  Trace.Instrs = Emu.executedCount();
  Trace.IL1Misses = Memory.il1().missCount();
  Trace.DL1Misses = Memory.dl1().missCount();
  Trace.L2Misses = Memory.l2().missCount();
  // The vectors grew by doubling; keep only what the trace holds, since a
  // memo or cache entry keeps it for a whole campaign.
  Trace.Branches.shrink_to_fit();
  Trace.Events.shrink_to_fit();

  if (FinalStateOut) {
    captureArchState(Emu, *FinalStateOut);
    // Canary fault injection (oracle self-tests only): corrupt the
    // *extracted* state so dmp::check can prove it detects retired-state
    // divergence without planting a real bug in the model.
    if (Config.InjectFault == 1 && !FinalStateOut->Stores.empty())
      FinalStateOut->Stores.erase(FinalStateOut->Stores.begin());
    else if (Config.InjectFault == 2)
      FinalStateOut->Regs[1] ^= 1;
  }
  return Trace;
}
