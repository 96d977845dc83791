//===- sim/DmpCore.h - Cycle-level DMP out-of-order core ------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cycle-level processor model: an 8-wide out-of-order core with the
/// Table 1 configuration, plus the DMP dynamic-predication machinery
/// (dpred-mode for hammocks, return CFMs, dual-path fallback, and loop
/// predication with the early/late/no-exit taxonomy of Section 5.1).
///
/// Modeling approach (DESIGN.md Section 5): trace-driven timing with
/// execution-driven outcomes, split in two halves.
///
///  - recordCorrectPath (sim/CorrectPathTrace.h) runs the functional
///    emulator and every structure only correct-path instructions touch —
///    the perceptron's predict and train decision, the JRS confidence
///    estimator, the BTB, the RAS and the I/D/L2 caches — once per
///    (program, input, configuration), and emits a compact trace.
///  - DmpCore::run replays that trace: it walks the predecoded program by
///    PC and runs only the timing model (in-order fetch and retire,
///    dataflow-limited issue bounded by issue width) and the dpred
///    episodes.  The wrong path of a dynamically predicated branch is
///    fetched explicitly by walking the program with the live branch
///    predictor, because its fetch/execute bandwidth cost is precisely the
///    dpred overhead the paper's cost model reasons about.
///
/// Why the replay is exact: no recorded structure is touched on the wrong
/// path — the wrong-path walks only *read* the predictor.  So the replay
/// keeps a live predictor that applies only the recorded training
/// (BranchPredictor::replayUpdate) at the points where the simulator always
/// trained it: the hammock walk and the loop-entry walk happen before the
/// branch trains, and a loop iteration trains before classifyLoopInstance
/// walks.  One trace serves
/// the baseline and every DivergeMap with byte-identical statistics.
///
/// The inline step.  The fetch, retire and ROB cursors (PipeState) change
/// on every instruction, so run() keeps them in a local that the
/// always-inline fetch, schedule and retire helpers take by reference, and
/// steps most instructions entirely on it: outside a dpred episode, an
/// instruction with no trace event that is not a Jmp, Call, Ret or Halt,
/// and a conditional branch only if it cannot enter dpred-mode (no
/// annotation, or one that is neither low-confidence nor AlwaysPredicate),
/// which then only counts, flushes on a misprediction and trains.  These
/// run in a tight loop bounded by the next trace event and the next
/// RunGuard beat, so it checks neither.  Every other instruction is the
/// single sync point: run() writes the local back to the member Pipe,
/// steps the instruction out of line (step(): the guards, the events,
/// episodes, calls and returns, dpred entries, loop iterations) and reloads
/// the local.  Both paths call the same helpers in the same order on the
/// same state, so the statistics are exactly those of stepping every
/// instruction out of line; the local only lets the compiler keep the
/// cursors in registers instead of storing and reloading them around calls
/// that might write them.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SIM_DMPCORE_H
#define DMP_SIM_DMPCORE_H

#include "core/DivergeInfo.h"
#include "ir/Opcode.h"
#include "profile/DecodedProgram.h"
#include "sim/CorrectPathTrace.h"
#include "sim/CycleResource.h"
#include "sim/RegSet.h"
#include "sim/SimConfig.h"
#include "sim/SimStats.h"
#include "support/Compiler.h"
#include "uarch/BranchPredictor.h"

#include <memory>
#include <vector>

namespace dmp::sim {

/// One simulated core.  Construct per run.
class DmpCore {
public:
  /// \p Diverge may be nullptr (pure baseline, DMP disabled regardless of
  /// Config.EnableDmp).
  DmpCore(const ir::Program &P, const core::DivergeMap *Diverge,
          const SimConfig &Config);

  /// Replays \p Trace — recorded by recordCorrectPath for this program and
  /// a configuration with the same correct-path front end — through the
  /// timing model and returns the statistics.  Honours Config's watchdog,
  /// Cancel and Progress (see RunGuard).
  SimStats run(const CorrectPathTrace &Trace);

private:
  /// One retired instruction as the replay sees it.
  struct Retired {
    uint32_t Addr = 0;
    const profile::DecodedInstr *D = nullptr;
    /// CondBr only: its CorrectPathTrace::BranchBit flags.
    uint8_t Bits = 0;

    bool taken() const { return Bits & CorrectPathTrace::Taken; }
    bool predictedTaken() const { return Bits & CorrectPathTrace::Predicted; }
  };

  /// The per-instruction cursors of the timing model (see the file comment:
  /// run() steps most instructions on a local copy).
  struct PipeState {
    // Fetch cursor.
    uint64_t FetchCycle = 0;
    unsigned SlotsUsed = 0;
    unsigned NtBranchesThisCycle = 0;
    // Retire cursor.
    uint64_t LastRetireCycle = 0;
    /// Retires booked in LastRetireCycle (in-order retirement probes cycles
    /// monotonically, so these two scalars model the retire-port resource
    /// exactly; see retireInstr).
    unsigned RetiresThisCycle = 0;
    /// Ring slot the next fetched instruction occupies.  Both real and
    /// phantom (wrong-path) entries advance it, so phantoms displace real
    /// slots; keeping it as an incrementally wrapped cursor removes the two
    /// per-instruction `% RobSize` divides the old index arithmetic paid.
    uint32_t RobCursor = 0;
  };

  /// Bits of the per-instruction event mask: 1 << CorrectPathTrace code.
  static constexpr unsigned evBit(CorrectPathTrace::EventCode Code) {
    return 1u << Code;
  }

  /// Steps one instruction the inline step does not cover, on the member
  /// Pipe; \p Last marks the trace's final instruction.  Returns the next
  /// PC.
  uint32_t step(const Retired &R, unsigned Events, bool Last);

  // -- Fetch engine -------------------------------------------------------
  /// Assigns a fetch cycle to the next correct-path instruction.  Handles
  /// fetch width, taken-branch group breaks, the not-taken-branch limit,
  /// I-cache misses, and BTB bubbles (\p Events: the instruction's event
  /// mask).  \p Alternate: a hammock episode is still fetching its wrong
  /// path, which takes every other slot.
  DMP_ALWAYS_INLINE uint64_t fetchInstr(PipeState &S, ir::Opcode Op,
                                        bool PredictedTaken, unsigned Events,
                                        bool Alternate);

  /// Moves the fetch cursor to \p Cycle (redirect); resets group state.
  DMP_ALWAYS_INLINE void redirectFetch(PipeState &S, uint64_t Cycle);

  /// Consumes \p Count raw fetch slots (wrong-path / select-µop slots).
  DMP_ALWAYS_INLINE void consumeFetchSlots(PipeState &S, unsigned Count);

  // -- Dataflow schedule ---------------------------------------------------
  /// Schedules execution of the instruction at \p Addr fetched at
  /// \p FetchCycle; returns the completion (resolution) cycle.
  DMP_ALWAYS_INLINE uint64_t scheduleInstr(uint32_t Addr, uint64_t FetchCycle,
                                           unsigned Events);

  /// Charges issue bandwidth for \p Ops speculative wrong-path operations
  /// fetched around \p FetchCycle.
  void chargeWrongPathIssue(unsigned Ops, uint64_t FetchCycle);

  /// Books \p Count wrong-path (phantom) instructions into the reorder
  /// buffer: they hold entries until \p RetireCycle (the diverge branch's
  /// resolution, when they become NOPs and drain).  This is what makes
  /// dynamic predication of oversized hammocks genuinely expensive — the
  /// window fills and fetch stalls (paper Section 3.2 / Figure 7).
  void occupyRobPhantoms(unsigned Count, uint64_t RetireCycle);

  /// In-order retirement accounting; returns the retire cycle.
  DMP_ALWAYS_INLINE uint64_t retireInstr(PipeState &S, uint64_t DoneCycle);

  void advanceRobCursor(PipeState &S) const {
    if (++S.RobCursor == RobSize)
      S.RobCursor = 0;
  }

  // -- Branch handling -----------------------------------------------------
  /// The diverge annotation of the branch at \p Addr, or nullptr.
  const core::DivergeAnnotation *annotationAt(uint32_t Addr) const {
    return NeedsPredictor ? AnnotationAt[Addr] : nullptr;
  }
  /// Whether a branch with \p Ann and trace flags \p Bits enters dpred-mode
  /// (outside an episode).
  static bool entersDpred(const core::DivergeAnnotation &Ann, uint8_t Bits) {
    return (Bits & CorrectPathTrace::LowConf) || Ann.AlwaysPredicate;
  }
  /// Counts a conditional branch with trace flags \p Bits in the branch
  /// statistics; returns whether it was mispredicted.
  DMP_ALWAYS_INLINE bool countBranch(uint8_t Bits);
  /// A conditional branch that does not enter dpred-mode: counts it,
  /// flushes on a misprediction (fetch resumes after \p DoneCycle) and
  /// trains the predictor.  Returns whether it was mispredicted.
  DMP_ALWAYS_INLINE bool resolveBranch(PipeState &S, uint32_t Addr,
                                       uint8_t Bits, uint64_t DoneCycle);
  void handleCondBranch(const Retired &R, uint64_t FetchCycle,
                        uint64_t DoneCycle);
  /// Trains the live predictor with the recorded outcome \p Bits of the
  /// branch at \p Addr (only the wrong-path walks read it, so a run without
  /// diverge branches skips it).
  void trainPredictor(uint32_t Addr, uint8_t Bits) {
    if (NeedsPredictor)
      Predictor->replayUpdate(Addr, Bits & CorrectPathTrace::Taken,
                              Bits & CorrectPathTrace::Trained);
  }

  // -- dpred-mode ----------------------------------------------------------
  struct DpredEpisode {
    bool Active = false;
    bool IsLoop = false;
    const core::DivergeAnnotation *Ann = nullptr;
    uint64_t ResolveCycle = 0;
    bool BranchMispredicted = false;
    bool AlwaysPredicated = false;
    // Hammock state.
    unsigned WrongRemaining = 0;
    bool WrongReachedCfm = false;
    uint32_t WrongCfmAddr = ~0u;
    unsigned CorrectFetched = 0;
    RegSet WrittenRegs;
    bool MergePendingAfterRet = false;
    size_t EntryCallDepth = 0;
    // Loop state.
    uint32_t LoopBranchAddr = 0;
    unsigned IterCount = 0;
  };

  void enterHammockDpred(const core::DivergeAnnotation &Ann, const Retired &R,
                         uint64_t FetchCycle, uint64_t DoneCycle,
                         bool Mispredicted);
  void enterLoopDpred(const core::DivergeAnnotation &Ann, const Retired &R,
                      uint64_t DoneCycle, bool Mispredicted);
  /// Handles a re-fetch of the loop diverge branch during loop dpred-mode.
  void handleLoopIteration(const Retired &R, uint64_t FetchCycle,
                           uint64_t DoneCycle);
  /// Classifies one predicated loop-branch instance (Section 5.1 taxonomy:
  /// continue / correct / early-exit / late-exit / no-exit) and ends the
  /// episode when terminal.  Called for the entry instance and for every
  /// subsequent instance.
  void classifyLoopInstance(const Retired &R, uint64_t FetchCycle,
                            uint64_t DoneCycle);
  /// Checks hammock-mode merge/termination before fetching the instruction
  /// at \p Addr.
  void checkDpredProgress(uint32_t Addr);
  void mergeDpred();
  void endDpredAtResolve();
  void insertSelectUops(unsigned Count, uint64_t AtCycle);

  bool isCfmAddr(uint32_t Addr) const;
  bool hasReturnCfm() const;

  // -- Members -------------------------------------------------------------
  const ir::Program &P;
  const profile::DecodedProgram &Code;
  SimConfig Config;
  /// DMP is enabled and the DivergeMap is not empty.  Only the wrong-path
  /// walks read the predictor, so it is kept live only then, and only then
  /// does AnnotationAt exist.
  bool NeedsPredictor;

  // Invariant configuration, copied out of Config at construction so the
  // per-instruction paths read it from the same cache lines as the fetch
  // cursor state instead of reaching into the big SimConfig struct.
  const unsigned FetchWidth;
  const unsigned RetireWidth;
  const unsigned MaxNtBranches;
  const unsigned FrontEndDepth;
  const uint32_t RobSize;
  /// Extra fetch cycles of an I-cache miss served by L2 / by memory.
  const unsigned FetchL2Penalty;
  const unsigned FetchMemPenalty;
  /// Latencies of a load served by L2 / by memory (a DL1 hit's is in
  /// TimingAt).
  const unsigned LoadL2Latency;
  const unsigned LoadMemLatency;
  /// What the dataflow schedule needs of one instruction, tabulated per PC
  /// so that scheduling it takes no branch on its opcode: the registers it
  /// reads (NoReg, whose ready cycle stays 0, for none or RegZero), the
  /// register it writes (SinkReg, never read, for none) and its latency (a
  /// load's DL1 hit).
  static constexpr uint8_t NoReg = ir::NumRegs;
  static constexpr uint8_t SinkReg = ir::NumRegs + 1;
  struct OpTiming {
    uint8_t Src1 = NoReg;
    uint8_t Src2 = NoReg;
    uint8_t Dst = SinkReg;
    uint32_t Latency = 0;
  };
  std::vector<OpTiming> TimingAt;
  /// The DivergeMap as a dense per-PC table (nullptr: no annotation), so a
  /// branch's lookup is one indexed load instead of a hash probe.
  std::vector<const core::DivergeAnnotation *> AnnotationAt;

  std::unique_ptr<uarch::BranchPredictor> Predictor;

  CycleResource IssuePorts;

  SimStats Stats;
  DpredEpisode Ep;
  /// The cursors as the out-of-line code sees them; run() syncs its local
  /// copy with this around every out-of-line step.
  PipeState Pipe;

  // Dataflow state: the ready cycle of each register, NoReg and SinkReg.
  uint64_t RegReady[ir::NumRegs + 2] = {};
  std::vector<uint64_t> RobRetireRing;
  /// Return addresses of the calls in flight on the correct path.
  std::vector<uint32_t> CallStack;
};

} // namespace dmp::sim

#endif // DMP_SIM_DMPCORE_H
