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

  /// Bits of the per-instruction event mask: 1 << CorrectPathTrace code.
  static constexpr unsigned evBit(CorrectPathTrace::EventCode Code) {
    return 1u << Code;
  }

  // -- Fetch engine -------------------------------------------------------
  /// Assigns a fetch cycle to the next correct-path instruction.  Handles
  /// fetch width, taken-branch group breaks, the not-taken-branch limit,
  /// I-cache misses, and BTB bubbles (\p Events: the instruction's event
  /// mask).
  DMP_ALWAYS_INLINE uint64_t fetchInstr(ir::Opcode Op, bool PredictedTaken,
                                        unsigned Events);

  /// Moves the fetch cursor to \p Cycle (redirect); resets group state.
  void redirectFetch(uint64_t Cycle);

  /// Consumes \p Count raw fetch slots (wrong-path / select-µop slots).
  void consumeFetchSlots(unsigned Count);

  // -- Dataflow schedule ---------------------------------------------------
  /// Schedules execution of \p D fetched at \p FetchCycle; returns the
  /// completion (resolution) cycle.
  DMP_ALWAYS_INLINE uint64_t scheduleInstr(const profile::DecodedInstr &D,
                                           uint64_t FetchCycle,
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
  DMP_ALWAYS_INLINE uint64_t retireInstr(uint64_t DoneCycle);

  // -- Branch handling -----------------------------------------------------
  void handleCondBranch(const Retired &R, uint64_t FetchCycle,
                        uint64_t DoneCycle);
  /// Trains the live predictor with \p R's recorded outcome (only the
  /// wrong-path walks read it, so a run without diverge branches skips it).
  void trainPredictor(const Retired &R);

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
  const core::DivergeMap *Diverge;
  SimConfig Config;
  bool DmpEnabled;
  /// Only the wrong-path walks read the predictor, so it is kept live only
  /// when some branch can enter dpred-mode.
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
  /// Load latencies: DL1 hit, L2 hit, memory.
  const unsigned LoadDL1Latency;
  const unsigned LoadL2Latency;
  const unsigned LoadMemLatency;
  /// SimConfig::latencyFor tabulated per opcode: the scheduling hot path
  /// pays an indexed byte load instead of an out-of-line call.
  static constexpr unsigned NumOpcodeValues =
      static_cast<unsigned>(ir::Opcode::Halt) + 1;
  uint8_t OpLatency[NumOpcodeValues];

  std::unique_ptr<uarch::BranchPredictor> Predictor;

  CycleResource IssuePorts;

  SimStats Stats;
  DpredEpisode Ep;

  // Fetch cursor state.
  uint64_t FetchCycle = 0;
  unsigned SlotsUsed = 0;
  unsigned NtBranchesThisCycle = 0;

  // Dataflow state.
  uint64_t RegReady[ir::NumRegs] = {};
  uint64_t LastRetireCycle = 0;
  /// Retires booked in LastRetireCycle (in-order retirement probes cycles
  /// monotonically, so these two scalars model the retire-port resource
  /// exactly; see retireInstr).
  unsigned RetiresThisCycle = 0;
  std::vector<uint64_t> RobRetireRing;
  /// Ring slot the next fetched instruction occupies.  Both real and
  /// phantom (wrong-path) entries advance it, so phantoms displace real
  /// slots; keeping it as an incrementally wrapped cursor removes the two
  /// per-instruction `% RobSize` divides the old index arithmetic paid.
  uint32_t RobCursor = 0;
  /// Return addresses of the calls in flight on the correct path.
  std::vector<uint32_t> CallStack;

  void advanceRobCursor() {
    if (++RobCursor == RobSize)
      RobCursor = 0;
  }
};

} // namespace dmp::sim

#endif // DMP_SIM_DMPCORE_H
