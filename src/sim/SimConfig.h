//===- sim/SimConfig.h - Machine configuration ----------------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated machine configuration — paper Table 1:
///
///   Front end:    64KB 2-way 2-cycle I-cache; fetches up to 3 conditional
///                 not-taken branches per cycle; 8-wide.
///   Predictors:   16KB perceptron (64-bit history, 256 entries); 4K-entry
///                 BTB; 64-entry return address stack; minimum branch
///                 misprediction penalty 25 cycles.
///   Core:         8-wide fetch/issue/execute/retire; 512-entry ROB;
///                 128-entry LSQ; scheduling window 8x64.
///   Memory:       64KB 4-way 2-cycle DL1; 1MB 8-way 10-cycle L2; 300-cycle
///                 memory.
///   DMP support:  2KB enhanced JRS confidence estimator (12-bit history,
///                 threshold 14); 32 predicate registers; 3 CFM registers.
///
/// The LSQ and predicate registers are not modelled and the CFM registers
/// are core::SelectionConfig::MaxCfmPoints: toString prints them as text.
/// The fields nest in three reader groups, recorder, core and dpred-mode,
/// listed once in simConfigKey (harness/Experiment.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SIM_SIMCONFIG_H
#define DMP_SIM_SIMCONFIG_H

#include "guard/Guard.h"
#include "ir/Opcode.h"
#include "support/Status.h"
#include "uarch/BranchPredictor.h"
#include "uarch/Cache.h"

#include <cstdint>
#include <functional>
#include <string>

namespace dmp::sim {

/// How often (in retired instructions) the inner loop polls
/// SimConfig::Cancel.  Coarse enough to be free, fine enough that a
/// cancelled cell dies within a few microseconds of work.
constexpr uint64_t kCancelPollInstrs = 4096;

/// Full machine configuration.
struct SimConfig {
  // Front end.
  unsigned FetchWidth = 8;
  unsigned MaxNotTakenBranchesPerFetch = 3;
  /// Fetch-to-execute depth; together with branch execution latency this
  /// yields the paper's 25-cycle minimum misprediction penalty.
  unsigned FrontEndDepth = 21;

  // Core.
  unsigned IssueWidth = 8;
  unsigned RetireWidth = 8;
  unsigned RobSize = 512;

  // Predictors.
  uarch::PredictorKind Predictor = uarch::PredictorKind::Perceptron;
  unsigned BtbEntries = 4096;
  unsigned RasEntries = 64;

  // Confidence estimator (enhanced JRS).  The paper's Table 1 uses 12-bit
  // history; with our much shorter simulation runs a 12-bit-history index
  // spreads each branch over thousands of counters that never warm up, so
  // we fold in 4 history bits instead (a deliberate, documented scaling
  // deviation; see DESIGN.md).  Threshold 14 of 15 as in Table 1.
  unsigned ConfIndexBits = 12;
  unsigned ConfHistoryBits = 4;
  unsigned ConfThreshold = 14;

  // Memory hierarchy.
  uarch::MemoryConfig Memory;

  // DMP support (always present; an empty DivergeMap makes the baseline).
  /// dpred-mode instruction budget per episode; entering instructions
  /// beyond this fills the window and forces the episode to end.
  unsigned MaxDpredInstrs = 400;
  /// Maximum predicated loop iterations before declaring no-exit.
  unsigned MaxLoopDpredIters = 30;

  /// Dynamic instruction budget of one simulation run.
  uint64_t MaxInstrs = 2'000'000;

  /// Runaway-cell watchdog: when non-zero, a run that is still executing
  /// after this many retired instructions *aborts* with ResourceExhausted
  /// (StatusError) instead of stopping cleanly the way MaxInstrs does.
  /// MaxInstrs bounds how much of the workload a cell measures; the
  /// watchdog bounds how wrong a misconfigured cell can go.  Counted in
  /// retired instructions, so exhaustion is deterministic across thread
  /// counts and hosts.  0 disables.
  uint64_t WatchdogInstrBudget = 0;

  /// Cooperative cancellation for the inner loop: when set, the run polls
  /// the token every kCancelPollInstrs retired instructions and aborts
  /// with the token's Status (StatusError).  Not part of the simulated
  /// machine, so excluded from cache-key hashing (simConfigKey).  The
  /// token must outlive the run.
  const guard::CancelToken *Cancel = nullptr;

  /// Liveness beat for the inner loop: when set, called every
  /// kCancelPollInstrs retired instructions (the same cadence as Cancel).
  /// The dmp::serve workers use it to emit CELL_PROGRESS heartbeats so the
  /// supervisor's hung-worker watchdog can tell "slow" from "wedged".
  /// Like Cancel, not part of the simulated machine and excluded from
  /// cache-key hashing (simConfigKey); must be cheap and must not throw.
  std::function<void()> Progress;

  /// Deliberate retired-state corruption for differential-oracle canary
  /// tests (dmp::check): 0 = none, 1 = drop the first retired store from
  /// the extracted final state, 2 = flip a bit of r1 in the extracted
  /// final registers.  Never affects timing or the emulated program; only
  /// the FinalState the simulator reports.
  unsigned InjectFault = 0;

  /// Execution latency of \p Op (loads use the cache model instead).
  unsigned latencyFor(ir::Opcode Op) const;

  /// Rejects (Invariant) a machine the timing model cannot run: a zero
  /// fetch, issue or retire width, more issue ports than CycleResource
  /// counts, or an empty ROB.  DmpCore and recordCorrectPath throw it as a
  /// StatusError before sizing anything from the configuration.
  Status check() const;

  /// Human-readable Table 1-style description.
  std::string toString() const;
};

/// The inner-loop guards of one run over a SimConfig: the watchdog, Cancel
/// and Progress.  Both halves of a simulation (recordCorrectPath and the
/// DmpCore replay) call retired() after every retired instruction, so a
/// runaway or cancelled run aborts at a point that depends only on the
/// retired-instruction count — deterministic for the watchdog across any
/// --jobs value, and never a hang for either.  The abort is a StatusError
/// with origin "sim::DmpCore"; TaskGraph::runAll turns it into the cell's
/// Status and reports render the cell as a "--" gap.
class RunGuard {
public:
  explicit RunGuard(const SimConfig &Config);

  /// Checks the guards after the \p Count-th retired instruction: aborts
  /// past the watchdog budget, and every kCancelPollInstrs beats Progress
  /// and polls Cancel.  One compare on the common path.
  void retired(uint64_t Count) {
    if (Count >= NextCheck)
      check(Count);
  }

  /// The smallest count at which retired() acts; calls for smaller counts
  /// may be skipped.
  uint64_t nextCheck() const { return NextCheck; }

private:
  void check(uint64_t Count);

  const uint64_t Watchdog;
  const guard::CancelToken *const Cancel;
  const std::function<void()> &Progress;
  const bool Polls;
  /// The next count at which a guard can fire.
  uint64_t NextCheck;
};

} // namespace dmp::sim

#endif // DMP_SIM_SIMCONFIG_H
