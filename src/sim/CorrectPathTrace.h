//===- sim/CorrectPathTrace.h - Recorded correct-path front end ----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The map-independent half of a simulation, recorded once per (program,
/// input, machine configuration) and replayed into every timing run.
///
/// Only correct-path (retired) instructions touch the functional emulator,
/// the direction predictor's training, the confidence estimator, the BTB,
/// the return address stack and the cache hierarchy; the wrong path of a
/// dpred episode only *reads* the predictor.  So every outcome those
/// structures produce is the same for the baseline and for every DMP
/// machine, and recordCorrectPath() captures them in a compact trace:
///
///  - one byte per conditional branch: resolved direction, predicted
///    direction, whether the predictor trained (the bit the replay's live
///    predictor needs to stay exact) and, in the high nibble, the JRS
///    confidence counter before the branch updated it, which the replay
///    compares with its own SimConfig::ConfThreshold, so one trace serves
///    every threshold;
///  - one packed event per exceptional instruction: an I-cache miss served
///    by L2 or memory, a load served by L2 or memory, a BTB miss on a taken
///    transfer, a return-address mispredict;
///  - the retired-instruction count and the I/D/L2 miss totals.
///
/// DmpCore::run(const CorrectPathTrace &) replays it by walking the
/// predecoded program from its entry: every instruction that is not an
/// event is an ordinary hit.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SIM_CORRECTPATHTRACE_H
#define DMP_SIM_CORRECTPATHTRACE_H

#include "ir/Program.h"
#include "sim/FinalState.h"
#include "sim/SimConfig.h"

#include <cstdint>
#include <vector>

namespace dmp::sim {

/// Which functional stepping path feeds the recorder.  The trace is
/// identical either way (the digest-identity contract, DESIGN.md);
/// Reference exists so differential tests can drive the whole simulator
/// from the independent interpreter and compare digests.
enum class EmuMode { Fast, Reference };

struct CorrectPathTrace {
  /// Bits of one Branches byte; bits kConfShift and up hold the branch's
  /// confidence counter.
  enum BranchBit : uint8_t {
    Taken = 1,
    Predicted = 2,
    Trained = 4,
  };
  static constexpr unsigned kConfShift = 4;

  /// Event codes, the low 8 bits of one Events word.
  enum EventCode : uint8_t {
    /// No event: only advances the instruction index (a gap longer than
    /// the 24-bit field splits into Skip words).
    Skip = 0,
    FetchL2,  ///< I-cache miss that hit in L2.
    FetchMem, ///< I-cache miss that went to memory.
    BtbMiss,  ///< Taken transfer whose target missed in the BTB.
    LoadL2,   ///< Load that missed the DL1 and hit in L2.
    LoadMem,  ///< Load that went to memory.
    RasMiss,  ///< Return whose RAS prediction was wrong.
  };

  /// Largest instruction-index gap one Events word can carry.
  static constexpr uint32_t kMaxGap = (1u << 24) - 1;

  /// Retired (correct-path) instructions.
  uint64_t Instrs = 0;
  /// One byte of BranchBit flags and confidence counter per retired
  /// conditional branch, in order.
  std::vector<uint8_t> Branches;
  /// Events in retirement order, each `gap << 8 | code`, where gap is the
  /// instruction-index distance from the previous word (from index 0 for
  /// the first).  Several events of one instruction follow with gap 0.
  std::vector<uint32_t> Events;
  uint64_t IL1Misses = 0;
  uint64_t DL1Misses = 0;
  uint64_t L2Misses = 0;
};

/// Runs \p P on \p MemoryImage until Halt or Config.MaxInstrs through the
/// functional emulator and the correct-path front end of \p Config (the
/// predictor, confidence estimator, BTB, RAS and caches; ConfThreshold is
/// read by the replay only), and returns the trace every timing run
/// replays.  When \p FinalStateOut is non-null it receives the retired
/// architectural state (registers, memory fingerprint, and the in-order
/// retired-store sequence), with Config.InjectFault applied.  Honours
/// Config's watchdog, Cancel and Progress at the same retired-instruction
/// counts as the replay, throwing StatusError.
CorrectPathTrace recordCorrectPath(const ir::Program &P,
                                   const std::vector<int64_t> &MemoryImage,
                                   const SimConfig &Config,
                                   FinalState *FinalStateOut = nullptr,
                                   EmuMode Mode = EmuMode::Fast);

} // namespace dmp::sim

#endif // DMP_SIM_CORRECTPATHTRACE_H
