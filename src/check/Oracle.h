//===- check/Oracle.h - Differential oracle for dynamic predication -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle: runs one program through the reference
/// functional emulator and through the cycle simulator in three
/// configurations —
///
///   1. baseline           (an empty DivergeMap: no branch enters
///                          dpred-mode),
///   2. dmp-selected       (dpred on, diverge branches from the paper's
///                          best-heuristic selection on a real profile),
///   3. dmp-adversarial    (dpred on, *every* conditional branch marked
///                          diverge with its post-dominator CFM, loop
///                          latches as loop-diverge branches, all
///                          always-predicate) —
///
/// and asserts that every run retires bit-identical architectural state
/// (registers, memory fingerprint, in-order retired-store sequence), since
/// dynamic predication must be architecturally invisible (paper Section 2).
/// On top of state equality it checks internal simulator invariants: the
/// dpred episode-accounting identity, flush-vs-misprediction consistency,
/// and confidence-estimator bounds.
///
/// The adversarial configuration is the interesting one: it forces the
/// dpred machinery through every branch of every generated CFG shape,
/// including ones the real selector would never pick (oversized hammocks,
/// branches whose paths never merge, nested episode entries), which is
/// where episode-termination bugs live.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_CHECK_ORACLE_H
#define DMP_CHECK_ORACLE_H

#include "cfg/Analysis.h"
#include "core/DivergeInfo.h"
#include "sim/FinalState.h"
#include "sim/SimConfig.h"
#include "sim/SimStats.h"

#include <string>
#include <vector>

namespace dmp::check {

/// Oracle knobs.
struct OracleOptions {
  /// Shared dynamic-instruction budget: the reference emulator and every
  /// simulator leg stop at the same count, so capped runs stay comparable.
  uint64_t MaxInstrs = 300'000;
  /// Base machine configuration; MaxInstrs/InjectFault are overridden per
  /// leg.
  sim::SimConfig Sim;
  /// Canary fault injected into the dmp-selected leg's extracted state
  /// (see SimConfig::InjectFault).  Used by the oracle's own tests to
  /// prove it detects retired-state divergence.
  unsigned InjectFault = 0;
  bool RunSelected = true;
  bool RunAdversarial = true;
};

/// One simulator configuration's outcome.
struct LegResult {
  std::string Name;
  sim::SimStats Stats;
  sim::FinalState State;
  /// State mismatches vs the reference + invariant violations; empty = ok.
  std::vector<std::string> Errors;
};

/// Everything one oracle run produced.
struct OracleReport {
  sim::FinalState Reference;
  std::vector<LegResult> Legs;
  /// Structural verifier findings on the input program (a generator bug).
  std::vector<std::string> GenErrors;

  bool ok() const;
  /// All errors, one per line, prefixed with the leg name.
  std::string summary() const;
};

/// Runs \p P on the reference interpreter (Emulator::stepReference, kept
/// independent of the decoded fast path; same stepping discipline as the
/// simulator: stop at Halt or \p MaxInstrs) and extracts the final state.
sim::FinalState runReference(const ir::Program &P,
                             const std::vector<int64_t> &Image,
                             uint64_t MaxInstrs);

/// Marks every conditional branch a diverge branch: loop latches become
/// loop-diverge branches (header + written-register select-µop count),
/// everything else a hammock with its immediate post-dominator as the CFM
/// point (return CFM when the paths only rejoin at the virtual exit).  All
/// annotations are AlwaysPredicate, so every single execution of every
/// branch enters dpred-mode.
core::DivergeMap adversarialAnnotations(const cfg::ProgramAnalysis &PA);

/// Runs the full oracle on (\p P, \p Image).  \p PA must analyze \p P.
OracleReport runOracle(const ir::Program &P, const cfg::ProgramAnalysis &PA,
                       const std::vector<int64_t> &Image,
                       const OracleOptions &Opts = OracleOptions());

} // namespace dmp::check

#endif // DMP_CHECK_ORACLE_H
