//===- profile/Profiler.h - Profile collection ---------------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling pass: one functional run of the program on a given input
/// set, collecting the three profiles the compiler algorithms consume:
///
///  - edge profile (taken/not-taken counts, block execution counts),
///  - branch misprediction profile under a profiling-time predictor,
///  - loop iteration/size profile.
///
/// This corresponds to the paper's profiling run (Section 6.1): profiling is
/// done with either the same input set as the evaluation run or a different
/// one (Section 7.3 studies the difference).
///
/// The run goes one basic block per dispatch: each block body (a
/// DecodedInstr::RunLen run) retires through Emulator::run()'s threaded,
/// fused dispatch, and only the control instruction that ends a block is
/// stepped, which is where the profiling predictor predicts and trains.
/// Counts are kept per address and folded into the sparse profiles once at
/// the end; tests/golden/profile_bytes.sha256 pins the encoded result.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_PROFILE_PROFILER_H
#define DMP_PROFILE_PROFILER_H

#include "cfg/Analysis.h"
#include "cfg/EdgeProfile.h"
#include "profile/BranchProfile.h"
#include "profile/LoopProfile.h"
#include "uarch/BranchPredictor.h"

#include <cstdint>
#include <vector>

namespace dmp::profile {

/// Profiling-run options.
struct ProfileOptions {
  /// Dynamic instruction budget of the profiling run.
  uint64_t MaxInstrs = 20'000'000;
  /// The predictor emulated at profile time to estimate misprediction
  /// rates.  Deliberately smaller/different from the runtime predictor.
  uarch::PredictorKind Predictor = uarch::PredictorKind::GShare;
};

/// Everything a profiling run produces.
struct ProfileData {
  cfg::EdgeProfile Edges;
  BranchProfile Branches;
  LoopProfile Loops;
  uint64_t DynamicInstrs = 0;
  /// True when the program ran to completion within the budget.
  bool Completed = false;

  /// Program-level mispredictions-per-kilo-instruction under the profiling
  /// predictor (the MPKI column of Table 2 is the *runtime* MPKI; this one
  /// is its profile-time analogue).
  double profileMPKI() const;
};

/// Runs \p P on \p MemoryImage and collects profiles.  \p PA must analyze
/// the same program.
ProfileData collectProfile(const ir::Program &P, const cfg::ProgramAnalysis &PA,
                           const std::vector<int64_t> &MemoryImage,
                           const ProfileOptions &Options = ProfileOptions());

} // namespace dmp::profile

#endif // DMP_PROFILE_PROFILER_H
