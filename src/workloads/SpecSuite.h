//===- workloads/SpecSuite.h - SPEC-like synthetic suite ------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 17 synthetic benchmarks standing in for the paper's 12 SPEC CPU2000
/// plus 5 SPEC 95 integer benchmarks (Table 2).  Each benchmark composes
/// the ComponentBuilder's CFG structures with counts and branch-data
/// predictabilities tuned to echo its namesake's character: go is branchy
/// and hard (MPKI ~23), gap/vortex are easy (~1), vpr/twolf are rich in
/// mispredicted short hammocks, parser/gzip lean on unpredictable loops,
/// twolf/go have hammocks merging at different returns, gcc has complex
/// CFGs with few frequently-hammocks.
///
/// Each benchmark has two input sets: "run" (the MinneSPEC-reduced stand-in,
/// used for evaluation) and "train" (a shifted distribution, used for the
/// input-set sensitivity experiments of Figures 9-10).
///
//===----------------------------------------------------------------------===//

#ifndef DMP_WORKLOADS_SPECSUITE_H
#define DMP_WORKLOADS_SPECSUITE_H

#include "ir/Program.h"
#include "workloads/ComponentBuilder.h"

#include <memory>
#include <string>
#include <vector>

namespace dmp::workloads {

/// Which input data set to generate (Section 7.3).
enum class InputSetKind {
  Run,   ///< Evaluation input (reduced-input stand-in).
  Train, ///< Profiling-only alternative input (train stand-in).
};

/// "run" or "train", as command lines and reports spell \p Kind.
inline const char *inputSetName(InputSetKind Kind) {
  return Kind == InputSetKind::Train ? "train" : "run";
}

/// Composition recipe of one benchmark.
struct BenchmarkSpec {
  const char *Name;
  unsigned OuterIters;
  // Component counts.
  unsigned SimpleHard = 0;
  unsigned SimpleEasy = 0;
  unsigned Nested = 0;
  unsigned Freq = 0;
  unsigned Short = 0;
  unsigned RetFuncs = 0;
  unsigned DataLoops = 0;
  /// Loops that fail the Section 5.2 heuristics (big bodies): their exit
  /// mispredictions are *not* coverable by DMP.
  unsigned HardLoops = 0;
  /// Loops whose LOOP_ITER decision flips between input sets (Figure 10).
  unsigned BorderLoops = 0;
  /// Hammocks guarded by a train-input-only branch (Figure 10).
  unsigned Guarded = 0;
  /// Oversized hammocks: rejected by both the thresholds and the cost
  /// model; their mispredictions are *not* coverable by DMP.
  unsigned Big = 0;
  unsigned CallHammocks = 0;
  unsigned DualMerge = 0;
  unsigned Straight = 0; ///< Branch-free filler components.
  // Shape parameters.
  unsigned BodyLen = 12;   ///< Instructions per hammock side.
  unsigned MergeLen = 14;  ///< Control-independent instructions after CFM.
  unsigned StraightLen = 50;
  double HardP = 0.5;      ///< Taken probability of hard branches.
  uint64_t Seed = 1;
};

/// A built benchmark: program + recipe for its input images.
struct Workload {
  std::string Name;
  std::unique_ptr<ir::Program> Prog;
  std::vector<PatternSlot> Slots;
  uint64_t MemoryWords = 0;

  /// Generates the memory image of the given input set.
  std::vector<int64_t> buildImage(InputSetKind Kind) const;

private:
  friend Workload buildBenchmark(const BenchmarkSpec &Spec);
  uint64_t BaseSeed = 1;
};

/// Builds one benchmark from its spec (verified before return).
Workload buildBenchmark(const BenchmarkSpec &Spec);

/// The 17-benchmark suite, in Table 2 order.
const std::vector<BenchmarkSpec> &specSuite();

/// The suite benchmark named \p Name, or null.
const BenchmarkSpec *findBenchmark(const std::string &Name);

/// Builds a suite benchmark by name; aborts on unknown names.
Workload buildByName(const std::string &Name);

} // namespace dmp::workloads

#endif // DMP_WORKLOADS_SPECSUITE_H
