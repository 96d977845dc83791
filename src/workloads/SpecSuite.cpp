//===- workloads/SpecSuite.cpp - SPEC-like synthetic suite --------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/SpecSuite.h"

#include "support/Compiler.h"
#include "workloads/Patterns.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace dmp;
using namespace dmp::workloads;

//===----------------------------------------------------------------------===//
// Input image generation
//===----------------------------------------------------------------------===//

namespace {
/// Distribution shifts applied to the train input set, so profiles from the
/// two sets agree on most branches but not all (Figures 9-10).
struct InputVariant {
  uint64_t SeedSalt;
  double PShift;      ///< Bernoulli probability shift (toward 0.5-crossing).
  int64_t TripShift;  ///< Trip-count upper bound shift.
  double SwitchShift; ///< Markov switch-probability shift.
};
} // namespace

static InputVariant variantFor(InputSetKind Kind) {
  switch (Kind) {
  case InputSetKind::Run:
    return {0x52554E, 0.0, 0, 0.0};
  case InputSetKind::Train:
    return {0x545241494E, 0.05, 2, 0.02};
  }
  DMP_UNREACHABLE("unknown input set kind");
}

std::vector<int64_t> Workload::buildImage(InputSetKind Kind) const {
  const InputVariant Variant = variantFor(Kind);
  std::vector<int64_t> Image(MemoryWords, 0);
  RNG Rng(BaseSeed ^ Variant.SeedSalt);
  for (const PatternSlot &Slot : Slots) {
    RNG SlotRng = Rng.fork();
    switch (Slot.PatternKind) {
    case PatternSlot::Kind::Bernoulli: {
      double P = Slot.P + (Slot.P <= 0.5 ? Variant.PShift : -Variant.PShift);
      P = std::clamp(P, 0.0, 0.98);
      fillBernoulli(Image, Slot.Base, ComponentBuilder::RegionWords, P,
                    SlotRng);
      break;
    }
    case PatternSlot::Kind::Periodic:
      fillPeriodic(Image, Slot.Base, ComponentBuilder::RegionWords,
                   Slot.Period);
      break;
    case PatternSlot::Kind::Trip: {
      const int64_t Hi =
          std::max(Slot.TripLo, Slot.TripHi + Variant.TripShift);
      if (Slot.TripSticky > 0.0)
        fillStickyTrips(Image, Slot.Base, ComponentBuilder::RegionWords,
                        Slot.TripLo, Hi, Slot.TripSticky, SlotRng);
      else
        fillTripCounts(Image, Slot.Base, ComponentBuilder::RegionWords,
                       Slot.TripLo, Hi, SlotRng);
      break;
    }
    case PatternSlot::Kind::Markov:
      fillMarkov(Image, Slot.Base, ComponentBuilder::RegionWords,
                 std::clamp(Slot.SwitchProb + Variant.SwitchShift, 0.005, 0.5),
                 SlotRng);
      break;
    }
  }
  return Image;
}

//===----------------------------------------------------------------------===//
// Benchmark construction
//===----------------------------------------------------------------------===//

namespace {
/// Slot prototypes.
PatternSlot hardSlot(double P) {
  PatternSlot S;
  S.PatternKind = PatternSlot::Kind::Bernoulli;
  S.P = P;
  return S;
}

PatternSlot rareSlot(double P = 0.03) { return hardSlot(P); }

PatternSlot easySlot(unsigned Variation) {
  // All variants are strongly biased or strongly sticky: bias survives the
  // global-history pollution of neighboring random branches, which a
  // periodic pattern does not (a lesson measured, not assumed — periodic
  // branches mispredicted ~35% here despite being "predictable").
  PatternSlot S;
  switch (Variation % 3) {
  case 0:
    S.PatternKind = PatternSlot::Kind::Bernoulli;
    S.P = 0.995;
    break;
  case 1:
    S.PatternKind = PatternSlot::Kind::Bernoulli;
    S.P = 0.015;
    break;
  default:
    S.PatternKind = PatternSlot::Kind::Markov;
    S.SwitchProb = 0.008;
    break;
  }
  return S;
}

PatternSlot tripSlot(int64_t Lo, int64_t Hi) {
  PatternSlot S;
  S.PatternKind = PatternSlot::Kind::Trip;
  S.TripLo = Lo;
  S.TripHi = Hi;
  return S;
}
} // namespace

Workload workloads::buildBenchmark(const BenchmarkSpec &Spec) {
  Workload W;
  W.Name = Spec.Name;
  W.BaseSeed = Spec.Seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
  W.Prog = std::make_unique<ir::Program>(Spec.Name);

  ComponentBuilder B(*W.Prog);
  B.beginMain(Spec.OuterIters);

  // Interleave component kinds deterministically so hard and easy branches
  // mix in the instruction stream as they do in real programs.
  unsigned Variation = static_cast<unsigned>(Spec.Seed);
  for (unsigned I = 0; I < Spec.SimpleHard; ++I)
    B.addSimpleHammock(B.newSlot(hardSlot(Spec.HardP)), Spec.BodyLen,
                       Spec.MergeLen);
  for (unsigned I = 0; I < Spec.Short; ++I) {
    // Short-hammock branches use bursty (Markov) data: long predictable
    // runs with misprediction bursts.  The first misprediction of each
    // burst hits at *high* confidence, which is exactly the case the
    // always-predicate heuristic of Section 3.4 recovers.
    PatternSlot Bursty;
    Bursty.PatternKind = PatternSlot::Kind::Markov;
    Bursty.SwitchProb = 0.04;
    B.addShortHammock(B.newSlot(Bursty), /*BodyLen=*/3, Spec.MergeLen);
  }
  for (unsigned I = 0; I < Spec.Freq; ++I)
    B.addFreqHammock(B.newSlot(hardSlot(Spec.HardP)), B.newSlot(rareSlot()),
                     Spec.BodyLen, /*RareLen=*/90, Spec.MergeLen);
  for (unsigned I = 0; I < Spec.SimpleEasy; ++I)
    B.addSimpleHammock(B.newSlot(easySlot(Variation + I)), Spec.BodyLen,
                       Spec.MergeLen);
  for (unsigned I = 0; I < Spec.Nested; ++I)
    B.addNestedHammock(B.newSlot(hardSlot(Spec.HardP)),
                       B.newSlot(hardSlot(Spec.HardP)), Spec.BodyLen,
                       Spec.MergeLen);
  for (unsigned I = 0; I < Spec.DataLoops; ++I) {
    // Sticky trip counts: runs of equal lengths that a history predictor
    // partially learns, producing the late-exit episodes that make loop
    // predication profitable (Section 5.1).
    PatternSlot Trips = tripSlot(1, 7);
    Trips.TripSticky = 0.80;
    B.addDataLoop(B.newSlot(Trips), /*BodyLen=*/6,
                  /*PostLen=*/Spec.MergeLen);
  }
  for (unsigned I = 0; I < Spec.BorderLoops; ++I) {
    // The guard is periodic (perfectly predictable): it only controls how
    // often the loop runs, without adding mispredictions of its own.
    PatternSlot Gate;
    Gate.PatternKind = PatternSlot::Kind::Periodic;
    Gate.Period = 12;
    B.addBorderlineLoop(B.newSlot(Gate), B.newSlot(tripSlot(10, 19)),
                        Spec.MergeLen);
  }
  for (unsigned I = 0; I < Spec.Guarded; ++I)
    B.addGuardedHammock(B.newSlot(hardSlot(0.0)),
                        B.newSlot(hardSlot(Spec.HardP)), Spec.BodyLen,
                        Spec.MergeLen);
  for (unsigned I = 0; I < Spec.HardLoops; ++I)
    B.addDataLoop(B.newSlot(tripSlot(2, 6)), /*BodyLen=*/34,
                  /*PostLen=*/Spec.MergeLen);
  for (unsigned I = 0; I < Spec.RetFuncs; ++I)
    B.addRetFunc(B.newSlot(hardSlot(0.30)), Spec.BodyLen, Spec.MergeLen);
  for (unsigned I = 0; I < Spec.CallHammocks; ++I)
    B.addCallHammock(B.newSlot(hardSlot(Spec.HardP)), Spec.BodyLen,
                     Spec.MergeLen);
  for (unsigned I = 0; I < Spec.DualMerge; ++I) {
    // Balanced, sticky selector: both alternative merge blocks are reached
    // often enough that both pass MIN_MERGE_PROB and the branch genuinely
    // has two CFM points (Section 4.3).
    PatternSlot Sel;
    Sel.PatternKind = PatternSlot::Kind::Markov;
    Sel.SwitchProb = 0.03;
    // The condition is mostly predictable: dual-merge hammocks exercise
    // multi-CFM selection and the Eq. 17 machinery without dominating the
    // benchmark's misprediction profile (both stopped paths sit at
    // *different* CFM registers when the selector flips, which is dead
    // time until resolution — a real DMP hazard worth modeling but not
    // amplifying).
    B.addDualMergeHammock(B.newSlot(hardSlot(0.05)), B.newSlot(Sel),
                          Spec.BodyLen, Spec.MergeLen);
  }
  for (unsigned I = 0; I < Spec.Straight; ++I)
    B.addStraightline(Spec.StraightLen);
  for (unsigned I = 0; I < Spec.Big; ++I)
    B.addBigHammock(B.newSlot(hardSlot(Spec.HardP)), /*BodyLen=*/120,
                    Spec.MergeLen);

  B.endMain();
  // The program is lint-clean and independent of Spec.Seed: tier-1
  // SpecSuiteTest.ProgramsAreSeedIndependentAndLintClean checks both, so
  // no build lints.
  W.Prog->finalize();

  W.Slots = B.slots();
  W.MemoryWords = B.memoryWords();
  return W;
}

const std::vector<BenchmarkSpec> &workloads::specSuite() {
  // Counts and hardness chosen to echo Table 2's per-benchmark character
  // (MPKI ordering, CFG mix, which techniques matter per benchmark).
  static const std::vector<BenchmarkSpec> Suite = {
      // SPEC CPU2000 INT.
      {.Name = "gzip", .OuterIters = 4096, .SimpleEasy = 2, .Freq = 1,
       .DataLoops = 1, .HardLoops = 1, .Big = 1, .Straight = 5,
       .BodyLen = 12, .MergeLen = 14, .HardP = 0.50, .Seed = 101},
      {.Name = "vpr", .OuterIters = 4096, .SimpleEasy = 1, .Freq = 2,
       .Short = 3, .Big = 1, .Straight = 3, .BodyLen = 10, .MergeLen = 12,
       .HardP = 0.50, .Seed = 102},
      {.Name = "gcc", .OuterIters = 4096, .SimpleEasy = 2, .Nested = 1,
       .Freq = 1, .Short = 1, .HardLoops = 1, .Big = 4, .CallHammocks = 1,
       .BodyLen = 14, .MergeLen = 12, .HardP = 0.50, .Seed = 103},
      {.Name = "mcf", .OuterIters = 4096, .SimpleEasy = 2, .Freq = 1,
       .Short = 2, .BorderLoops = 1, .Big = 2, .Straight = 2,
       .BodyLen = 10, .MergeLen = 16, .HardP = 0.50, .Seed = 104},
      {.Name = "crafty", .OuterIters = 4096, .SimpleEasy = 2, .Nested = 1,
       .Freq = 1, .BorderLoops = 1, .Guarded = 1, .Big = 3,
       .CallHammocks = 1, .DualMerge = 1, .Straight = 4, .BodyLen = 12,
       .MergeLen = 14, .HardP = 0.40, .Seed = 105},
      {.Name = "parser", .OuterIters = 4096, .SimpleEasy = 1, .Freq = 1,
       .DataLoops = 3, .HardLoops = 1, .Big = 1, .Straight = 4,
       .BodyLen = 10, .MergeLen = 14, .HardP = 0.50, .Seed = 106},
      {.Name = "eon", .OuterIters = 4096, .SimpleHard = 1, .SimpleEasy = 4,
       .Big = 1, .Straight = 2, .BodyLen = 12, .MergeLen = 14,
       .HardP = 0.25, .Seed = 107},
      {.Name = "perlbmk", .OuterIters = 4096, .SimpleHard = 1,
       .SimpleEasy = 3, .Big = 2, .Straight = 2, .BodyLen = 12,
       .MergeLen = 14, .HardP = 0.35, .Seed = 108},
      {.Name = "gap", .OuterIters = 4096, .SimpleEasy = 5, .Freq = 1,
       .BorderLoops = 1, .Straight = 2, .BodyLen = 14, .MergeLen = 14,
       .HardP = 0.30, .Seed = 109},
      {.Name = "vortex", .OuterIters = 4096, .SimpleEasy = 5,
       .BorderLoops = 1, .Big = 1, .Straight = 1, .BodyLen = 14,
       .MergeLen = 14, .HardP = 0.12, .Seed = 110},
      {.Name = "bzip2", .OuterIters = 4096, .SimpleHard = 1, .SimpleEasy = 1,
       .Freq = 2, .BorderLoops = 1, .Guarded = 1, .Big = 3, .Straight = 2,
       .BodyLen = 12, .MergeLen = 14, .HardP = 0.50, .Seed = 111},
      {.Name = "twolf", .OuterIters = 4096, .SimpleEasy = 1, .Nested = 1,
       .Freq = 1, .Short = 2, .RetFuncs = 1, .Big = 2, .Straight = 5,
       .BodyLen = 10, .MergeLen = 14, .HardP = 0.42, .Seed = 112},
      // SPEC 95 INT.
      {.Name = "compress", .OuterIters = 4096, .SimpleEasy = 2, .Freq = 1,
       .Big = 3, .Straight = 3, .BodyLen = 12, .MergeLen = 14,
       .HardP = 0.50, .Seed = 113},
      {.Name = "go", .OuterIters = 4096, .SimpleHard = 1, .SimpleEasy = 1,
       .Nested = 1, .Freq = 2, .Short = 1, .RetFuncs = 1, .HardLoops = 1,
       .Guarded = 1, .Big = 3, .BodyLen = 10, .MergeLen = 12, .HardP = 0.50,
       .Seed = 114},
      {.Name = "ijpeg", .OuterIters = 4096, .SimpleEasy = 2, .Nested = 1,
       .Freq = 1, .BorderLoops = 1, .Guarded = 1, .Big = 2,
       .CallHammocks = 1, .DualMerge = 1, .Straight = 4, .BodyLen = 12,
       .MergeLen = 14, .HardP = 0.30, .Seed = 115},
      {.Name = "li", .OuterIters = 4096, .SimpleHard = 1, .SimpleEasy = 2,
       .Big = 2, .Straight = 2, .BodyLen = 12, .MergeLen = 14, .HardP = 0.45,
       .Seed = 116},
      {.Name = "m88ksim", .OuterIters = 4096, .SimpleHard = 1, .SimpleEasy = 4,
       .Big = 1, .Straight = 2, .BodyLen = 12, .MergeLen = 14, .HardP = 0.12,
       .Seed = 117},
  };
  return Suite;
}

const BenchmarkSpec *workloads::findBenchmark(const std::string &Name) {
  for (const BenchmarkSpec &Spec : specSuite())
    if (Name == Spec.Name)
      return &Spec;
  return nullptr;
}

Workload workloads::buildByName(const std::string &Name) {
  if (const BenchmarkSpec *Spec = findBenchmark(Name))
    return buildBenchmark(*Spec);
  std::fprintf(stderr, "unknown benchmark: %s\n", Name.c_str());
  std::abort();
}
