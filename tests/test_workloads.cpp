//===- tests/test_workloads.cpp - Synthetic suite tests -----------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "analyze/Analyze.h"
#include "ir/Printer.h"
#include "workloads/Patterns.h"
#include "workloads/SpecSuite.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <set>

using namespace dmp;
using namespace dmp::workloads;

TEST(SpecSuiteTest, HasSeventeenBenchmarks) {
  const auto &Suite = specSuite();
  EXPECT_EQ(Suite.size(), 17u);
  std::set<std::string> Names;
  for (const BenchmarkSpec &Spec : Suite)
    Names.insert(Spec.Name);
  EXPECT_EQ(Names.size(), 17u);
  EXPECT_TRUE(Names.count("gzip"));
  EXPECT_TRUE(Names.count("go"));
  EXPECT_TRUE(Names.count("m88ksim"));
}

TEST(SpecSuiteTest, AllBenchmarksBuildAndVerify) {
  for (const BenchmarkSpec &Spec : specSuite()) {
    const Workload W = buildBenchmark(Spec);
    EXPECT_GT(W.Prog->instrCount(), 100u) << Spec.Name;
    EXPECT_FALSE(W.Slots.empty()) << Spec.Name;
    EXPECT_GT(W.MemoryWords, 0u) << Spec.Name;
  }
}

// buildBenchmark does not lint the programs it builds; this test carries
// that check.  Spec.Seed reaches only the memory image and the slot data,
// so every seed builds the committed seed's program, and the lint of that
// one program covers every held-out seed.
TEST(SpecSuiteTest, ProgramsAreSeedIndependentAndLintClean) {
  for (const BenchmarkSpec &Spec : specSuite()) {
    const Workload W = buildBenchmark(Spec);
    analyze::DiagnosticSink Sink;
    EXPECT_TRUE(analyze::lintProgram(*W.Prog, &Sink).ok()) << Spec.Name;
    EXPECT_TRUE(Sink.empty()) << Spec.Name << ":\n" << Sink.renderText();
    const std::string IR = ir::printProgram(*W.Prog);
    for (const uint64_t Offset :
         {1ull, 2ull, 7ull, 1000ull, (1ull << 32) + 5}) {
      BenchmarkSpec Seeded = Spec;
      Seeded.Seed += Offset;
      // EXPECT_TRUE, not EXPECT_EQ: a diff of two listings is unreadable.
      EXPECT_TRUE(ir::printProgram(*buildBenchmark(Seeded).Prog) == IR)
          << Spec.Name << " builds another program at seed offset "
          << Offset;
    }
  }
}

TEST(SpecSuiteTest, ImagesAreDeterministic) {
  const Workload W = buildByName("crafty");
  const auto A = W.buildImage(InputSetKind::Run);
  const auto B = W.buildImage(InputSetKind::Run);
  EXPECT_EQ(A, B);
}

TEST(SpecSuiteTest, RunAndTrainImagesDiffer) {
  const Workload W = buildByName("crafty");
  const auto Run = W.buildImage(InputSetKind::Run);
  const auto Train = W.buildImage(InputSetKind::Train);
  ASSERT_EQ(Run.size(), Train.size());
  size_t Different = 0;
  for (size_t I = 0; I < Run.size(); ++I)
    Different += (Run[I] != Train[I]);
  // Distributions are shifted, not scrambled: many words differ but the
  // images are clearly related (same slots, same kinds of content).
  EXPECT_GT(Different, Run.size() / 100);
}

TEST(SpecSuiteTest, SlotBasesAreDisjointRegions) {
  const Workload W = buildByName("go");
  std::set<uint64_t> Bases;
  for (const PatternSlot &Slot : W.Slots) {
    EXPECT_EQ(Slot.Base % ComponentBuilder::RegionWords, 0u);
    EXPECT_TRUE(Bases.insert(Slot.Base).second) << "duplicate region";
  }
}

TEST(SpecSuiteTest, BenchmarksAreDistinctPrograms) {
  const Workload A = buildByName("gzip");
  const Workload B = buildByName("go");
  EXPECT_NE(A.Prog->instrCount(), B.Prog->instrCount());
  EXPECT_NE(A.Prog->condBranchAddrs().size(),
            B.Prog->condBranchAddrs().size());
}

TEST(SpecSuiteTest, ProgramsAreDeterministic) {
  const Workload A = buildByName("parser");
  const Workload B = buildByName("parser");
  ASSERT_EQ(A.Prog->instrCount(), B.Prog->instrCount());
  for (uint32_t Addr = 0; Addr < A.Prog->instrCount(); ++Addr) {
    EXPECT_EQ(A.Prog->instrAt(Addr).Op, B.Prog->instrAt(Addr).Op);
    EXPECT_EQ(A.Prog->instrAt(Addr).Imm, B.Prog->instrAt(Addr).Imm);
  }
}

TEST(PatternsTest, BernoulliRespectsProbability) {
  std::vector<int64_t> Image;
  RNG Rng(3);
  fillBernoulli(Image, 0, 10000, 0.3, Rng);
  int64_t Ones = 0;
  for (int64_t W : Image)
    Ones += W;
  EXPECT_NEAR(static_cast<double>(Ones) / 10000.0, 0.3, 0.03);
}

TEST(PatternsTest, PeriodicPattern) {
  std::vector<int64_t> Image;
  fillPeriodic(Image, 0, 12, 3);
  for (size_t I = 0; I < 12; ++I)
    EXPECT_EQ(Image[I], (I % 3 == 0) ? 1 : 0);
}

TEST(PatternsTest, TripCountsInRange) {
  std::vector<int64_t> Image;
  RNG Rng(9);
  fillTripCounts(Image, 0, 1000, 2, 9, Rng);
  for (int64_t W : Image) {
    EXPECT_GE(W, 2);
    EXPECT_LE(W, 9);
  }
}

TEST(PatternsTest, MarkovHasRuns) {
  std::vector<int64_t> Image;
  RNG Rng(17);
  fillMarkov(Image, 0, 10000, 0.02, Rng);
  // Expected switches ~ 200; far fewer than a Bernoulli(0.5) stream.
  size_t Switches = 0;
  for (size_t I = 1; I < Image.size(); ++I)
    Switches += (Image[I] != Image[I - 1]);
  EXPECT_LT(Switches, 500u);
  EXPECT_GT(Switches, 50u);
}
