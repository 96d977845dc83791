//===- tests/test_profiler.cpp - Profiler unit tests ---------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "check/ProgramGen.h"
#include "harness/Experiment.h"
#include "profile/Profiler.h"
#include "serialize/Hash.h"
#include "serialize/ProfileIO.h"
#include "support/RNG.h"
#include "workloads/SpecSuite.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace dmp;
using namespace dmp::profile;

TEST(ProfilerTest, EdgeCountsMatchKnownOutcomes) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/2, /*Iters=*/32);
  cfg::ProgramAnalysis PA(*H.Prog);
  // Period 4: taken on every 4th index -> 8 taken, 24 not-taken.
  ProfileData Data =
      collectProfile(*H.Prog, PA, test::alternatingImage(64, 4));
  const cfg::BranchCounts Counts = Data.Edges.branchCounts(H.BranchAddr);
  EXPECT_EQ(Counts.Taken, 8u);
  EXPECT_EQ(Counts.NotTaken, 24u);
  EXPECT_NEAR(Counts.takenProb(), 0.25, 1e-12);
  EXPECT_TRUE(Data.Edges.wasExecuted(H.BranchAddr));
  EXPECT_TRUE(Data.Completed);
}

TEST(ProfilerTest, BlockExecCounts) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/2, /*Iters=*/32);
  cfg::ProgramAnalysis PA(*H.Prog);
  ProfileData Data =
      collectProfile(*H.Prog, PA, test::alternatingImage(64, 4));
  EXPECT_EQ(Data.Edges.blockExecCount(H.BranchBlock->getStartAddr()), 32u);
  EXPECT_EQ(Data.Edges.blockExecCount(H.TakenSide->getStartAddr()), 8u);
  EXPECT_EQ(Data.Edges.blockExecCount(H.FallSide->getStartAddr()), 24u);
  EXPECT_EQ(Data.Edges.blockExecCount(H.Merge->getStartAddr()), 32u);
}

TEST(ProfilerTest, MispredictionProfileTracksHardness) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/2, /*Iters=*/512);
  cfg::ProgramAnalysis PA(*H.Prog);

  // Strongly biased data: very few mispredictions.
  std::vector<int64_t> Easy(8192, 0);
  ProfileData EasyData = collectProfile(*H.Prog, PA, Easy);
  EXPECT_LT(EasyData.Branches.mispRate(H.BranchAddr), 0.05);

  // Pseudo-random data: many mispredictions.
  std::vector<int64_t> Hard(8192, 0);
  RNG Rng(7);
  for (auto &W : Hard)
    W = Rng.nextBool(0.5);
  ProfileData HardData = collectProfile(*H.Prog, PA, Hard);
  EXPECT_GT(HardData.Branches.mispRate(H.BranchAddr), 0.25);
  EXPECT_GT(HardData.profileMPKI(), EasyData.profileMPKI());
}

TEST(ProfilerTest, LoopIterationProfile) {
  auto H = test::buildDataLoop(/*BodyLen=*/2, /*Outer=*/16);
  cfg::ProgramAnalysis PA(*H.Prog);
  // Trip counts: constant 5.
  std::vector<int64_t> Image(64, 5);
  ProfileData Data = collectProfile(*H.Prog, PA, Image);
  const LoopStats *Stats =
      Data.Loops.find(H.BranchBlock->getStartAddr());
  ASSERT_NE(Stats, nullptr);
  EXPECT_EQ(Stats->Invocations, 16u);
  EXPECT_NEAR(Stats->avgIterations(), 5.0, 1e-9);
  // Dynamic size: 5 iterations x (2 filler + addi + br) = 20 per entry.
  EXPECT_NEAR(Stats->avgDynamicSize(), 20.0, 1e-9);
}

TEST(ProfilerTest, LoopProfileVariableTrips) {
  auto H = test::buildDataLoop(/*BodyLen=*/2, /*Outer=*/32);
  cfg::ProgramAnalysis PA(*H.Prog);
  std::vector<int64_t> Image(64, 0);
  for (size_t I = 0; I < 32; ++I)
    Image[I] = 1 + static_cast<int64_t>(I % 4); // trips 1..4
  ProfileData Data = collectProfile(*H.Prog, PA, Image);
  const LoopStats *Stats =
      Data.Loops.find(H.BranchBlock->getStartAddr());
  ASSERT_NE(Stats, nullptr);
  EXPECT_NEAR(Stats->avgIterations(), 2.5, 1e-9);
  EXPECT_EQ(Stats->Iterations.minValue(), 1u);
  EXPECT_EQ(Stats->Iterations.maxValue(), 4u);
}

TEST(ProfilerTest, MaxInstrsBudgetRespected) {
  auto H = test::buildSimpleHammockLoop(/*BodyLen=*/2, /*Iters=*/100000);
  cfg::ProgramAnalysis PA(*H.Prog);
  ProfileOptions Options;
  Options.MaxInstrs = 5000;
  ProfileData Data =
      collectProfile(*H.Prog, PA, test::alternatingImage(8192, 2), Options);
  EXPECT_LE(Data.DynamicInstrs, 5000u);
  EXPECT_FALSE(Data.Completed);
}

TEST(ProfilerTest, CalleeLoopsAttributedSeparately) {
  auto H = test::buildRetFuncLoop(/*Iters=*/16);
  cfg::ProgramAnalysis PA(*H.Prog);
  ProfileData Data =
      collectProfile(*H.Prog, PA, test::alternatingImage(64, 2));
  // The outer loop in main exists and iterated 16 times once.
  bool FoundOuter = false;
  for (const auto &Entry : Data.Loops.all()) {
    if (Entry.second.Invocations == 1 &&
        Entry.second.avgIterations() == 16.0)
      FoundOuter = true;
  }
  EXPECT_TRUE(FoundOuter);
}

TEST(ProfilerTest, DeterministicProfiles) {
  auto H = test::buildFreqHammockLoop();
  cfg::ProgramAnalysis PA(*H.Prog);
  const auto Image = test::alternatingImage(8192, 3);
  ProfileData A = collectProfile(*H.Prog, PA, Image);
  ProfileData B = collectProfile(*H.Prog, PA, Image);
  EXPECT_EQ(A.DynamicInstrs, B.DynamicInstrs);
  EXPECT_EQ(A.Branches.totalMispredictions(),
            B.Branches.totalMispredictions());
  EXPECT_EQ(A.Edges.branchCounts(H.BranchAddr).Taken,
            B.Edges.branchCounts(H.BranchAddr).Taken);
}

//===----------------------------------------------------------------------===//
// Profile golden: SHA-256 of encodeProfileData, written by the per-
// instruction step() profiler before it ran on the batched emulator.
//
// Regenerate (only after an intentional profile change) by emptying
// tests/golden/profile_bytes.sha256: each test then reports every line it
// computed as "missing golden line: <line>".
//===----------------------------------------------------------------------===//

namespace {

std::string profileDigest(const ir::Program &P, const cfg::ProgramAnalysis &PA,
                          const std::vector<int64_t> &Image,
                          uint64_t MaxInstrs) {
  ProfileOptions Options;
  Options.MaxInstrs = MaxInstrs;
  const std::vector<uint8_t> Blob =
      serialize::encodeProfileData(collectProfile(P, PA, Image, Options));
  return serialize::Hasher::hash(Blob.data(), Blob.size()).hex();
}

/// Compares \p Actual with the lines of profile_bytes.sha256 whose first
/// word is \p Tag.
void expectProfileGolden(const std::string &Tag,
                         const std::vector<std::string> &Actual) {
  std::ifstream In(std::string(DMP_TEST_GOLDEN_DIR) + "/profile_bytes.sha256");
  ASSERT_TRUE(In.good()) << "missing golden file profile_bytes.sha256";
  std::vector<std::string> Golden;
  for (std::string L; std::getline(In, L);)
    if (L.rfind(Tag + " ", 0) == 0)
      Golden.push_back(L);
  for (size_t I = 0; I < Actual.size(); ++I) {
    if (I < Golden.size())
      EXPECT_EQ(Actual[I], Golden[I]);
    else
      ADD_FAILURE() << "missing golden line: " << Actual[I];
  }
  EXPECT_EQ(Actual.size(), Golden.size());
}

} // namespace

// The 17 workloads on the run and train inputs at the campaign budget.
TEST(ProfileGolden, SuiteRunAndTrain) {
  const uint64_t Budget = harness::ExperimentOptions().Profile.MaxInstrs;
  std::vector<std::string> Actual;
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    const workloads::Workload W = workloads::buildBenchmark(Spec);
    const cfg::ProgramAnalysis PA(*W.Prog);
    for (const auto Kind :
         {workloads::InputSetKind::Run, workloads::InputSetKind::Train})
      Actual.push_back(
          "suite " + std::string(Spec.Name) +
          (Kind == workloads::InputSetKind::Run ? " run " : " train ") +
          profileDigest(*W.Prog, PA, W.buildImage(Kind), Budget));
  }
  expectProfileGolden("suite", Actual);
}

// Budgets that stop the run input mid-block and mid-loop, so the profile
// of a cut run (open loops, a block entered but not finished) is pinned.
TEST(ProfileGolden, SuiteCutBudgets) {
  std::vector<std::string> Actual;
  for (const workloads::BenchmarkSpec &Spec : workloads::specSuite()) {
    const workloads::Workload W = workloads::buildBenchmark(Spec);
    const cfg::ProgramAnalysis PA(*W.Prog);
    const std::vector<int64_t> Image =
        W.buildImage(workloads::InputSetKind::Run);
    for (const uint64_t Budget : {1ull, 2ull, 3ull, 1000ull, 123457ull})
      Actual.push_back("cut " + std::string(Spec.Name) + " " +
                       std::to_string(Budget) + " " +
                       profileDigest(*W.Prog, PA, Image, Budget));
  }
  expectProfileGolden("cut", Actual);
}

// ProgramGen recipes 0-199 at 300k instructions: every generated CFG shape.
TEST(ProfileGolden, Recipes200) {
  std::vector<std::string> Actual;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    const check::GenProgram G = check::materialize(check::randomRecipe(Seed));
    const cfg::ProgramAnalysis PA(*G.Prog);
    Actual.push_back("recipe " + std::to_string(Seed) + " " +
                     profileDigest(*G.Prog, PA, G.Image, 300'000));
  }
  expectProfileGolden("recipe", Actual);
}
