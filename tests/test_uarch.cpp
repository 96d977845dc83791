//===- tests/test_uarch.cpp - Microarchitecture component tests ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/RNG.h"
#include "uarch/BTB.h"
#include "uarch/BranchPredictor.h"
#include "uarch/Cache.h"
#include "uarch/ConfidenceEstimator.h"
#include "uarch/ReturnAddressStack.h"

#include <gtest/gtest.h>

using namespace dmp;
using namespace dmp::uarch;

namespace {

/// Feeds a predictor a stream from a generator; returns the accuracy over
/// the final half of the stream (after warmup).
template <typename Gen>
double trainedAccuracy(BranchPredictor &P, uint32_t Addr, unsigned N,
                       Gen NextOutcome) {
  unsigned Correct = 0, Measured = 0;
  for (unsigned I = 0; I < N; ++I) {
    const bool Outcome = NextOutcome(I);
    const bool Predicted = P.predict(Addr);
    if (I >= N / 2) {
      ++Measured;
      Correct += (Predicted == Outcome);
    }
    P.update(Addr, Outcome);
  }
  return static_cast<double>(Correct) / Measured;
}

} // namespace

TEST(PerceptronTest, LearnsBiasedBranch) {
  PerceptronPredictor P;
  EXPECT_GT(trainedAccuracy(P, 100, 2000, [](unsigned) { return true; }),
            0.99);
  PerceptronPredictor Q;
  EXPECT_GT(trainedAccuracy(Q, 100, 2000, [](unsigned) { return false; }),
            0.99);
}

TEST(PerceptronTest, LearnsAlternatingViaHistory) {
  PerceptronPredictor P;
  EXPECT_GT(
      trainedAccuracy(P, 5, 4000, [](unsigned I) { return (I % 2) == 0; }),
      0.95);
}

TEST(PerceptronTest, RandomStreamNearChance) {
  PerceptronPredictor P;
  RNG Rng(3);
  const double Acc = trainedAccuracy(
      P, 9, 4000, [&Rng](unsigned) { return Rng.nextBool(0.5); });
  EXPECT_LT(Acc, 0.65);
  EXPECT_GT(Acc, 0.35);
}

TEST(PerceptronTest, HistoryAdvances) {
  PerceptronPredictor P;
  EXPECT_EQ(P.history(), 0u);
  P.update(1, true);
  P.update(1, false);
  P.update(1, true);
  EXPECT_EQ(P.history() & 0x7, 0b101u);
}

// Table 1's 16KB perceptron: 256 perceptrons x (64 history weights + bias),
// one byte per weight.
TEST(PerceptronTest, TableIsOneBytePerWeight) {
  EXPECT_EQ(PerceptronPredictor().tableBytes(), 256u * 65u);
  EXPECT_EQ(sizeof(SaturatingWeight<-128, 127>), 1u);
  EXPECT_EQ(sizeof(SaturatingWeight<-1000, 1000>), sizeof(int));
}

TEST(GShareTest, LearnsBiasedBranch) {
  GSharePredictor P;
  EXPECT_GT(trainedAccuracy(P, 42, 2000, [](unsigned) { return true; }),
            0.99);
}

TEST(GShareTest, ResetClearsState) {
  GSharePredictor P;
  for (int I = 0; I < 100; ++I)
    P.update(7, false);
  EXPECT_FALSE(P.predict(7));
  P.reset();
  EXPECT_TRUE(P.predict(7)); // weakly-taken initial state
  EXPECT_EQ(P.history(), 0u);
}

TEST(ConfidenceTest, StartsHighConfidence) {
  ConfidenceEstimator C;
  EXPECT_FALSE(C.isLowConfidence(123));
}

TEST(ConfidenceTest, MispredictionDropsConfidence) {
  ConfidenceEstimator C(/*IndexBits=*/12, /*HistoryBits=*/0,
                        /*Threshold=*/14);
  C.update(50, /*PredictedCorrectly=*/false, /*Taken=*/true);
  EXPECT_TRUE(C.isLowConfidence(50));
  // 13 correct predictions: still below threshold 14.
  for (int I = 0; I < 13; ++I)
    C.update(50, true, true);
  EXPECT_TRUE(C.isLowConfidence(50));
  C.update(50, true, true);
  EXPECT_FALSE(C.isLowConfidence(50));
}

TEST(ConfidenceTest, MeasuresPVN) {
  ConfidenceEstimator C(/*IndexBits=*/12, /*HistoryBits=*/0,
                        /*Threshold=*/14);
  // Make branch low-confidence, then resolve 1 misprediction and 3 correct
  // while low confidence.
  C.update(9, false, true);
  C.update(9, false, true);
  C.update(9, true, true);
  C.update(9, true, true);
  // Low-conf events: the second misp + 2 correct + ... verify PVN in (0,1).
  EXPECT_GT(C.measuredAccConf(), 0.0);
  EXPECT_LT(C.measuredAccConf(), 1.0);
  EXPECT_GT(C.lowConfidenceCount(), 0u);
}

TEST(BTBTest, HitAfterUpdate) {
  BTB T(256);
  uint32_t Target = 0;
  EXPECT_FALSE(T.lookup(10, Target));
  T.update(10, 999);
  EXPECT_TRUE(T.lookup(10, Target));
  EXPECT_EQ(Target, 999u);
  EXPECT_EQ(T.hitCount(), 1u);
  EXPECT_EQ(T.missCount(), 1u);
}

TEST(BTBTest, ConflictEviction) {
  BTB T(256);
  T.update(5, 100);
  T.update(5 + 256, 200); // same set, different tag
  uint32_t Target = 0;
  EXPECT_FALSE(T.lookup(5, Target));
  EXPECT_TRUE(T.lookup(5 + 256, Target));
  EXPECT_EQ(Target, 200u);
}

TEST(RASTest, LifoOrder) {
  ReturnAddressStack R(8);
  R.push(1);
  R.push(2);
  R.push(3);
  EXPECT_EQ(R.top(), 3u);
  EXPECT_EQ(R.pop(), 3u);
  EXPECT_EQ(R.pop(), 2u);
  EXPECT_EQ(R.pop(), 1u);
  EXPECT_EQ(R.pop(), 0u); // underflow
}

TEST(RASTest, OverflowWrapsOldest) {
  ReturnAddressStack R(4);
  for (uint32_t I = 1; I <= 6; ++I)
    R.push(I);
  // Only the last 4 survive: 6,5,4,3.
  EXPECT_EQ(R.pop(), 6u);
  EXPECT_EQ(R.pop(), 5u);
  EXPECT_EQ(R.pop(), 4u);
  EXPECT_EQ(R.pop(), 3u);
  EXPECT_EQ(R.pop(), 0u);
}

TEST(CacheTest, HitAfterFill) {
  Cache C(/*SizeBytes=*/1024, /*Assoc=*/2, /*LineBytes=*/64,
          /*HitLatency=*/2);
  EXPECT_FALSE(C.access(0));
  EXPECT_TRUE(C.access(0));
  EXPECT_TRUE(C.access(63)); // same line
  EXPECT_FALSE(C.access(64));
  EXPECT_EQ(C.missCount(), 2u);
  EXPECT_EQ(C.accessCount(), 4u);
}

TEST(CacheTest, LruEviction) {
  // 2-way, 64B lines, 2 sets (256B total).
  Cache C(256, 2, 64, 2);
  // Set 0 lines: 0, 128, 256 ... fill two ways then touch a third.
  C.access(0);
  C.access(128);
  C.access(0);   // 0 is now MRU
  C.access(256); // evicts 128
  EXPECT_TRUE(C.access(0));
  EXPECT_FALSE(C.access(128));
}

TEST(MemoryHierarchyTest, LatencyLevels) {
  MemoryConfig Config;
  MemoryHierarchy M(Config);
  const unsigned Cold = M.loadLatency(0);
  EXPECT_EQ(Cold, Config.DL1Latency + Config.L2Latency +
                      Config.MemoryLatency);
  const unsigned Warm = M.loadLatency(0);
  EXPECT_EQ(Warm, Config.DL1Latency);
  // L2 hit: evict from DL1 by touching many lines mapping to one set.
  const unsigned ColdFetch = M.fetchLatency(1 << 20);
  EXPECT_EQ(ColdFetch,
            Config.IL1Latency + Config.L2Latency + Config.MemoryLatency);
  EXPECT_EQ(M.fetchLatency(1 << 20), Config.IL1Latency);
}
