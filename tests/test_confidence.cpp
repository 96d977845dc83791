//===- tests/test_confidence.cpp - Confidence estimator unit tests ------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Direct unit tests for uarch::ConfidenceEstimator beyond the integration
// coverage in test_uarch.cpp: counter saturation behavior, the
// reset-on-misprediction MDC semantics, and the Acc_Conf statistic
// measured from counters read before each update.  HistoryBits=0 makes
// the table index a pure function of the branch address, so expectations
// are exact.
//
//===----------------------------------------------------------------------===//

#include "support/Saturating.h"
#include "uarch/ConfidenceEstimator.h"

#include <gtest/gtest.h>

using namespace dmp;
using namespace dmp::uarch;

namespace {
constexpr uint32_t Addr = 0x5;
constexpr unsigned Threshold = 14;

ConfidenceEstimator makeEstimator() {
  return ConfidenceEstimator(/*IndexBits=*/6, /*HistoryBits=*/0);
}

/// Table 1's low-confidence estimate: the counter is below threshold 14.
bool lowConf(const ConfidenceEstimator &CE, uint32_t A) {
  return CE.counter(A) < Threshold;
}

/// Acc_Conf (PVN) over a stream of updates, the way the replay measures it
/// (sim::SimStats::accConf): each branch's counter is read before its
/// update.
struct PvnMeter {
  uint64_t LowConf = 0;
  uint64_t LowConfMispredicted = 0;

  void update(ConfidenceEstimator &CE, uint32_t A, bool PredictedCorrectly,
              bool Taken) {
    if (lowConf(CE, A)) {
      ++LowConf;
      LowConfMispredicted += !PredictedCorrectly;
    }
    CE.update(A, PredictedCorrectly, Taken);
  }
  double accConf() const {
    return LowConf ? double(LowConfMispredicted) / double(LowConf) : 0.0;
  }
};
} // namespace

TEST(ConfidenceEstimatorTest, StartsWarmAtCounterMax) {
  const ConfidenceEstimator CE = makeEstimator();
  // Counters initialize saturated, so a cold table is high-confidence
  // everywhere (documented deviation from reset-to-zero hardware).
  for (uint32_t A = 0; A < 64; ++A)
    EXPECT_EQ(CE.counter(A), SaturatingCounter<4>::Max);
}

TEST(ConfidenceEstimatorTest, MispredictionResetsCounterToZero) {
  ConfidenceEstimator CE = makeEstimator();
  CE.update(Addr, /*PredictedCorrectly=*/false, /*Taken=*/true);
  EXPECT_EQ(CE.counter(Addr), 0u);
  // One misprediction must zero the MDC, not just decrement it: with
  // threshold 14 even 13 subsequent correct predictions stay low-conf.
  for (unsigned I = 0; I < Threshold - 1; ++I) {
    CE.update(Addr, /*PredictedCorrectly=*/true, /*Taken=*/true);
    EXPECT_EQ(CE.counter(Addr), I + 1);
    EXPECT_TRUE(lowConf(CE, Addr)) << "after " << (I + 1);
  }
  CE.update(Addr, /*PredictedCorrectly=*/true, /*Taken=*/true);
  EXPECT_FALSE(lowConf(CE, Addr));
}

TEST(ConfidenceEstimatorTest, CounterSaturatesAtMax) {
  ConfidenceEstimator CE = makeEstimator();
  CE.update(Addr, false, true); // Zero the counter.
  // Far more correct updates than the 4-bit range can represent...
  for (unsigned I = 0; I < 10 * SaturatingCounter<4>::Max; ++I)
    CE.update(Addr, true, true);
  EXPECT_EQ(CE.counter(Addr), SaturatingCounter<4>::Max);
  // ...must not wrap: still exactly one misprediction from low confidence.
  CE.update(Addr, false, true);
  EXPECT_EQ(CE.counter(Addr), 0u);
}

TEST(ConfidenceEstimatorTest, AccConfIsExactLowConfMispredictionRate) {
  ConfidenceEstimator CE = makeEstimator();
  PvnMeter Meter;
  // The initial misprediction happens at high confidence: not counted.
  Meter.update(CE, Addr, /*PredictedCorrectly=*/false, /*Taken=*/true);
  EXPECT_EQ(Meter.LowConf, 0u);
  // Three correct + one mispredicted update, all while low-confidence.
  for (int I = 0; I < 3; ++I)
    Meter.update(CE, Addr, /*PredictedCorrectly=*/true, /*Taken=*/true);
  Meter.update(CE, Addr, /*PredictedCorrectly=*/false, /*Taken=*/true);
  EXPECT_EQ(Meter.LowConf, 4u);
  EXPECT_DOUBLE_EQ(Meter.accConf(), 0.25);
}

TEST(ConfidenceEstimatorTest, AccConfStaysWithinUnitInterval) {
  ConfidenceEstimator CE(/*IndexBits=*/4, /*HistoryBits=*/4);
  PvnMeter Meter;
  // Pseudo-random but deterministic outcome stream over aliasing branches.
  uint64_t X = 0x9E3779B97F4A7C15ull;
  uint64_t Updates = 0;
  for (int I = 0; I < 5000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    const uint32_t A = static_cast<uint32_t>(X & 0xFF);
    ASSERT_LE(CE.counter(A), SaturatingCounter<4>::Max);
    Meter.update(CE, A, /*PredictedCorrectly=*/(X >> 8) & 1,
                 /*Taken=*/(X >> 9) & 1);
    ++Updates;
    ASSERT_GE(Meter.accConf(), 0.0);
    ASSERT_LE(Meter.accConf(), 1.0);
    ASSERT_LE(Meter.LowConf, Updates);
  }
  EXPECT_GT(Meter.LowConf, 0u);
}

TEST(ConfidenceEstimatorTest, BranchesAliasOnlyWithinTableIndex) {
  ConfidenceEstimator CE = makeEstimator();
  // 6 index bits: address 0x45 aliases 0x5; 0x9 does not.
  CE.update(Addr, /*PredictedCorrectly=*/false, /*Taken=*/true);
  EXPECT_EQ(CE.counter(Addr), 0u);
  EXPECT_EQ(CE.counter(Addr + 64), 0u);
  EXPECT_EQ(CE.counter(0x9), SaturatingCounter<4>::Max);
}
