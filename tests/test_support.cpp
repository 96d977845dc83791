//===- tests/test_support.cpp - Support library unit tests --------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Histogram.h"
#include "support/MathExtras.h"
#include "support/RNG.h"
#include "support/Saturating.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dmp;

TEST(RNGTest, DeterministicForSeed) {
  RNG A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RNGTest, DifferentSeedsDiffer) {
  RNG A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += (A.next() == B.next());
  EXPECT_LT(Same, 2);
}

TEST(RNGTest, NextBelowInRange) {
  RNG R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(RNGTest, NextInRangeInclusive) {
  RNG R(9);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    const int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= (V == -3);
    SawHi |= (V == 3);
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RNGTest, NextDoubleUnitInterval) {
  RNG R(11);
  double Sum = 0.0;
  for (int I = 0; I < 10000; ++I) {
    const double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 10000.0, 0.5, 0.02);
}

TEST(RNGTest, NextBoolMatchesProbability) {
  RNG R(13);
  int True70 = 0;
  for (int I = 0; I < 10000; ++I)
    True70 += R.nextBool(0.7);
  EXPECT_NEAR(True70 / 10000.0, 0.7, 0.03);
  EXPECT_FALSE(R.nextBool(0.0));
  EXPECT_TRUE(R.nextBool(1.0));
}

TEST(RNGTest, ForkIndependentStreams) {
  RNG Parent(99);
  RNG Child = Parent.fork();
  EXPECT_NE(Parent.next(), Child.next());
}

TEST(SaturatingCounterTest, SaturatesAtBounds) {
  SaturatingCounter<2> C;
  EXPECT_EQ(C.get(), 0);
  C.decrement();
  EXPECT_EQ(C.get(), 0);
  for (int I = 0; I < 10; ++I)
    C.increment();
  EXPECT_EQ(C.get(), 3);
  EXPECT_TRUE(C.isSaturated());
  C.decrement();
  EXPECT_EQ(C.get(), 2);
  EXPECT_TRUE(C.isWeaklySet());
  C.decrement();
  EXPECT_EQ(C.get(), 1);
  EXPECT_FALSE(C.isWeaklySet());
}

TEST(SaturatingWeightTest, ClampsToRange) {
  SaturatingWeight<-8, 7> W;
  for (int I = 0; I < 100; ++I)
    W.add(1);
  EXPECT_EQ(W.get(), 7);
  for (int I = 0; I < 100; ++I)
    W.add(-1);
  EXPECT_EQ(W.get(), -8);
}

TEST(MathExtrasTest, PowerOfTwo) {
  EXPECT_FALSE(isPowerOf2(0));
  EXPECT_TRUE(isPowerOf2(1));
  EXPECT_TRUE(isPowerOf2(1024));
  EXPECT_FALSE(isPowerOf2(1023));
}

TEST(MathExtrasTest, Log2) {
  EXPECT_EQ(log2Floor(1), 0u);
  EXPECT_EQ(log2Floor(4096), 12u);
  EXPECT_EQ(log2Floor(4097), 12u);
  EXPECT_EQ(log2Ceil(4096), 12u);
  EXPECT_EQ(log2Ceil(4097), 13u);
}

TEST(MathExtrasTest, GeomeanAndMean) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(safeDiv(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safeDiv(6.0, 3.0), 2.0);
}

TEST(HistogramTest, BasicMoments) {
  Histogram H;
  EXPECT_EQ(H.average(), 0.0);
  H.addSample(1);
  H.addSample(3);
  H.addSample(3);
  H.addSample(5);
  EXPECT_EQ(H.sampleCount(), 4u);
  EXPECT_DOUBLE_EQ(H.average(), 3.0);
  EXPECT_EQ(H.minValue(), 1u);
  EXPECT_EQ(H.maxValue(), 5u);
  EXPECT_DOUBLE_EQ(H.fractionAbove(3), 0.25);
  EXPECT_EQ(H.percentile(0.5), 3u);
}

TEST(StringUtilsTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatPercent(0.204), "+20.4%");
  EXPECT_EQ(formatPercent(-0.005), "-0.5%");
  EXPECT_EQ(formatDouble(3.14159, 3), "3.142");
}

TEST(StringUtilsTest, SplitString) {
  const auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[2], "");
  EXPECT_EQ(Parts[3], "c");
}

TEST(StringUtilsTest, ParseU64IsStrict) {
  uint64_t V = 7;
  EXPECT_TRUE(parseU64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64("18446744073709551615", V));
  EXPECT_EQ(V, ~uint64_t{0});
  // strtoull would take every one of these (a '-' even negates).
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616", "1.0"}) {
    V = 7;
    EXPECT_FALSE(parseU64(Bad, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 7u) << "'" << Bad << "'";
  }
}

TEST(StringUtilsTest, ParseF64IsStrict) {
  double V = 7.0;
  EXPECT_TRUE(parseF64("0.25", V));
  EXPECT_DOUBLE_EQ(V, 0.25);
  EXPECT_TRUE(parseF64(".5", V));
  EXPECT_DOUBLE_EQ(V, 0.5);
  EXPECT_TRUE(parseF64("1e-3", V));
  EXPECT_DOUBLE_EQ(V, 1e-3);
  for (const char *Bad : {"", "-0.5", "+0.5", " 0.5", "0.5 ", "0.5x", "inf",
                          "nan", "0x1p3", "1e999"}) {
    V = 7.0;
    EXPECT_FALSE(parseF64(Bad, V)) << "'" << Bad << "'";
    EXPECT_DOUBLE_EQ(V, 7.0) << "'" << Bad << "'";
  }
}

TEST(TableTest, RendersAlignedColumns) {
  Table T({"bench", "ipc"});
  T.addRow({"gzip", "2.10"});
  T.addSeparator();
  T.addRow({"mcf", "0.45"});
  const std::string Out = T.render();
  EXPECT_NE(Out.find("bench"), std::string::npos);
  EXPECT_NE(Out.find("2.10"), std::string::npos);
  EXPECT_NE(Out.find("-+-"), std::string::npos);
  EXPECT_EQ(T.rowCount(), 3u);
}
