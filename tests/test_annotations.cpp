//===- tests/test_annotations.cpp - Annotation map and IO tests ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/AnnotationIO.h"
#include "core/DivergeInfo.h"
#include "core/SimpleSelectors.h"
#include "profile/Profiler.h"
#include "profile/TwoDProfile.h"
#include "sim/CycleResource.h"
#include "support/RNG.h"
#include "workloads/SpecSuite.h"

#include <gtest/gtest.h>

using namespace dmp;
using namespace dmp::core;

namespace {

DivergeMap sampleMap() {
  DivergeMap Map;
  DivergeAnnotation Simple;
  Simple.Kind = DivergeKind::SimpleHammock;
  Simple.AlwaysPredicate = true;
  Simple.Cfms.push_back(CfmPoint::atAddress(42, 1.0));
  Map.add(10, Simple);

  DivergeAnnotation Freq;
  Freq.Kind = DivergeKind::FreqHammock;
  Freq.Cfms.push_back(CfmPoint::atAddress(100, 0.97));
  Freq.Cfms.push_back(CfmPoint::atReturn(0.44));
  Map.add(55, Freq);

  DivergeAnnotation Loop;
  Loop.Kind = DivergeKind::Loop;
  Loop.LoopHeaderAddr = 200;
  Loop.LoopSelectUops = 5;
  Loop.LoopStayTaken = true;
  Loop.Cfms.push_back(CfmPoint::atAddress(230, 1.0));
  Map.add(229, Loop);

  DivergeAnnotation NoCfm;
  NoCfm.Kind = DivergeKind::NoCfm;
  Map.add(300, NoCfm);
  return Map;
}

} // namespace

TEST(DivergeMapTest, SortedAddrsAndCounts) {
  const DivergeMap Map = sampleMap();
  EXPECT_EQ(Map.size(), 4u);
  const auto Addrs = Map.sortedAddrs();
  ASSERT_EQ(Addrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(Addrs.begin(), Addrs.end()));
  // 1 + 2 + 1 + 0 CFM points over 4 entries.
  EXPECT_NEAR(Map.avgCfmPoints(), 1.0, 1e-9);
  const auto Kinds = Map.kindCounts();
  EXPECT_EQ(Kinds.at("simple"), 1u);
  EXPECT_EQ(Kinds.at("freq"), 1u);
  EXPECT_EQ(Kinds.at("loop"), 1u);
  EXPECT_EQ(Kinds.at("no-cfm"), 1u);
}

TEST(DivergeMapTest, TotalMergeProbCapped) {
  DivergeAnnotation Ann;
  Ann.Cfms.push_back(CfmPoint::atAddress(1, 0.7));
  Ann.Cfms.push_back(CfmPoint::atAddress(2, 0.6));
  EXPECT_DOUBLE_EQ(Ann.totalMergeProb(), 1.0);
}

TEST(AnnotationIOTest, RoundTrip) {
  const DivergeMap Map = sampleMap();
  const std::string Text = serializeDivergeMap(Map);
  EXPECT_NE(Text.find("# dmp-diverge-map v1"), std::string::npos);

  DivergeMap Parsed;
  const Status S = parseDivergeMap(Text, Parsed);
  ASSERT_TRUE(S.ok()) << S.toString();
  ASSERT_EQ(Parsed.size(), Map.size());
  EXPECT_EQ(Parsed.sortedAddrs(), Map.sortedAddrs());

  const DivergeAnnotation &Loop = *Parsed.find(229);
  EXPECT_EQ(Loop.Kind, DivergeKind::Loop);
  EXPECT_EQ(Loop.LoopHeaderAddr, 200u);
  EXPECT_EQ(Loop.LoopSelectUops, 5u);
  EXPECT_TRUE(Loop.LoopStayTaken);

  const DivergeAnnotation &Freq = *Parsed.find(55);
  ASSERT_EQ(Freq.Cfms.size(), 2u);
  EXPECT_EQ(Freq.Cfms[0].PointKind, CfmPoint::Kind::Address);
  EXPECT_EQ(Freq.Cfms[0].Addr, 100u);
  EXPECT_NEAR(Freq.Cfms[0].MergeProb, 0.97, 1e-6);
  EXPECT_EQ(Freq.Cfms[1].PointKind, CfmPoint::Kind::Return);
  EXPECT_NEAR(Freq.Cfms[1].MergeProb, 0.44, 1e-6);

  EXPECT_TRUE(Parsed.find(10)->AlwaysPredicate);
  EXPECT_FALSE(Parsed.find(300)->AlwaysPredicate);

  // Serialization is stable.
  EXPECT_EQ(serializeDivergeMap(Parsed), Text);
}

TEST(AnnotationIOTest, RejectsMissingHeader) {
  DivergeMap Map;
  const Status S = parseDivergeMap("branch 1 kind=simple always=0\n", Map);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Corrupt);
  EXPECT_NE(S.message().find("header"), std::string::npos) << S.toString();
}

TEST(AnnotationIOTest, RejectsMalformedTokens) {
  DivergeMap Map;
  const Status Kind = parseDivergeMap(
      "# dmp-diverge-map v1\nbranch 1 kind=banana always=0\n", Map);
  EXPECT_FALSE(Kind.ok());
  EXPECT_NE(Kind.message().find("unknown kind"), std::string::npos);
  EXPECT_FALSE(parseDivergeMap(
      "# dmp-diverge-map v1\nbranch 1 kind=simple cfm=bogus\n", Map).ok());
  EXPECT_FALSE(parseDivergeMap(
      "# dmp-diverge-map v1\nnonsense 1 2\n", Map).ok());
}

// Satellite coverage for the error paths promised by AnnotationIO.h: every
// malformed input yields a Corrupt diagnostic (never a crash) and leaves the
// output map untouched.

TEST(AnnotationIOTest, TruncatedFileLeavesMapUntouched) {
  const std::string Full = serializeDivergeMap(sampleMap());
  for (size_t Len = 0; Len < Full.size(); Len += 7) {
    DivergeMap Map;
    Map.add(999, DivergeAnnotation()); // sentinel: must survive failure
    const Status S = parseDivergeMap(Full.substr(0, Len), Map);
    if (!S.ok()) {
      EXPECT_EQ(S.code(), ErrorCode::Corrupt);
      EXPECT_EQ(Map.size(), 1u) << "failed parse must not mutate the map";
      EXPECT_TRUE(Map.contains(999));
    }
  }
}

TEST(AnnotationIOTest, RejectsOversizedNumbers) {
  DivergeMap Map;
  // Branch address above 2^32-1.
  const Status Addr = parseDivergeMap(
      "# dmp-diverge-map v1\nbranch 4294967296 kind=simple\n", Map);
  EXPECT_FALSE(Addr.ok());
  EXPECT_EQ(Addr.code(), ErrorCode::Corrupt);
  // A probability outside [0, 1].
  const Status Prob = parseDivergeMap(
      "# dmp-diverge-map v1\nbranch 1 kind=simple cfm=2:1.5\n", Map);
  EXPECT_FALSE(Prob.ok());
  // An absurdly large loop-header address.
  const Status Hdr = parseDivergeMap(
      "# dmp-diverge-map v1\nbranch 1 kind=loop header=99999999999999\n",
      Map);
  EXPECT_FALSE(Hdr.ok());
  EXPECT_EQ(Map.size(), 0u);
}

// Numbers are plain decimal: a sign or a hex float is a Corrupt, not a
// value strtoull/strtod would have read.
TEST(AnnotationIOTest, RejectsSignedAndHexNumbers) {
  for (const char *Line :
       {"branch +12 kind=simple", "branch 12 kind=simple cfm=ret:+0.5",
        "branch 12 kind=simple cfm=ret:0x1p-1",
        "branch 12 kind=simple cfm=addr:+3:0.5"}) {
    DivergeMap Map;
    const Status S =
        parseDivergeMap(std::string("# dmp-diverge-map v1\n") + Line, Map);
    EXPECT_EQ(S.code(), ErrorCode::Corrupt) << Line;
    EXPECT_EQ(Map.size(), 0u) << Line;
  }
}

TEST(AnnotationIOTest, GarbageBytesYieldDiagnosticsNotCrashes) {
  // Deterministic pseudo-random garbage, including NULs and high bytes.
  RNG Rng(0xA110C);
  for (int Round = 0; Round < 50; ++Round) {
    std::string Garbage = "# dmp-diverge-map v1\n";
    const size_t Len = Rng.nextBelow(200);
    for (size_t I = 0; I < Len; ++I)
      Garbage.push_back(static_cast<char>(Rng.nextBelow(256)));
    DivergeMap Map;
    const Status S = parseDivergeMap(Garbage, Map);
    if (!S.ok()) {
      EXPECT_EQ(S.code(), ErrorCode::Corrupt);
      EXPECT_FALSE(S.message().empty());
      EXPECT_EQ(Map.size(), 0u);
    }
  }
}

TEST(TwoDProfileTest, DetectsPhaseDependentBranch) {
  // A benchmark with both strongly-biased (easy) branches and a hard
  // Bernoulli branch.
  workloads::Workload W = workloads::buildByName("gap");
  const profile::TwoDProfileData Data = profile::collectTwoDProfile(
      *W.Prog, W.buildImage(workloads::InputSetKind::Run), /*NumSlices=*/8,
      /*MaxInstrs=*/1'500'000);

  // Every executed conditional branch has stats.
  unsigned Covered = 0;
  for (uint32_t Addr : W.Prog->condBranchAddrs())
    Covered += (Data.find(Addr) != nullptr);
  EXPECT_GT(Covered, 5u);

  // The outer-loop back edge is essentially always predicted: it must be
  // classified as NOT potentially mispredicted.
  bool FoundEasy = false, FoundHard = false;
  for (uint32_t Addr : W.Prog->condBranchAddrs()) {
    const profile::PhaseStats *S = Data.find(Addr);
    if (!S)
      continue;
    if (!Data.isPotentiallyMispredicted(Addr))
      FoundEasy = true;
    if (S->overallMispRate() > 0.2)
      FoundHard = true;
  }
  EXPECT_TRUE(FoundEasy);
  EXPECT_TRUE(FoundHard);
}

TEST(TwoDProfileTest, FilterDropsOnlyEasyBranches) {
  workloads::Workload W = workloads::buildByName("gap");
  cfg::ProgramAnalysis PA(*W.Prog);
  const auto Image = W.buildImage(workloads::InputSetKind::Run);
  auto Prof = profile::collectProfile(*W.Prog, PA, Image);
  // Every-br selects everything, including always-easy branches: the 2D
  // filter must shrink it (the paper's proposed code-size optimization).
  const DivergeMap All = selectEveryBranch(PA, Prof);
  const profile::TwoDProfileData TwoD =
      profile::collectTwoDProfile(*W.Prog, Image, 8, 1'500'000);
  size_t Dropped = 0;
  const DivergeMap Filtered =
      profile::filterAlwaysEasyBranches(All, TwoD, &Dropped);
  EXPECT_GT(Dropped, 0u);
  EXPECT_EQ(Filtered.size() + Dropped, All.size());
  // Dropped branches must all be genuinely easy.
  for (uint32_t Addr : All.sortedAddrs()) {
    if (!Filtered.contains(Addr)) {
      EXPECT_LT(TwoD.find(Addr)->overallMispRate(), 0.05);
    }
  }
}

TEST(CycleResourceTest, RespectsCapacity) {
  sim::CycleResource Res(/*Capacity=*/2);
  EXPECT_EQ(Res.reserve(10), 10u);
  EXPECT_EQ(Res.reserve(10), 10u);
  EXPECT_EQ(Res.reserve(10), 11u); // third in cycle 10 spills to 11
  EXPECT_EQ(Res.reserve(11), 11u);
  EXPECT_EQ(Res.reserve(10), 12u); // 10 and 11 both full
}

TEST(CycleResourceTest, MonotoneUnderLoad) {
  sim::CycleResource Res(/*Capacity=*/4);
  RNG Rng(5);
  uint64_t Cycle = 0;
  for (int I = 0; I < 10000; ++I) {
    Cycle += Rng.nextBelow(3);
    const uint64_t Got = Res.reserve(Cycle);
    EXPECT_GE(Got, Cycle);
  }
}

// reserveMany(E, N) books exactly what N calls of reserve(E) book: a
// resource driven by a random mix of both, and a twin driven by reserve
// alone, answer every later probe with the same cycle.  The earliest cycle
// drifts forward and sometimes jumps by about the ring's 2^18 cycles, so
// probes land on slots still holding an earlier lap's bookings.
TEST(CycleResourceTest, ReserveManyIsRepeatedReserve) {
  for (unsigned Capacity = 1; Capacity <= sim::CycleResource::kMaxCapacity;
       ++Capacity) {
    for (uint64_t Seed = 0; Seed < 4; ++Seed) {
      SCOPED_TRACE("capacity " + std::to_string(Capacity) + " seed " +
                   std::to_string(Seed));
      sim::CycleResource Mixed(Capacity), Twin(Capacity);
      RNG Rng(Seed * 16 + Capacity);
      uint64_t Base = Rng.nextBelow(1000);
      for (int I = 0; I < 3000; ++I) {
        Base += Rng.nextBool(0.002) ? (1u << 18) - 32 + Rng.nextBelow(64)
                                    : Rng.nextBelow(4);
        const uint64_t Earliest = Base + Rng.nextBelow(40);
        if (Rng.nextBool(0.5)) {
          const unsigned Count = static_cast<unsigned>(Rng.nextBelow(50));
          Mixed.reserveMany(Earliest, Count);
          for (unsigned K = 0; K < Count; ++K)
            Twin.reserve(Earliest);
        } else {
          ASSERT_EQ(Mixed.reserve(Earliest), Twin.reserve(Earliest)) << I;
        }
      }
      for (int I = 0; I < 500; ++I) {
        const uint64_t Earliest = Base + Rng.nextBelow(200);
        ASSERT_EQ(Mixed.reserve(Earliest), Twin.reserve(Earliest)) << I;
      }
    }
  }
}
