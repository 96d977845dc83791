//===- paperbench/tests/test_helpers.cpp - The benchmark's own helpers ----===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "HostSpeed.h"
#include "Manifest.h"
#include "Trace.h"

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

using namespace paperbench;

TEST(NearestRank, PicksTheCeilRankOfTheSortedSample) {
  std::vector<double> S;
  for (int I = 100; I >= 1; --I)
    S.push_back(I);
  const auto P50 = nearestRank(S, 50);
  ASSERT_TRUE(P50);
  EXPECT_EQ(P50->Value, 50);
  EXPECT_EQ(P50->Samples, 100u);
  EXPECT_EQ(P50->Above, 50u);
  const auto P90 = nearestRank(S, 90);
  ASSERT_TRUE(P90);
  EXPECT_EQ(P90->Value, 90);
  EXPECT_EQ(P90->Above, 10u);
}

TEST(NearestRank, RefusesP90WithFewerThanTenSamplesAbove) {
  std::vector<double> S(99);
  for (size_t I = 0; I < S.size(); ++I)
    S[I] = double(I);
  // 99 samples: rank ceil(89.1) = 90 leaves 9 above.
  EXPECT_FALSE(nearestRank(S, 90));
  S.push_back(99);
  EXPECT_TRUE(nearestRank(S, 90));
  EXPECT_FALSE(nearestRank({}, 50));
  EXPECT_FALSE(nearestRank({1, 2, 3}, 50));
  EXPECT_TRUE(nearestRank({1, 2, 3}, 50, 0));
  EXPECT_FALSE(nearestRank(S, 0));
  EXPECT_FALSE(nearestRank(S, 101));
}

TEST(GeomeanGainPct, MatchesTheRatioGeomean) {
  const auto G = geomeanGainPct({10.0, -10.0});
  ASSERT_TRUE(G);
  EXPECT_NEAR(*G, (std::sqrt(1.1 * 0.9) - 1.0) * 100.0, 1e-12);
  EXPECT_NEAR(*geomeanGainPct({20.4}), 20.4, 1e-12);
  EXPECT_NEAR(*geomeanGainPct({0.0, 0.0, 0.0}), 0.0, 1e-12);
  // A signed mix: +50% and -33.33% cancel exactly (1.5 * 2/3 = 1).
  EXPECT_NEAR(*geomeanGainPct({50.0, -100.0 / 3.0}), 0.0, 1e-12);
}

TEST(GeomeanGainPct, RefusesEmptyAndTotalLoss) {
  EXPECT_FALSE(geomeanGainPct({}));
  EXPECT_FALSE(geomeanGainPct({5.0, -100.0}));
  EXPECT_FALSE(geomeanGainPct({NAN}));
}

TEST(SeededDraw, IsAPureFunctionOfSeedAndIndex) {
  for (uint64_t Seed : {0ull, 1ull, 977ull})
    for (size_t I : {0ul, 5ul, 33ul, 34ul, 1000ul}) {
      const dmp::harness::CellSpec A = serveCell(Seed, I);
      const dmp::harness::CellSpec B = serveCell(Seed, I);
      EXPECT_EQ(A.Benchmark, B.Benchmark);
      EXPECT_EQ(A.Algo, B.Algo);
      EXPECT_EQ(A.MaxInstr, B.MaxInstr);
      EXPECT_EQ(A.MinMergeProb, B.MinMergeProb);
      EXPECT_TRUE(A.validate().ok());
    }
  EXPECT_EQ(seededOrder(17, 3), seededOrder(17, 3));
  EXPECT_NE(seededOrder(17, 3), seededOrder(17, 4));
}

TEST(SeededDraw, LeadsWithEveryPaperCellOnce) {
  std::set<std::pair<std::string, std::string>> Seen;
  for (size_t I = 0; I < servePaperCells(); ++I) {
    const dmp::harness::CellSpec S = serveCell(7, I);
    EXPECT_TRUE(S.Algo == "all" || S.Algo == "all-cost");
    EXPECT_EQ(S.MaxInstr, dmp::harness::CellSpec().MaxInstr);
    Seen.insert({S.Benchmark, S.Algo});
  }
  EXPECT_EQ(Seen.size(), 2 * dmp::workloads::specSuite().size());
  // The tail draws across algorithms and thresholds.
  std::set<std::string> Algos;
  for (size_t I = servePaperCells(); I < servePaperCells() + 500; ++I)
    Algos.insert(serveCell(7, I).Algo);
  EXPECT_EQ(Algos.size(), serveAlgos().size());
}

TEST(SeededSuite, SeedZeroIsTheCommittedSuite) {
  const auto &Committed = dmp::workloads::specSuite();
  const auto Zero = seededSuite(0);
  const auto Five = seededSuite(5);
  ASSERT_EQ(Zero.size(), Committed.size());
  for (size_t I = 0; I < Zero.size(); ++I) {
    EXPECT_EQ(Zero[I].Seed, Committed[I].Seed);
    EXPECT_EQ(Five[I].Seed, Committed[I].Seed + 5);
    EXPECT_STREQ(Five[I].Name, Committed[I].Name);
  }
}

TEST(Manifest, RoundTripsThroughDmpJson) {
  const auto Doc = dmp::json::parse(manifestJson());
  ASSERT_TRUE(Doc.ok()) << Doc.status().toString();
  std::vector<std::string> Keys;
  for (const auto &[Key, V] : Doc->asObject())
    Keys.push_back(Key);
  EXPECT_EQ(Keys, (std::vector<std::string>{"command", "paths", "run_seconds",
                                            "workloads", "end_to_end",
                                            "per_layer"}));
  ASSERT_TRUE(Doc->findNumber("run_seconds"));
  EXPECT_EQ(Doc->findNumber("run_seconds")->asNumber(), kRunSeconds);
  const auto &Workloads = Doc->find("workloads")->asArray();
  ASSERT_EQ(Workloads.size(), workloadDecls().size());
  for (size_t I = 0; I < Workloads.size(); ++I) {
    EXPECT_EQ(Workloads[I].findString("name")->asString(),
              workloadDecls()[I].Name);
    EXPECT_LE(Workloads[I].findString("why")->asString().size(), 200u);
  }
  const auto &E2E = Doc->find("end_to_end")->asArray();
  ASSERT_EQ(E2E.size(), endToEndMetrics().size());
  bool HaveSetup = false;
  for (size_t I = 0; I < E2E.size(); ++I) {
    EXPECT_EQ(E2E[I].asObject().size(), 4u);
    EXPECT_EQ(E2E[I].findString("name")->asString(), endToEndMetrics()[I].Name);
    EXPECT_EQ(E2E[I].findNumber("bound")->asNumber(),
              endToEndMetrics()[I].Bound);
    EXPECT_LE(E2E[I].findNumber("bound")->asNumber(), 0.25);
    HaveSetup |= E2E[I].findString("name")->asString() == "setup_s";
  }
  EXPECT_TRUE(HaveSetup);
  const auto &Layers = Doc->find("per_layer")->asArray();
  ASSERT_EQ(Layers.size(), perLayerMetrics().size());
  for (size_t I = 0; I < Layers.size(); ++I) {
    EXPECT_EQ(Layers[I].asObject().size(), 3u);
    EXPECT_EQ(Layers[I].findString("unit")->asString(),
              perLayerMetrics()[I].Unit);
  }
}

TEST(Manifest, CommittedBenchmarkJsonIsTheGeneratedOne) {
  std::ifstream In(std::string(PAPERBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(In) << "BENCHMARK.json missing next to paperbench/";
  std::stringstream Text;
  Text << In.rdbuf();
  EXPECT_EQ(Text.str(), manifestJson())
      << "regenerate with: python3 paperbench/run.py --write-manifest";
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer T;
  {
    Span Outer(&T, "outer", 1);
    { Span Inner(&T, "inner", 1); }
    T.count("work", 2);
  }
  Span Off(nullptr, "ignored");
  const auto Spans = T.spans();
  ASSERT_EQ(Spans.size(), 2u);
  EXPECT_EQ(Spans[1].Parent, 0);
  const auto Tot = T.totals();
  EXPECT_NEAR(Tot.at("outer").SelfMs,
              Tot.at("outer").Ms - Tot.at("inner").Ms, 1e-9);
  EXPECT_EQ(T.counts().at("work"), 2);
  EXPECT_TRUE(dmp::json::parse(T.chromeJson()).ok());
}

TEST(HostSpeed, SlowdownIsThe10thPercentileOverTheReference) {
  HostSpeed Host; // stopped at once: the first probe still completes
  Host.stop();
  Host.stop();
  const std::vector<double> &Ms = Host.probeMs();
  ASSERT_FALSE(Ms.empty());
  for (double M : Ms)
    EXPECT_GT(M, 0.0);
  EXPECT_DOUBLE_EQ(Host.slowdown(), nearestRank(Ms, 10, 0)->Value /
                                        HostSpeed::kReferenceProbeMs);
}

TEST(HostSpeed, SetUpSecondsRunsTheSetUpOnce) {
  int Calls = 0;
  EXPECT_GE(HostSpeed::setUpSeconds([&] { ++Calls; }), 0.0);
  EXPECT_EQ(Calls, 1);
}
