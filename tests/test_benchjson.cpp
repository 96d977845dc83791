//===- tests/test_benchjson.cpp - Perf-snapshot schema tests ------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// The committed BENCH_throughput.json perf snapshot is a machine-readable
// artifact other tooling (the perf gate, trend scripts) parses — so its
// schema is tested like any other serialization format: the committed file
// must parse, carry the uniform schema header and have the documented keys
// with the documented types.  (Its campaign digest is checked against a
// fresh run by the bench_throughput_smoke perf gate.)  Plus unit tests for
// the support/Json reader and a BenchJson -> Json round-trip, so both
// halves of the snapshot pipeline are pinned.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchJson.h"
#include "support/Json.h"
#include "workloads/SpecSuite.h"

#include <gtest/gtest.h>

using namespace dmp;

#ifndef DMP_TEST_REPO_ROOT
#error "DMP_TEST_REPO_ROOT must point at the repository root"
#endif

namespace {

std::string repoPath(const char *Name) {
  return std::string(DMP_TEST_REPO_ROOT) + "/" + Name;
}

bool isHexDigest(const std::string &S) {
  if (S.size() != 64)
    return false;
  for (char C : S)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

/// Loads a committed snapshot and checks the uniform header.
json::Value loadSnapshot(const char *File, const char *BenchName) {
  StatusOr<json::Value> Parsed = json::parseFile(repoPath(File));
  EXPECT_TRUE(Parsed.ok()) << Parsed.status().toString();
  if (!Parsed.ok())
    return json::Value();
  const json::Value &Root = *Parsed;
  if (!Root.isObject() || Root.asObject().size() < 2) {
    ADD_FAILURE() << File << " is not a snapshot object";
    return json::Value();
  }
  // The uniform header: schema first, bench second (BenchJson writes them
  // in that order for every snapshot).
  EXPECT_EQ(Root.asObject()[0].first, "schema");
  EXPECT_EQ(Root.asObject()[1].first, "bench");
  const json::Value *Schema = Root.findString("schema");
  const json::Value *Bench = Root.findString("bench");
  if (!Schema || !Bench) {
    ADD_FAILURE() << File << " lacks the schema/bench header";
    return json::Value();
  }
  EXPECT_EQ(Schema->asString(), bench::kBenchSchema) << File;
  EXPECT_EQ(Bench->asString(), BenchName) << File;
  return *Parsed;
}

} // namespace

TEST(BenchSnapshotTest, ThroughputSchema) {
  const json::Value Root = loadSnapshot("BENCH_throughput.json", "throughput");
  if (!Root.isObject())
    return;
  const json::Value *Mode = Root.findString("mode");
  ASSERT_NE(Mode, nullptr);
  EXPECT_EQ(Mode->asString(), "full"); // The committed baseline is full mode.
  ASSERT_NE(Root.findNumber("reps"), nullptr);

  const json::Value *Budgets = Root.findObject("budgets");
  ASSERT_NE(Budgets, nullptr);
  for (const char *Key : {"emu_instrs", "sim_instrs", "profile_instrs"}) {
    const json::Value *V = Budgets->findNumber(Key);
    ASSERT_NE(V, nullptr) << Key;
    EXPECT_GT(V->asNumber(), 0.0) << Key;
  }

  const json::Value *Agg = Root.findObject("aggregate");
  ASSERT_NE(Agg, nullptr);
  for (const char *Key :
       {"emu_run_mips", "emu_step_mips", "profile_mips", "sim_mips",
        "trace_mips", "replay_mips", "dmp_replay_mips", "replay_per_trace",
        "dmp_replay_per_trace"}) {
    const json::Value *V = Agg->findNumber(Key);
    ASSERT_NE(V, nullptr) << Key;
    EXPECT_GT(V->asNumber(), 0.0) << Key;
  }

  // Per-workload table: the 17 suite benchmarks plus the synthetic longrun,
  // in order, each with the full metric set.
  const json::Value *Table = Root.find("workloads");
  ASSERT_NE(Table, nullptr);
  ASSERT_TRUE(Table->isArray());
  const auto &Suite = workloads::specSuite();
  ASSERT_EQ(Table->asArray().size(), Suite.size() + 1);
  for (size_t I = 0; I < Table->asArray().size(); ++I) {
    const json::Value &Row = Table->asArray()[I];
    ASSERT_TRUE(Row.isObject()) << "row " << I;
    const json::Value *Name = Row.findString("name");
    ASSERT_NE(Name, nullptr) << "row " << I;
    EXPECT_EQ(Name->asString(),
              I < Suite.size() ? Suite[I].Name : "longrun");
    for (const char *Key :
         {"emu_run_mips", "emu_step_mips", "profile_mips", "sim_mips",
          "trace_mips", "replay_mips", "dmp_replay_mips", "replay_per_trace",
          "dmp_replay_per_trace", "sim_ipc"}) {
      const json::Value *V = Row.findNumber(Key);
      ASSERT_NE(V, nullptr) << Name->asString() << "." << Key;
      EXPECT_GT(V->asNumber(), 0.0) << Name->asString() << "." << Key;
    }
  }

  const json::Value *Digest = Root.findString("campaign_digest");
  ASSERT_NE(Digest, nullptr);
  EXPECT_TRUE(isHexDigest(Digest->asString()));
}

// -- BenchJson writer round-trips through the reader -------------------------

TEST(BenchJsonTest, RoundTrip) {
  bench::BenchJson J("unit");
  J.integer("count", 42);
  J.number("rate", 12.5, 1);
  J.boolean("enabled", true);
  J.string("quoted", "a \"b\"\\c\n");
  J.beginObject("nested");
  J.number("p50", 1.25, 2);
  J.endObject();
  J.beginArray("rows");
  for (int I = 0; I < 2; ++I) {
    J.beginElement();
    J.integer("idx", static_cast<uint64_t>(I));
    J.endElement();
  }
  J.endArray();

  StatusOr<json::Value> Parsed = json::parse(J.render());
  ASSERT_TRUE(Parsed.ok()) << Parsed.status().toString();
  const json::Value &Root = *Parsed;
  ASSERT_TRUE(Root.isObject());
  // Insertion order preserved, uniform header first.
  EXPECT_EQ(Root.asObject()[0].first, "schema");
  EXPECT_EQ(Root.asObject()[0].second.asString(), bench::kBenchSchema);
  EXPECT_EQ(Root.asObject()[1].first, "bench");
  EXPECT_EQ(Root.asObject()[1].second.asString(), "unit");
  EXPECT_EQ(Root.findNumber("count")->asNumber(), 42.0);
  EXPECT_EQ(Root.findNumber("rate")->asNumber(), 12.5);
  ASSERT_NE(Root.find("enabled"), nullptr);
  EXPECT_TRUE(Root.find("enabled")->asBool());
  EXPECT_EQ(Root.findString("quoted")->asString(), "a \"b\"\\c\n");
  EXPECT_EQ(Root.findObject("nested")->findNumber("p50")->asNumber(), 1.25);
  const json::Value *Rows = Root.find("rows");
  ASSERT_TRUE(Rows && Rows->isArray());
  ASSERT_EQ(Rows->asArray().size(), 2u);
  EXPECT_EQ(Rows->asArray()[1].findNumber("idx")->asNumber(), 1.0);
}

// -- support/Json reader unit tests -------------------------------------------

TEST(JsonParserTest, Scalars) {
  EXPECT_TRUE(json::parse("null")->isNull());
  EXPECT_TRUE(json::parse("true")->asBool());
  EXPECT_FALSE(json::parse("false")->asBool());
  EXPECT_EQ(json::parse("0")->asNumber(), 0.0);
  EXPECT_EQ(json::parse("-17")->asNumber(), -17.0);
  EXPECT_EQ(json::parse("2.5e2")->asNumber(), 250.0);
  EXPECT_EQ(json::parse("\"hi\"")->asString(), "hi");
  EXPECT_EQ(json::parse("\"a\\u0041\\t\"")->asString(), "aA\t");
}

TEST(JsonParserTest, NestedStructure) {
  StatusOr<json::Value> V =
      json::parse("  {\"a\": [1, 2, {\"b\": null}], \"c\": {} } ");
  ASSERT_TRUE(V.ok());
  const json::Value *A = V->find("a");
  ASSERT_TRUE(A && A->isArray());
  ASSERT_EQ(A->asArray().size(), 3u);
  EXPECT_EQ(A->asArray()[1].asNumber(), 2.0);
  EXPECT_TRUE(A->asArray()[2].find("b")->isNull());
  EXPECT_TRUE(V->findObject("c")->asObject().empty());
}

TEST(JsonParserTest, Errors) {
  EXPECT_FALSE(json::parse("").ok());
  EXPECT_FALSE(json::parse("{").ok());
  EXPECT_FALSE(json::parse("[1,]").ok());
  EXPECT_FALSE(json::parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::parse("\"unterminated").ok());
  EXPECT_FALSE(json::parse("\"bad\\q\"").ok());
  EXPECT_FALSE(json::parse("1 2").ok());       // Trailing garbage.
  EXPECT_FALSE(json::parse("nul").ok());
  EXPECT_FALSE(json::parse("01x").ok());
  EXPECT_FALSE(json::parse("{}{}").ok());
}

TEST(JsonParserTest, MissingFileIsNotFound) {
  StatusOr<json::Value> V = json::parseFile("/nonexistent/path.json");
  EXPECT_FALSE(V.ok());
}
