//===- tests/test_serialize.cpp - Serialization and cache unit tests ----------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "serialize/ArtifactCache.h"
#include "serialize/ByteStream.h"
#include "serialize/Hash.h"
#include "serialize/ProfileIO.h"
#include "workloads/SpecSuite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace dmp;
using namespace dmp::serialize;

namespace {

/// A throwaway cache directory, removed on destruction.
struct TempCacheDir {
  std::filesystem::path Path;
  TempCacheDir() {
    Path = std::filesystem::temp_directory_path() /
           ("dmp-cache-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(Counter++));
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  static unsigned Counter;
};
unsigned TempCacheDir::Counter = 0;

profile::ProfileData sampleProfile() {
  profile::ProfileData Data;
  Data.Edges.recordBranch(0x40, true);
  Data.Edges.recordBranch(0x40, false);
  Data.Edges.recordBranch(0x88, true);
  Data.Edges.recordBlockExec(0x10);
  Data.Edges.recordBlockExec(0x10);
  Data.Edges.recordBlockExec(0x44);
  Data.Branches.record(0x40, /*Taken=*/true, /*Mispredicted=*/true);
  Data.Branches.record(0x40, /*Taken=*/false, /*Mispredicted=*/false);
  profile::LoopStats &Loop = Data.Loops.statsFor(0x100);
  Loop.Iterations.addSample(3, 7);
  Loop.Iterations.addSample(12, 2);
  Loop.DynamicInstrs = 420;
  Loop.Invocations = 9;
  Data.DynamicInstrs = 123'456;
  Data.Completed = true;
  return Data;
}

core::DivergeMap sampleMap() {
  core::DivergeMap Map;
  core::DivergeAnnotation Hammock;
  Hammock.Kind = core::DivergeKind::NestedHammock;
  Hammock.AlwaysPredicate = true;
  Hammock.Cfms.push_back(core::CfmPoint::atAddress(0x60, 0.97));
  Hammock.Cfms.push_back(core::CfmPoint::atReturn(0.55));
  Map.add(0x40, Hammock);
  core::DivergeAnnotation Loop;
  Loop.Kind = core::DivergeKind::Loop;
  Loop.LoopHeaderAddr = 0x100;
  Loop.Cfms.push_back(core::CfmPoint::atAddress(0x100, 1.0));
  Map.add(0x120, Loop);
  return Map;
}

sim::SimStats sampleStats() {
  sim::SimStats S;
  S.RetiredInstrs = 1'000'000;
  S.Cycles = 700'000;
  S.CondBranches = 150'000;
  S.Mispredictions = 9'000;
  S.Flushes = 8'000;
  S.DpredEntries = 4'000;
  S.DpredMerged = 3'500;
  S.SelectUops = 1'234;
  S.L2Misses = 42;
  return S;
}

} // namespace

TEST(HashTest, Sha256KnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(Hasher::hash(nullptr, 0).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  const char *Abc = "abc";
  EXPECT_EQ(Hasher::hash(Abc, 3).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  const std::string Long =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(Hasher::hash(Long.data(), Long.size()).hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(HashTest, IncrementalMatchesOneShot) {
  const std::string Payload = "the quick brown fox jumps over the lazy dog";
  Hasher H;
  for (char C : Payload)
    H.update(&C, 1);
  EXPECT_EQ(H.finish().hex(),
            Hasher::hash(Payload.data(), Payload.size()).hex());
}

TEST(ByteStreamTest, RoundTripsScalars) {
  ByteWriter W;
  W.writeU8(7);
  W.writeU32(0xDEADBEEF);
  W.writeU64(0x0123456789ABCDEFULL);
  W.writeDouble(-0.125);
  W.writeString("diverge");
  ByteReader R(W.bytes().data(), W.bytes().size());
  EXPECT_EQ(R.readU8(), 7u);
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(R.readDouble(), -0.125);
  EXPECT_EQ(R.readString(), "diverge");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteStreamTest, TruncatedReadLatchesError) {
  ByteWriter W;
  W.writeU32(99);
  ByteReader R(W.bytes().data(), 2); // half a u32
  (void)R.readU32();
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.readU64(), 0u); // stays failed, returns zeros
  EXPECT_FALSE(R.ok());
}

TEST(ProfileIOTest, ProfileDataRoundTrips) {
  const profile::ProfileData Data = sampleProfile();
  const std::vector<uint8_t> Blob = encodeProfileData(Data);
  profile::ProfileData Out;
  const Status S = decodeProfileData(Blob, Out);
  ASSERT_TRUE(S.ok()) << S.toString();
  EXPECT_EQ(Out.DynamicInstrs, Data.DynamicInstrs);
  EXPECT_EQ(Out.Completed, Data.Completed);
  EXPECT_EQ(Out.Edges.branchCounts(0x40).Taken, 1u);
  EXPECT_EQ(Out.Edges.branchCounts(0x40).NotTaken, 1u);
  EXPECT_EQ(Out.Edges.branchCounts(0x88).Taken, 1u);
  EXPECT_EQ(Out.Edges.blockExecCount(0x10), 2u);
  EXPECT_EQ(Out.Edges.blockExecCount(0x44), 1u);
  EXPECT_EQ(Out.Branches.stats(0x40).Executed, 2u);
  EXPECT_EQ(Out.Branches.stats(0x40).Mispredicted, 1u);
  const profile::LoopStats *Loop = Out.Loops.find(0x100);
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->DynamicInstrs, 420u);
  EXPECT_EQ(Loop->Invocations, 9u);
  EXPECT_DOUBLE_EQ(Loop->Iterations.average(),
                   Data.Loops.find(0x100)->Iterations.average());
  // Determinism: the same data always encodes to the same bytes.
  EXPECT_EQ(encodeProfileData(Out), Blob);
}

TEST(ProfileIOTest, DivergeMapRoundTrips) {
  const core::DivergeMap Map = sampleMap();
  const std::vector<uint8_t> Blob = encodeDivergeMap(Map);
  core::DivergeMap Out;
  const Status S = decodeDivergeMap(Blob, Out);
  ASSERT_TRUE(S.ok()) << S.toString();
  ASSERT_EQ(Out.size(), 2u);
  const core::DivergeAnnotation *Hammock = Out.find(0x40);
  ASSERT_NE(Hammock, nullptr);
  EXPECT_EQ(Hammock->Kind, core::DivergeKind::NestedHammock);
  EXPECT_TRUE(Hammock->AlwaysPredicate);
  ASSERT_EQ(Hammock->Cfms.size(), 2u);
  EXPECT_EQ(Hammock->Cfms[0].PointKind, core::CfmPoint::Kind::Address);
  EXPECT_EQ(Hammock->Cfms[0].Addr, 0x60u);
  EXPECT_DOUBLE_EQ(Hammock->Cfms[0].MergeProb, 0.97);
  EXPECT_EQ(Hammock->Cfms[1].PointKind, core::CfmPoint::Kind::Return);
  const core::DivergeAnnotation *Loop = Out.find(0x120);
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Kind, core::DivergeKind::Loop);
  EXPECT_EQ(Loop->LoopHeaderAddr, 0x100u);
  EXPECT_EQ(encodeDivergeMap(Out), Blob);
}

TEST(ProfileIOTest, SimStatsRoundTrips) {
  const sim::SimStats Stats = sampleStats();
  const std::vector<uint8_t> Blob = encodeSimStats(Stats);
  sim::SimStats Out;
  const Status S = decodeSimStats(Blob, Out);
  ASSERT_TRUE(S.ok()) << S.toString();
  EXPECT_EQ(Out.RetiredInstrs, Stats.RetiredInstrs);
  EXPECT_EQ(Out.Cycles, Stats.Cycles);
  EXPECT_EQ(Out.Mispredictions, Stats.Mispredictions);
  EXPECT_EQ(Out.DpredMerged, Stats.DpredMerged);
  EXPECT_EQ(Out.L2Misses, Stats.L2Misses);
  EXPECT_EQ(encodeSimStats(Out), Blob);
}

TEST(ProfileIOTest, RejectsVersionMismatch) {
  std::vector<uint8_t> Blob = encodeSimStats(sampleStats());
  // Payload layout: kind u32 | version u32 | ... (little endian).
  Blob[4] = static_cast<uint8_t>(kFormatVersion + 1);
  sim::SimStats Out;
  const Status S = decodeSimStats(Blob, Out);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Corrupt);
  EXPECT_NE(S.message().find("version"), std::string::npos) << S.toString();
}

TEST(ProfileIOTest, RejectsWrongKindTag) {
  const std::vector<uint8_t> Blob = encodeSimStats(sampleStats());
  profile::ProfileData Out;
  const Status S = decodeProfileData(Blob, Out);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Corrupt);
}

TEST(ProfileIOTest, RejectsTruncatedPayload) {
  std::vector<uint8_t> Blob = encodeProfileData(sampleProfile());
  Blob.resize(Blob.size() / 2);
  profile::ProfileData Out;
  const Status S = decodeProfileData(Blob, Out);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Corrupt);
}

TEST(ArtifactCacheTest, StoreThenLoadHits) {
  TempCacheDir Dir;
  ArtifactCache Cache(Dir.Path.string());
  const Digest Key = Hasher::hash("key-one", 7);
  const std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  const auto Miss = Cache.load(Key);
  EXPECT_FALSE(Miss.has_value());
  EXPECT_EQ(Miss.status().code(), ErrorCode::NotFound);
  EXPECT_EQ(Cache.misses(), 1u);
  ASSERT_TRUE(Cache.store(Key, Payload));
  const auto Loaded = Cache.load(Key);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(*Loaded, Payload);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.stores(), 1u);
}

TEST(ArtifactCacheTest, DistinctKeysDoNotCollide) {
  TempCacheDir Dir;
  ArtifactCache Cache(Dir.Path.string());
  const Digest A = Hasher::hash("alpha", 5);
  const Digest B = Hasher::hash("beta", 4);
  ASSERT_TRUE(Cache.store(A, {10}));
  ASSERT_TRUE(Cache.store(B, {20}));
  EXPECT_EQ(Cache.load(A)->at(0), 10);
  EXPECT_EQ(Cache.load(B)->at(0), 20);
}

TEST(ArtifactCacheTest, SurvivesReopen) {
  TempCacheDir Dir;
  const Digest Key = Hasher::hash("persistent", 10);
  {
    ArtifactCache Cache(Dir.Path.string());
    ASSERT_TRUE(Cache.store(Key, {9, 9, 9}));
  }
  ArtifactCache Cache(Dir.Path.string());
  const auto Loaded = Cache.load(Key);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->size(), 3u);
}

TEST(ArtifactCacheTest, RejectsCorruptedBlob) {
  TempCacheDir Dir;
  ArtifactCache Cache(Dir.Path.string());
  const Digest Key = Hasher::hash("corrupt-me", 10);
  ASSERT_TRUE(Cache.store(Key, {1, 2, 3, 4, 5, 6, 7, 8}));

  // Flip one payload byte on disk (past the 48-byte header).
  std::filesystem::path Blob;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(Dir.Path))
    if (Entry.path().extension() == ".blob")
      Blob = Entry.path();
  ASSERT_FALSE(Blob.empty());
  {
    std::fstream F(Blob, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(50);
    const char Garbage = '\xFF';
    F.write(&Garbage, 1);
  }

  const auto Rejected = Cache.load(Key);
  EXPECT_FALSE(Rejected.has_value());
  EXPECT_EQ(Rejected.status().code(), ErrorCode::Corrupt);
  EXPECT_EQ(Cache.corruptDeletes(), 1u);
  // The corrupt blob was deleted so a later store can heal it.
  EXPECT_FALSE(std::filesystem::exists(Blob));
  ASSERT_TRUE(Cache.store(Key, {1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_TRUE(Cache.load(Key).has_value());
}

TEST(ArtifactCacheTest, RejectsTruncatedBlob) {
  TempCacheDir Dir;
  ArtifactCache Cache(Dir.Path.string());
  const Digest Key = Hasher::hash("truncate-me", 11);
  ASSERT_TRUE(Cache.store(Key, std::vector<uint8_t>(100, 7)));
  std::filesystem::path Blob;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(Dir.Path))
    if (Entry.path().extension() == ".blob")
      Blob = Entry.path();
  ASSERT_FALSE(Blob.empty());
  std::filesystem::resize_file(Blob, 60);
  const auto Rejected = Cache.load(Key);
  EXPECT_FALSE(Rejected.has_value());
  EXPECT_EQ(Rejected.status().code(), ErrorCode::Corrupt);
  EXPECT_EQ(Cache.corruptDeletes(), 1u);
}

TEST(ArtifactCacheTest, RejectsContainerVersionMismatch) {
  TempCacheDir Dir;
  ArtifactCache Cache(Dir.Path.string());
  const Digest Key = Hasher::hash("old-container", 13);
  ASSERT_TRUE(Cache.store(Key, {5, 5, 5}));
  std::filesystem::path Blob;
  for (const auto &Entry :
       std::filesystem::recursive_directory_iterator(Dir.Path))
    if (Entry.path().extension() == ".blob")
      Blob = Entry.path();
  ASSERT_FALSE(Blob.empty());
  {
    // Container layout: magic u32 | version u32 | ...; bump the version.
    std::fstream F(Blob, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(4);
    const char NewVersion = 99;
    F.write(&NewVersion, 1);
  }
  EXPECT_FALSE(Cache.load(Key).has_value());
}

//===----------------------------------------------------------------------===//
// Cache-key schema versioning (harness/Experiment.h)
//===----------------------------------------------------------------------===//

TEST(CacheSchemaTest, SchemaBumpMissesOldProfileEntry) {
  const workloads::BenchmarkSpec &Spec = workloads::specSuite().front();
  const profile::ProfileOptions Options;

  const Digest OldKey = harness::profileCacheKey(
      Spec, workloads::InputSetKind::Run, Options, kCacheSchemaVersion);
  const Digest NewKey = harness::profileCacheKey(
      Spec, workloads::InputSetKind::Run, Options, kCacheSchemaVersion + 1);
  EXPECT_NE(OldKey, NewKey);

  // An entry written under the old schema must be invisible after a bump:
  // the consumer recomputes instead of decoding a stale layout.
  TempCacheDir Dir;
  ArtifactCache Cache(Dir.Path.string());
  ASSERT_TRUE(Cache.store(OldKey, {1, 2, 3}));
  EXPECT_TRUE(Cache.load(OldKey).has_value());
  EXPECT_FALSE(Cache.load(NewKey).has_value());
}

TEST(CacheSchemaTest, SchemaBumpMissesOldSimEntry) {
  const workloads::BenchmarkSpec &Spec = workloads::specSuite().front();
  const sim::SimConfig Config;

  const Digest OldKey = harness::simCacheKey(Spec, Config, nullptr, nullptr,
                                             kCacheSchemaVersion);
  const Digest NewKey = harness::simCacheKey(Spec, Config, nullptr, nullptr,
                                             kCacheSchemaVersion + 1);
  EXPECT_NE(OldKey, NewKey);

  TempCacheDir Dir;
  ArtifactCache Cache(Dir.Path.string());
  ASSERT_TRUE(Cache.store(OldKey, {9, 9}));
  EXPECT_FALSE(Cache.load(NewKey).has_value());
}

// The DMP-sim key is exactly the simulation's input (spec, SimConfig and
// the machine view), so maps selected under different thresholds but with
// an equal view share one entry.  Folding the SelectionConfig back into
// the key fails the first expectation.
TEST(CacheSchemaTest, SelectorConfigIsNotPartOfDmpSimKey) {
  const workloads::BenchmarkSpec &Spec = workloads::specSuite().front();
  const sim::SimConfig Config;
  const core::DivergeMap Map = sampleMap();
  const core::SelectionConfig Defaults;
  const core::SelectionConfig Tweaked =
      Defaults.withMaxInstr(Defaults.MaxInstr + 1)
          .withMinMergeProb(Defaults.MinMergeProb + 0.5);

  const Digest Key = harness::simCacheKey(Spec, Config, &Map, &Defaults);
  EXPECT_EQ(harness::simCacheKey(Spec, Config, &Map, &Tweaked), Key);
  EXPECT_EQ(harness::simCacheKey(Spec, Config, &Map), Key);

  // The key still follows every input the simulator reads.
  core::DivergeMap MoreCfms = Map;
  core::DivergeAnnotation Hammock = *Map.find(0x40);
  Hammock.Cfms.push_back(core::CfmPoint::atAddress(0x80, 0.9));
  MoreCfms.add(0x40, Hammock);
  EXPECT_NE(harness::simCacheKey(Spec, Config, &MoreCfms, &Defaults), Key);

  sim::SimConfig Wider = Config;
  ++Wider.FetchWidth;
  EXPECT_NE(harness::simCacheKey(Spec, Wider, &Map, &Defaults), Key);

  workloads::BenchmarkSpec Reseeded = Spec;
  ++Reseeded.Seed;
  EXPECT_NE(harness::simCacheKey(Reseeded, Config, &Map, &Defaults), Key);

  EXPECT_NE(harness::simCacheKey(Spec, Config, &Map, &Defaults,
                                 kCacheSchemaVersion + 1),
            Key);
}
