//===- tests/test_fault.cpp - Fault-tolerant campaign execution tests ---------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Covers the dmp::Status taxonomy, the deterministic fault::Plan/Injector,
// and the ISSUE acceptance criteria for fault-tolerant campaigns:
//
//   1. A campaign with injected transient cache/store/task faults runs to
//      completion via bounded retry and fall-back-to-recompute, and its
//      result matrix is bit-identical to a fault-free run — for any --jobs
//      value and any fault seed.
//   2. A permanent per-cell fault marks that cell failed without aborting
//      the process or the rest of the campaign.
//   3. A killed-then-resumed campaign restores journaled cells instead of
//      recomputing them (verified through counters and sentinel payloads).
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "harness/Engine.h"
#include "support/Status.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace dmp;

//===----------------------------------------------------------------------===//
// Status / StatusOr / StatusError
//===----------------------------------------------------------------------===//

TEST(StatusTest, DefaultIsOk) {
  const Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_TRUE(static_cast<bool>(S));
  EXPECT_EQ(S.code(), ErrorCode::Ok);
  EXPECT_EQ(S.toString(), "ok");
}

TEST(StatusTest, FactoriesCarryCodeMessageOrigin) {
  const Status T = Status::transient("cache write blip", "serialize");
  EXPECT_FALSE(T.ok());
  EXPECT_EQ(T.code(), ErrorCode::Transient);
  EXPECT_EQ(T.message(), "cache write blip");
  EXPECT_EQ(T.origin(), "serialize");
  EXPECT_EQ(T.toString(), "serialize: transient: cache write blip");

  EXPECT_EQ(Status::notFound("m", "o").code(), ErrorCode::NotFound);
  EXPECT_EQ(Status::corrupt("m", "o").code(), ErrorCode::Corrupt);
  EXPECT_EQ(Status::invariant("m", "o").code(), ErrorCode::Invariant);
  EXPECT_EQ(Status::cancelled("m", "o").code(), ErrorCode::Cancelled);
  EXPECT_EQ(Status::resourceExhausted("m", "o").code(),
            ErrorCode::ResourceExhausted);
  EXPECT_EQ(Status::make(ErrorCode::Corrupt, "m", "o").code(),
            ErrorCode::Corrupt);
}

TEST(StatusTest, ErrorCodeNames) {
  EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
  EXPECT_STREQ(errorCodeName(ErrorCode::Transient), "transient");
  EXPECT_STREQ(errorCodeName(ErrorCode::NotFound), "not-found");
  EXPECT_STREQ(errorCodeName(ErrorCode::Corrupt), "corrupt");
  EXPECT_STREQ(errorCodeName(ErrorCode::Invariant), "invariant");
  EXPECT_STREQ(errorCodeName(ErrorCode::Cancelled), "cancelled");
  EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhausted),
               "resource-exhausted");
}

TEST(StatusOrTest, DefaultReadsAsNeverWritten) {
  const StatusOr<int> Slot;
  EXPECT_FALSE(Slot.ok());
  EXPECT_EQ(Slot.status().code(), ErrorCode::Cancelled);
  EXPECT_NE(Slot.status().message().find("never written"), std::string::npos);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> V = 42;
  ASSERT_TRUE(V.ok());
  EXPECT_TRUE(V.has_value());
  EXPECT_EQ(*V, 42);
  EXPECT_EQ(V.valueOr(-1), 42);

  const StatusOr<int> E = Status::corrupt("bad bytes", "test");
  EXPECT_FALSE(E.ok());
  EXPECT_EQ(E.status().code(), ErrorCode::Corrupt);
  EXPECT_EQ(E.valueOr(-1), -1);
}

TEST(StatusOrTest, StatusErrorRoundTripsAcrossThrow) {
  try {
    throw StatusError(Status::transient("injected blip", "fault"));
  } catch (const StatusError &E) {
    EXPECT_EQ(E.status().code(), ErrorCode::Transient);
    EXPECT_STREQ(E.what(), "fault: transient: injected blip");
  }
}

//===----------------------------------------------------------------------===//
// fault::Plan / fault::Injector
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, InactiveByDefault) {
  const fault::Plan Plan;
  EXPECT_FALSE(Plan.active());
  EXPECT_FALSE(Plan.shouldFault(fault::Site::TaskRun, "any", 0));
}

TEST(FaultPlanTest, DecisionIsPureFunctionOfInputs) {
  const fault::Plan Plan =
      fault::Plan::transientEverywhere(/*Seed=*/7, /*Rate=*/0.5);
  const fault::Plan Copy = Plan;
  for (int I = 0; I < 64; ++I) {
    const std::string Key = "op-" + std::to_string(I);
    const bool First = Plan.shouldFault(fault::Site::CacheLoad, Key, 0);
    // Same plan, same inputs: same answer, every time, on any copy.
    EXPECT_EQ(Plan.shouldFault(fault::Site::CacheLoad, Key, 0), First);
    EXPECT_EQ(Copy.shouldFault(fault::Site::CacheLoad, Key, 0), First);
  }
}

TEST(FaultPlanTest, RateSelectsRoughlyThatFractionOfKeys) {
  const fault::Plan Plan =
      fault::Plan::transientEverywhere(/*Seed=*/11, /*Rate=*/0.3);
  int Faulted = 0;
  for (int I = 0; I < 1000; ++I)
    Faulted += Plan.shouldFault(fault::Site::TaskRun,
                                "key-" + std::to_string(I), 0);
  EXPECT_GT(Faulted, 200);
  EXPECT_LT(Faulted, 400);
}

TEST(FaultPlanTest, SitesAndSeedsDecorrelate) {
  const fault::Plan A = fault::Plan::transientEverywhere(1, 0.5);
  const fault::Plan B = fault::Plan::transientEverywhere(2, 0.5);
  bool SiteDiffers = false, SeedDiffers = false;
  for (int I = 0; I < 64; ++I) {
    const std::string Key = "op-" + std::to_string(I);
    SiteDiffers |= A.shouldFault(fault::Site::CacheLoad, Key, 0) !=
                   A.shouldFault(fault::Site::CacheStore, Key, 0);
    SeedDiffers |= A.shouldFault(fault::Site::TaskRun, Key, 0) !=
                   B.shouldFault(fault::Site::TaskRun, Key, 0);
  }
  EXPECT_TRUE(SiteDiffers);
  EXPECT_TRUE(SeedDiffers);
}

TEST(FaultPlanTest, TransientFaultsClearAfterMaxFaultsPerOp) {
  const fault::Plan Plan =
      fault::Plan::transientEverywhere(/*Seed=*/3, /*Rate=*/1.0,
                                       /*MaxFaultsPerOp=*/2);
  EXPECT_TRUE(Plan.shouldFault(fault::Site::TaskRun, "cell", 0));
  EXPECT_TRUE(Plan.shouldFault(fault::Site::TaskRun, "cell", 1));
  // Attempt 2 is past the budget: bounded retry provably terminates.
  EXPECT_FALSE(Plan.shouldFault(fault::Site::TaskRun, "cell", 2));
  EXPECT_FALSE(Plan.shouldFault(fault::Site::TaskRun, "cell", 100));
}

TEST(FaultPlanTest, PermanentFaultNeverClears) {
  fault::Plan Plan = fault::Plan::transientEverywhere(3, 1.0);
  Plan.at(fault::Site::TaskRun).MaxFaultsPerOp = ~0u;
  Plan.at(fault::Site::TaskRun).Code = ErrorCode::Invariant;
  for (unsigned Attempt = 0; Attempt < 50; ++Attempt)
    EXPECT_TRUE(Plan.shouldFault(fault::Site::TaskRun, "cell", Attempt));
}

TEST(FaultInjectorTest, CheckInjectsStatusAndCounts) {
  fault::Plan Plan;
  Plan.Seed = 9;
  Plan.at(fault::Site::CacheStore) = {/*Rate=*/1.0, /*MaxFaultsPerOp=*/1,
                                      ErrorCode::Transient};
  const fault::Injector Inj(Plan);
  EXPECT_TRUE(Inj.active());

  const Status S = Inj.check(fault::Site::CacheStore, "blob-key", 0);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Transient);
  EXPECT_EQ(S.origin(), "fault");
  EXPECT_NE(S.message().find("cache-store"), std::string::npos);
  EXPECT_NE(S.message().find("blob-key"), std::string::npos);

  // Unfaulted sites proceed and do not count.
  EXPECT_TRUE(Inj.check(fault::Site::TaskRun, "blob-key", 0).ok());
  EXPECT_EQ(Inj.injected(fault::Site::CacheStore), 1u);
  EXPECT_EQ(Inj.injected(fault::Site::TaskRun), 0u);
  EXPECT_EQ(Inj.totalInjected(), 1u);
}

TEST(FaultInjectorTest, SiteNamesAreStable) {
  EXPECT_STREQ(fault::siteName(fault::Site::CacheLoad), "cache-load");
  EXPECT_STREQ(fault::siteName(fault::Site::CacheStore), "cache-store");
  EXPECT_STREQ(fault::siteName(fault::Site::TaskRun), "task-run");
  EXPECT_STREQ(fault::siteName(fault::Site::ProfileDecode),
               "profile-decode");
}

//===----------------------------------------------------------------------===//
// Acceptance: fault-tolerant campaigns on the real pipeline
//===----------------------------------------------------------------------===//

namespace {

/// Two small benchmarks keep the pipeline runs test-sized.
std::vector<workloads::BenchmarkSpec> miniSuite() {
  const std::vector<workloads::BenchmarkSpec> &Suite = workloads::specSuite();
  return {Suite.begin(), Suite.begin() + 2};
}

harness::ExperimentOptions miniOptions() {
  harness::ExperimentOptions Options;
  Options.Profile.MaxInstrs = 150'000;
  Options.Sim.MaxInstrs = 60'000;
  return Options;
}

/// A cache directory under the temp directory, emptied before use and
/// removed when the test that owns it ends.
struct TempDir {
  const std::filesystem::path Path;
  explicit TempDir(const std::string &Tag)
      : Path(std::filesystem::temp_directory_path() /
             ("dmp-fault-" + Tag + "-" + std::to_string(::getpid()))) {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

/// The full result matrix of a 2-bench x 2-config campaign, optionally
/// cached at \p CacheDir and perturbed by \p Faults.
std::vector<std::vector<StatusOr<sim::SimStats>>>
runCampaign(unsigned Jobs, const std::string &CacheDir,
            std::shared_ptr<const fault::Injector> Faults) {
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = Jobs;
  EngineOpts.UseCache = !CacheDir.empty();
  EngineOpts.CacheDir = CacheDir;
  harness::ExperimentOptions Options = miniOptions();
  Options.Faults = std::move(Faults);
  harness::ExperimentEngine Engine(Options, EngineOpts);

  const core::SelectionFeatures Configs[] = {
      core::SelectionFeatures::exactOnly(),
      core::SelectionFeatures::allBestHeur(),
  };
  return Engine.runMatrix<sim::SimStats>(
      miniSuite(), std::size(Configs), [&Configs](harness::Cell &C) {
        return C.Bench.simulateWith(
            C.Bench.select(Configs[C.Config], workloads::InputSetKind::Run));
      });
}

bool identical(const std::vector<std::vector<StatusOr<sim::SimStats>>> &A,
               const std::vector<std::vector<StatusOr<sim::SimStats>>> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].size() != B[I].size())
      return false;
    for (size_t J = 0; J < A[I].size(); ++J) {
      if (!A[I][J].ok() || !B[I][J].ok())
        return false;
      if (std::memcmp(&*A[I][J], &*B[I][J], sizeof(sim::SimStats)) != 0)
        return false;
    }
  }
  return true;
}

} // namespace

TEST(FaultCampaignTest, TransientFaultsPreserveResultsAcrossJobsAndSeeds) {
  // Fault-free reference, no cache involved.
  const auto Reference = runCampaign(2, "", nullptr);
  for (const auto &Row : Reference)
    for (const auto &Cell : Row)
      ASSERT_TRUE(Cell.ok()) << Cell.status().toString();

  // Rate 1.0 faults *every* operation once: every cache load fails over to
  // recomputation, every store fails (counter only), and every cell faults
  // on attempt 0 then succeeds on its first retry.
  auto Inj = std::make_shared<fault::Injector>(
      fault::Plan::transientEverywhere(/*Seed=*/101, /*Rate=*/1.0));
  const TempDir SeedA("seedA"), SeedB("seedB");
  const auto Faulted = runCampaign(2, SeedA.Path.string(), Inj);
  EXPECT_TRUE(identical(Reference, Faulted));
  EXPECT_GT(Inj->injected(fault::Site::TaskRun), 0u);
  EXPECT_GT(Inj->totalInjected(), 0u);

  // Different --jobs and a different fault schedule: still bit-identical.
  const auto FaultedWide = runCampaign(
      5, SeedB.Path.string(),
      std::make_shared<fault::Injector>(
          fault::Plan::transientEverywhere(/*Seed=*/202, /*Rate=*/0.7,
                                           /*MaxFaultsPerOp=*/2)));
  EXPECT_TRUE(identical(Reference, FaultedWide));
}

TEST(FaultCampaignTest, TransientCellFaultsAreRetriedAndCounted) {
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = 2;
  EngineOpts.UseCache = false;
  harness::ExperimentOptions Options = miniOptions();
  fault::Plan Plan;
  Plan.Seed = 13;
  Plan.at(fault::Site::TaskRun) = {/*Rate=*/1.0, /*MaxFaultsPerOp=*/1,
                                   ErrorCode::Transient};
  Options.Faults = std::make_shared<fault::Injector>(Plan);
  harness::ExperimentEngine Engine(Options, EngineOpts);

  const auto Matrix = Engine.runMatrix<double>(
      miniSuite(), 2,
      [](harness::Cell &C) { return static_cast<double>(C.Rng.next()); },
      harness::CellNeeds{false, false, false});
  for (const auto &Row : Matrix)
    for (const auto &Cell : Row)
      EXPECT_TRUE(Cell.ok()) << Cell.status().toString();

  const harness::CampaignCounters Counters = Engine.campaign();
  EXPECT_EQ(Counters.CellsComputed, 4u);
  EXPECT_EQ(Counters.CellsFailed, 0u);
  EXPECT_EQ(Counters.TransientRetries, 4u); // one retry per cell
  EXPECT_NE(Engine.statsLine().find("retries=4"), std::string::npos);
}

TEST(FaultCampaignTest, PermanentCellFaultIsIsolatedNotFatal) {
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = 3;
  EngineOpts.UseCache = false;
  harness::ExperimentEngine Engine(miniOptions(), EngineOpts);

  const std::vector<workloads::BenchmarkSpec> Suite = miniSuite();
  const std::string BadBench = Suite[0].Name;
  const auto Matrix = Engine.runMatrix<double>(
      Suite, 2,
      [&BadBench](harness::Cell &C) -> double {
        if (C.Bench.spec().Name == BadBench && C.Config == 1)
          throw StatusError(
              Status::invariant("simulated permanent defect", "test"));
        return static_cast<double>(C.Rng.next());
      },
      harness::CellNeeds{false, false, false});

  // Exactly the faulted cell failed; everything else completed.
  ASSERT_EQ(Matrix.size(), 2u);
  EXPECT_FALSE(Matrix[0][1].ok());
  EXPECT_EQ(Matrix[0][1].status().code(), ErrorCode::Invariant);
  EXPECT_TRUE(Matrix[0][0].ok());
  EXPECT_TRUE(Matrix[1][0].ok());
  EXPECT_TRUE(Matrix[1][1].ok());

  const harness::CampaignCounters Counters = Engine.campaign();
  EXPECT_EQ(Counters.CellsFailed, 1u);
  EXPECT_EQ(Counters.CellsComputed, 3u);
  // Invariant failures are never retried.
  EXPECT_EQ(Counters.TransientRetries, 0u);
  ASSERT_EQ(Counters.Failures.size(), 1u);
  EXPECT_NE(Counters.Failures[0].find(BadBench + "/1"), std::string::npos);
  EXPECT_NE(Engine.failureLines().find("simulated permanent defect"),
            std::string::npos);
}

TEST(FaultCampaignTest, InterruptedCampaignResumesJournaledCells) {
  const TempDir Resume("resume");
  const std::filesystem::path &Dir = Resume.Path;
  const std::vector<workloads::BenchmarkSpec> Suite = miniSuite();
  const serialize::Digest ParamsKey =
      harness::paramsDigest({"cfg-a", "cfg-b"});
  const harness::CellCodec<double> &Codec = harness::doubleCellCodec();

  // A prior campaign that was killed after journaling three of four cells.
  // Sentinel values no cell function produces prove resume vs recompute.
  {
    auto Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
    harness::CampaignJournal Journal(Cache, "camp/matrix", ParamsKey,
                                     Suite.size(), 2);
    Journal.record(0, 0, Codec.Encode(-100.5));
    Journal.record(0, 1, Codec.Encode(-101.5));
    Journal.record(1, 0, Codec.Encode(-110.5));
    ASSERT_TRUE(Journal.lastCheckpointStatus().ok());
  }

  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = 2;
  EngineOpts.CacheDir = Dir.string();
  EngineOpts.Journal = "camp";
  harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
  harness::CampaignJournal *Journal =
      Engine.journalFor("matrix", ParamsKey, Suite.size(), 2);
  ASSERT_NE(Journal, nullptr);
  EXPECT_EQ(Journal->entries(), 3u);

  std::atomic<unsigned> CellRuns{0};
  const auto Matrix = Engine.runMatrix<double>(
      Suite, 2,
      [&CellRuns](harness::Cell &C) -> double {
        ++CellRuns;
        return static_cast<double>(C.Config) + 1.0;
      },
      harness::CellNeeds{false, false, false}, Journal, &Codec);

  // Only the unfinished cell recomputed; journaled cells kept their
  // sentinel payloads untouched.
  EXPECT_EQ(CellRuns.load(), 1u);
  ASSERT_TRUE(Matrix[0][0].ok());
  EXPECT_DOUBLE_EQ(*Matrix[0][0], -100.5);
  ASSERT_TRUE(Matrix[0][1].ok());
  EXPECT_DOUBLE_EQ(*Matrix[0][1], -101.5);
  ASSERT_TRUE(Matrix[1][0].ok());
  EXPECT_DOUBLE_EQ(*Matrix[1][0], -110.5);
  ASSERT_TRUE(Matrix[1][1].ok());
  EXPECT_DOUBLE_EQ(*Matrix[1][1], 2.0);

  const harness::CampaignCounters Counters = Engine.campaign();
  EXPECT_EQ(Counters.CellsResumed, 3u);
  EXPECT_EQ(Counters.CellsComputed, 1u);
  EXPECT_EQ(Counters.CellsFailed, 0u);
  EXPECT_EQ(Journal->entries(), 4u);
  EXPECT_NE(Engine.statsLine().find("resumed=3"), std::string::npos);

  // The finished journal replays fully: a rerun recomputes nothing.
  auto Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
  harness::CampaignJournal Replay(Cache, "camp/matrix", ParamsKey,
                                  Suite.size(), 2);
  EXPECT_EQ(Replay.entries(), 4u);

  // A retuned campaign (different params digest) must not resume.
  harness::CampaignJournal Retuned(
      Cache, "camp/matrix", harness::paramsDigest({"cfg-a", "cfg-c"}),
      Suite.size(), 2);
  EXPECT_EQ(Retuned.entries(), 0u);
}
