//===- tests/test_guard.cpp - Shutdown, deadline, and cancellation tests ------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Covers the dmp::guard cancellation layer and its integration points:
//
//   1. CancelToken trip semantics (first trip wins, origin "guard").
//   2. Deadline / DeadlineWatchdog: expiry trips the token; destruction
//      disarms without tripping.
//   3. TaskGraph::runAll drains on the cancel check: un-started tasks
//      uniformly carry the guard-origin Status instead of running.
//   4. The deterministic per-cell instruction watchdog: a budget-exceeded
//      cell yields ResourceExhausted (a "--" gap), never a hang, with
//      bit-identical statuses for any --jobs value.
//   5. Engine draining on an external token: shed cells are counted as
//      CellsCancelled, not failures.
//   6. Crash-consistent cache maintenance: orphan-temp recovery sweep,
//      oldest-first size-budget eviction, and deterministic advisory-lock
//      contention accounting.
//
// The fork-based crashpoint matrix lives in tests/test_crash.cpp.
//
//===----------------------------------------------------------------------===//

#include "guard/Guard.h"
#include "harness/Engine.h"
#include "serialize/ArtifactCache.h"
#include "support/ExitCodes.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sys/file.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <thread>
#include <unistd.h>

using namespace dmp;

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

TEST(CancelTokenTest, LiveByDefault) {
  guard::CancelToken Tok;
  EXPECT_FALSE(Tok.cancelled());
  EXPECT_TRUE(Tok.status().ok());
  EXPECT_TRUE(Tok.check("anywhere").ok());
}

TEST(CancelTokenTest, TripCarriesCodeReasonAndGuardOrigin) {
  guard::CancelToken Tok;
  Tok.cancel(ErrorCode::Cancelled, "interrupted by signal");
  EXPECT_TRUE(Tok.cancelled());
  const Status S = Tok.status();
  EXPECT_EQ(S.code(), ErrorCode::Cancelled);
  EXPECT_EQ(S.message(), "interrupted by signal");
  EXPECT_EQ(S.origin(), "guard");
}

TEST(CancelTokenTest, FirstTripWins) {
  guard::CancelToken Tok;
  Tok.cancel(ErrorCode::ResourceExhausted, "deadline exceeded");
  Tok.cancel(ErrorCode::Cancelled, "interrupted by signal");
  const Status S = Tok.status();
  EXPECT_EQ(S.code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(S.message(), "deadline exceeded");
}

TEST(CancelTokenTest, CheckFoldsInTheCallSite) {
  guard::CancelToken Tok;
  Tok.cancel(ErrorCode::Cancelled, "draining");
  const Status S = Tok.check("sim::DmpCore");
  EXPECT_EQ(S.code(), ErrorCode::Cancelled);
  EXPECT_NE(S.message().find("draining"), std::string::npos);
  EXPECT_NE(S.message().find("sim::DmpCore"), std::string::npos);
  EXPECT_EQ(S.origin(), "guard");
}

TEST(CancelTokenTest, ResetReArms) {
  guard::CancelToken Tok;
  Tok.cancel();
  ASSERT_TRUE(Tok.cancelled());
  Tok.reset();
  EXPECT_FALSE(Tok.cancelled());
  EXPECT_TRUE(Tok.status().ok());
}

//===----------------------------------------------------------------------===//
// Deadline / DeadlineWatchdog
//===----------------------------------------------------------------------===//

TEST(DeadlineTest, DefaultNeverExpires) {
  const guard::Deadline D;
  EXPECT_TRUE(D.never());
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingSeconds(), 1e6);
}

TEST(DeadlineTest, ZeroBudgetIsAlreadyExpired) {
  const guard::Deadline D(0.0);
  EXPECT_FALSE(D.never());
  EXPECT_TRUE(D.expired());
  EXPECT_EQ(D.remainingSeconds(), 0.0);
}

TEST(DeadlineTest, FutureBudgetHasRemainingTime) {
  const guard::Deadline D(3600.0);
  EXPECT_FALSE(D.expired());
  EXPECT_GT(D.remainingSeconds(), 3000.0);
}

TEST(DeadlineWatchdogTest, ExpiryTripsTheToken) {
  guard::CancelToken Tok;
  guard::DeadlineWatchdog Dog(guard::Deadline(0.005), Tok);
  // The watchdog thread trips the token shortly after 5ms; poll with a
  // generous timeout so the test is robust under load.
  const auto Until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Tok.cancelled() && std::chrono::steady_clock::now() < Until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(Tok.cancelled());
  const Status S = Tok.status();
  EXPECT_EQ(S.code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(S.message(), "deadline exceeded");
  EXPECT_EQ(S.origin(), "guard");
}

TEST(DeadlineWatchdogTest, DestructionDisarmsWithoutTripping) {
  guard::CancelToken Tok;
  {
    guard::DeadlineWatchdog Dog(guard::Deadline(3600.0), Tok);
  }
  EXPECT_FALSE(Tok.cancelled());
}

TEST(DeadlineWatchdogTest, NeverDeadlineSpawnsNothingAndNeverTrips) {
  guard::CancelToken Tok;
  {
    guard::DeadlineWatchdog Dog(guard::Deadline(), Tok);
  }
  EXPECT_FALSE(Tok.cancelled());
}

//===----------------------------------------------------------------------===//
// TaskGraph drain
//===----------------------------------------------------------------------===//

TEST(TaskGraphDrainTest, TrippedCheckDrainsEveryUnstartedTask) {
  guard::CancelToken Tok;
  Tok.cancel(ErrorCode::Cancelled, "interrupted by signal");
  exec::ThreadPool Pool(2);
  exec::TaskGraph Graph;
  std::atomic<unsigned> Ran{0};
  for (int I = 0; I < 8; ++I)
    Graph.add([&Ran] { ++Ran; });
  const std::vector<Status> Statuses =
      Graph.runAll(Pool, [&Tok] { return Tok.status(); });
  EXPECT_EQ(Ran.load(), 0u);
  ASSERT_EQ(Statuses.size(), 8u);
  for (const Status &S : Statuses) {
    EXPECT_EQ(S.code(), ErrorCode::Cancelled);
    EXPECT_EQ(S.origin(), "guard");
  }
}

TEST(TaskGraphDrainTest, MidRunTripStopsLaunchingButFinishesInFlight) {
  guard::CancelToken Tok;
  exec::ThreadPool Pool(1);
  exec::TaskGraph Graph;
  std::atomic<unsigned> Ran{0};
  // A dependency chain pins the execution order (pool scheduling order is
  // an implementation detail): the first task trips the token, so every
  // downstream task must drain with the guard-origin Status.
  exec::TaskGraph::TaskId Prev = Graph.add([&Tok, &Ran] {
    ++Ran;
    Tok.cancel(ErrorCode::Cancelled, "test drain");
  });
  for (int I = 0; I < 4; ++I)
    Prev = Graph.add([&Ran] { ++Ran; }, {Prev});
  const std::vector<Status> Statuses =
      Graph.runAll(Pool, [&Tok] { return Tok.status(); });
  EXPECT_EQ(Ran.load(), 1u);
  unsigned Drained = 0;
  for (const Status &S : Statuses)
    if (!S.ok() && S.origin() == "guard")
      ++Drained;
  EXPECT_EQ(Drained, 4u);
}

TEST(TaskGraphDrainTest, DepFailureStillBlamesTheDependency) {
  // Without a drain, dependency-cancellation keeps its distinct origin so
  // callers can tell shed work from broken work.
  exec::ThreadPool Pool(2);
  exec::TaskGraph Graph;
  const auto Bad = Graph.add(
      [] { throw StatusError(Status::invariant("boom", "test")); });
  const auto Child = Graph.add([] {}, {Bad});
  const std::vector<Status> Statuses = Graph.runAll(Pool, {});
  EXPECT_EQ(Statuses[Bad].code(), ErrorCode::Invariant);
  EXPECT_EQ(Statuses[Child].code(), ErrorCode::Cancelled);
  EXPECT_EQ(Statuses[Child].origin(), "exec::TaskGraph");
}

//===----------------------------------------------------------------------===//
// Engine integration: instruction watchdog, drain, deadline
//===----------------------------------------------------------------------===//

namespace {

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

std::filesystem::path freshTempDir(const std::string &Tag) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-guard-" + Tag + "-" + std::to_string(::getpid()));
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  return Dir;
}

/// Runs the 2x2 mini campaign with a tiny per-cell instruction budget and
/// returns the [bench][config] statuses of every cell.
std::vector<std::vector<Status>> watchdogCampaign(unsigned Jobs) {
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = Jobs;
  EngineOpts.UseCache = false;
  // Far below what the baseline simulation retires: every cell must hit
  // the deterministic watchdog.
  EngineOpts.CellInstrBudget = 500;
  harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
  const auto Matrix = Engine.runMatrix<double>(
      miniSuite(), 2,
      [](harness::Cell &C) {
        // The baseline simulation runs inside the cell, under the budget.
        C.Bench.baseline();
        return 1.0;
      },
      harness::CellNeeds{false, false, false});
  std::vector<std::vector<Status>> Statuses;
  for (const auto &Row : Matrix) {
    Statuses.emplace_back();
    for (const auto &Cell : Row)
      Statuses.back().push_back(Cell.status());
  }
  return Statuses;
}

} // namespace

TEST(EngineWatchdogTest, InstrBudgetYieldsResourceExhaustedDeterministically) {
  const auto Serial = watchdogCampaign(1);
  for (const auto &Row : Serial)
    for (const Status &S : Row) {
      EXPECT_EQ(S.code(), ErrorCode::ResourceExhausted);
      EXPECT_EQ(S.origin(), "sim::DmpCore");
      EXPECT_NE(S.message().find("watchdog"), std::string::npos);
    }
  // Bit-identical statuses for any --jobs value: the budget counts retired
  // instructions, not wall-clock.
  const auto Wide = watchdogCampaign(4);
  ASSERT_EQ(Serial.size(), Wide.size());
  for (size_t B = 0; B < Serial.size(); ++B)
    for (size_t C = 0; C < Serial[B].size(); ++C) {
      EXPECT_EQ(Serial[B][C].code(), Wide[B][C].code());
      EXPECT_EQ(Serial[B][C].message(), Wide[B][C].message());
    }
}

TEST(EngineWatchdogTest, BudgetExceededCellIsAGapNotAHang) {
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = 2;
  EngineOpts.UseCache = false;
  EngineOpts.CellInstrBudget = 500;
  harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
  const auto Matrix = Engine.runMatrix<double>(
      miniSuite(), 1,
      [](harness::Cell &C) {
        C.Bench.baseline();
        return 1.0;
      },
      harness::CellNeeds{false, false, false});
  const harness::CampaignCounters Counters = Engine.campaign();
  EXPECT_EQ(Counters.CellsFailed, 2u);
  EXPECT_EQ(Counters.CellsComputed, 0u);
  // ResourceExhausted is not Transient: no retry storm.
  EXPECT_EQ(Counters.TransientRetries, 0u);
  EXPECT_FALSE(Matrix[0][0].ok());
  EXPECT_FALSE(Matrix[1][0].ok());
}

TEST(EngineDrainTest, ExternalTokenShedsCellsAsCancelledNotFailed) {
  guard::CancelToken Drain;
  Drain.cancel(ErrorCode::Cancelled, "interrupted by signal");
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = 2;
  EngineOpts.UseCache = false;
  EngineOpts.DrainToken = &Drain;
  harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
  EXPECT_TRUE(Engine.draining());

  const auto Matrix = Engine.runMatrix<double>(
      miniSuite(), 2,
      [](harness::Cell &C) { return static_cast<double>(C.Config); },
      harness::CellNeeds{false, false, false});
  for (const auto &Row : Matrix)
    for (const auto &Cell : Row) {
      EXPECT_FALSE(Cell.ok());
      EXPECT_EQ(Cell.status().origin(), "guard");
    }
  const harness::CampaignCounters Counters = Engine.campaign();
  EXPECT_EQ(Counters.CellsCancelled, 4u);
  EXPECT_EQ(Counters.CellsFailed, 0u);
  EXPECT_EQ(Counters.CellsComputed, 0u);
  EXPECT_TRUE(Counters.Failures.empty());
  EXPECT_NE(Engine.statsLine().find("cancelled=4"), std::string::npos);
  EXPECT_EQ(Engine.failureLines(), "");
}

TEST(EngineDrainTest, ExpiredDeadlineDrainsTheCampaign) {
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = 2;
  EngineOpts.UseCache = false;
  EngineOpts.DeadlineSeconds = 0.001;
  harness::ExperimentEngine Engine(miniOptions(), EngineOpts);
  // Let the watchdog fire before launching, so the drain is deterministic.
  const auto Until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Engine.draining() && std::chrono::steady_clock::now() < Until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(Engine.draining());
  EXPECT_EQ(Engine.cancelStatus().code(), ErrorCode::ResourceExhausted);

  const auto Matrix = Engine.runMatrix<double>(
      miniSuite(), 2,
      [](harness::Cell &C) { return static_cast<double>(C.Config); },
      harness::CellNeeds{false, false, false});
  for (const auto &Row : Matrix)
    for (const auto &Cell : Row)
      EXPECT_EQ(Cell.status().origin(), "guard");
  EXPECT_EQ(Engine.campaign().CellsCancelled, 4u);
}

//===----------------------------------------------------------------------===//
// Crash-consistent cache maintenance
//===----------------------------------------------------------------------===//

namespace {

serialize::Digest digestOf(const std::string &Text) {
  serialize::Hasher H;
  H.update(Text);
  return H.finish();
}

std::vector<uint8_t> payloadOf(const std::string &Text, size_t Pad = 0) {
  std::vector<uint8_t> P(Text.begin(), Text.end());
  P.resize(P.size() + Pad, 0xAB);
  return P;
}

} // namespace

TEST(CacheRecoveryTest, SweepReapsOrphanedTempFiles) {
  const std::filesystem::path Dir = freshTempDir("sweep");
  serialize::ArtifactCache Cache(Dir.string());
  ASSERT_TRUE(Cache.store(digestOf("k1"), payloadOf("v1")).ok());

  // Debris of a process killed between temp write and rename.
  const std::filesystem::path Orphan =
      Dir / "ab" / "deadbeef.blob.tmp.42.1234";
  std::filesystem::create_directories(Orphan.parent_path());
  { std::ofstream(Orphan) << "torn write"; }
  ASSERT_TRUE(std::filesystem::exists(Orphan));

  serialize::ArtifactCache Fresh(Dir.string());
  Fresh.sweepNow();
  EXPECT_EQ(Fresh.orphansReaped(), 1u);
  EXPECT_FALSE(std::filesystem::exists(Orphan));
  // Real blobs survive the sweep.
  const auto Loaded = Fresh.load(digestOf("k1"));
  ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
  EXPECT_EQ(*Loaded, payloadOf("v1"));
  // Idempotent: nothing left to reap.
  Fresh.sweepNow();
  EXPECT_EQ(Fresh.orphansReaped(), 1u);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

// The lazy sweep runs once per (directory, process): a later handle in the
// same process skips it, an explicit sweepNow() does not, and a forked
// child is a later process whose first I/O sweeps again.
TEST(CacheRecoveryTest, LazySweepRunsOncePerProcess) {
  const std::filesystem::path Dir = freshTempDir("sweep-once");
  const std::filesystem::path Orphan = Dir / "ab" / "cafe.blob.tmp.42.1";
  const auto Plant = [&] {
    std::filesystem::create_directories(Orphan.parent_path());
    std::ofstream(Orphan) << "torn write";
  };
  {
    serialize::ArtifactCache First(Dir.string());
    ASSERT_TRUE(First.store(digestOf("k"), payloadOf("v")).ok());
  }
  Plant();
  // The same directory by another spelling is the same directory.
  serialize::ArtifactCache Second((Dir / "ab" / "..").string());
  ASSERT_TRUE(Second.load(digestOf("k")).ok());
  EXPECT_TRUE(std::filesystem::exists(Orphan));
  EXPECT_EQ(Second.orphansReaped(), 0u);
  Second.sweepNow();
  EXPECT_FALSE(std::filesystem::exists(Orphan));
  EXPECT_EQ(Second.orphansReaped(), 1u);

  Plant();
  const pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    serialize::ArtifactCache Forked(Dir.string());
    const bool Loaded = Forked.load(digestOf("k")).ok();
    ::_exit(Loaded && Forked.orphansReaped() == 1 &&
                    !std::filesystem::exists(Orphan)
                ? 0
                : 1);
  }
  int WaitStatus = 0;
  ASSERT_EQ(::waitpid(Child, &WaitStatus, 0), Child);
  EXPECT_TRUE(WIFEXITED(WaitStatus) && WEXITSTATUS(WaitStatus) == 0);
  EXPECT_FALSE(std::filesystem::exists(Orphan));

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST(CacheRecoveryTest, EvictionRespectsBudget) {
  const std::filesystem::path Dir = freshTempDir("evict");
  serialize::ArtifactCache Cache(Dir.string());
  for (int I = 0; I < 6; ++I)
    ASSERT_TRUE(Cache
                    .store(digestOf("bulk" + std::to_string(I)),
                           payloadOf("bulk", 4096))
                    .ok());

  // Every blob has the same size; a budget of two and a half blobs keeps
  // two and evicts the other four, no more.
  uint64_t BlobBytes = 0;
  for (const auto &Entry : std::filesystem::recursive_directory_iterator(Dir))
    if (Entry.path().extension() == ".blob")
      BlobBytes = Entry.file_size();
  ASSERT_GT(BlobBytes, 4096u);
  EXPECT_EQ(Cache.evictToBudget(5 * BlobBytes / 2), 4u);
  EXPECT_EQ(Cache.evictions(), 4u);
  int Kept = 0;
  for (int I = 0; I < 6; ++I)
    Kept += Cache.load(digestOf("bulk" + std::to_string(I))).ok();
  EXPECT_EQ(Kept, 2);
  // Under budget: nothing more goes.
  EXPECT_EQ(Cache.evictToBudget(5 * BlobBytes / 2), 0u);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST(CacheRecoveryTest, ContendedLockSkipsMaintenanceAndCounts) {
  const std::filesystem::path Dir = freshTempDir("lock");
  serialize::ArtifactCache Cache(Dir.string());
  ASSERT_TRUE(Cache.store(digestOf("k"), payloadOf("v")).ok());

  // Simulate another active process: an outside shared flock on the lock
  // file blocks the exclusive maintenance lock.
  const int Fd =
      ::open((Dir / ".lock").string().c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::flock(Fd, LOCK_SH), 0);
  const uint64_t Before = Cache.lockContention();
  Cache.sweepNow();
  EXPECT_EQ(Cache.lockContention(), Before + 1);
  EXPECT_EQ(Cache.evictToBudget(1), 0u);
  EXPECT_EQ(Cache.lockContention(), Before + 2);
  // Routine traffic still proceeds: the advisory lock only gates
  // maintenance, and readers share it.
  EXPECT_TRUE(Cache.load(digestOf("k")).ok());

  ::flock(Fd, LOCK_UN);
  ::close(Fd);
  // Quiescent again: maintenance goes through.
  Cache.sweepNow();
  EXPECT_GT(Cache.evictToBudget(1), 0u);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// Exit codes
//===----------------------------------------------------------------------===//

TEST(ExitCodeTest, ContractIsStable) {
  EXPECT_EQ(exitcode::Ok, 0);
  EXPECT_EQ(exitcode::Failure, 1);
  EXPECT_EQ(exitcode::Usage, 2);
  EXPECT_EQ(exitcode::Interrupted, 130);
  EXPECT_EQ(exitcode::CrashChild, 137);
}
