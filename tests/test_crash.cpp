//===- tests/test_crash.cpp - Fork-based crashpoint harness -------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// The crash-consistency acceptance tests: each test forks a child that dies
// at the most hostile instant of a write protocol — either via a fault::Plan
// crashpoint (Injector::maybeCrash -> _exit(137), no destructors, no stdio
// flush, exactly like a kill -9) or via a real mid-campaign SIGINT — and the
// parent verifies the recovery guarantees:
//
//   1. CrashMidStore leaves an orphan temp file, never a torn blob; the
//      next process's recovery sweep reaps it and a store heals the key.
//   2. A campaign crashed mid-store reruns on the same cache to the matrix
//      an uninterrupted campaign computes, reusing the stages it stored.
//   3. SIGINT mid-campaign exits 130, and the rerun on the same cache
//      completes the matrix, reusing the stages the drained run stored.
//   4. Two writer processes and a reader hammering one cache directory
//      never observe a torn blob, and the shared counters stay sane.
//
// The artifact cache is a campaign's only checkpoint: every profile,
// trace, baseline and DMP simulation is a blob as soon as it completes.
//
// These tests fork, wait, and run real campaigns, so they carry the "crash"
// label next to "tier1" (see tests/CMakeLists.txt and scripts/check.sh
// --crash).
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "guard/Guard.h"
#include "harness/Engine.h"
#include "serialize/ArtifactCache.h"
#include "support/ExitCodes.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace dmp;

namespace {

std::filesystem::path freshTempDir(const std::string &Tag) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-crash-" + Tag + "-" + std::to_string(::getpid()));
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
  return Dir;
}

/// Forks and runs \p Body in the child; the child exits with Body's return
/// value unless a crashpoint _exit()s it first.  Returns the child's exit
/// code as seen by waitpid (-1 on abnormal termination).
int runForked(const std::function<int()> &Body) {
  const pid_t Pid = ::fork();
  if (Pid == 0) {
    // Keep campaign footers of deliberately-killed children out of the
    // test output.
    std::freopen("/dev/null", "w", stderr);
    ::_exit(Body());
  }
  if (Pid < 0)
    return -1;
  int WStatus = 0;
  if (::waitpid(Pid, &WStatus, 0) != Pid)
    return -1;
  return WIFEXITED(WStatus) ? WEXITSTATUS(WStatus) : -1;
}

/// A plan that fires the single crashpoint \p S on every key.
fault::Plan crashPlan(fault::Site S) {
  fault::Plan Plan;
  Plan.Seed = 1;
  Plan.at(S) = {/*Rate=*/1.0, /*MaxFaultsPerOp=*/~0u, ErrorCode::Invariant};
  return Plan;
}

serialize::Digest digestOf(const std::string &Text) {
  serialize::Hasher H;
  H.update(Text);
  return H.finish();
}

std::vector<uint8_t> payloadOf(const std::string &Text, size_t Pad = 0) {
  std::vector<uint8_t> P(Text.begin(), Text.end());
  P.resize(P.size() + Pad, 0xCD);
  return P;
}

bool anyTempFileUnder(const std::filesystem::path &Dir) {
  std::error_code EC;
  for (auto It = std::filesystem::recursive_directory_iterator(Dir, EC);
       !EC && It != std::filesystem::recursive_directory_iterator(); ++It)
    if (It->is_regular_file(EC) &&
        It->path().filename().string().find(".tmp.") != std::string::npos)
      return true;
  return false;
}

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

using Matrix = std::vector<std::vector<StatusOr<double>>>;

/// A real stage cell: All-best-heur (column 0) or All-best-cost (column 1)
/// selection, simulated against the baseline.
double gainCell(harness::Cell &C) {
  const core::SelectionFeatures Features =
      C.Config == 0 ? core::SelectionFeatures::allBestHeur()
                    : core::SelectionFeatures::allBestCost();
  return harness::ipcImprovement(
      C.Bench.baseline(),
      C.Bench.simulateWith(
          C.Bench.select(Features, workloads::InputSetKind::Run)));
}

/// An engine over \p CacheDir ("" turns the cache off).
harness::EngineOptions engineOptions(unsigned Jobs,
                                     const std::string &CacheDir) {
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = Jobs;
  EngineOpts.UseCache = !CacheDir.empty();
  EngineOpts.CacheDir = CacheDir;
  return EngineOpts;
}

/// Runs the gainCell matrix over \p Suite.
Matrix runGains(harness::ExperimentEngine &Engine,
                const std::vector<workloads::BenchmarkSpec> &Suite) {
  return Engine.runMatrix<double>(Suite, 2, gainCell);
}

/// DMP simulations run by every context of \p Engine over \p Suite.
uint64_t dmpSims(harness::ExperimentEngine &Engine,
                 const std::vector<workloads::BenchmarkSpec> &Suite) {
  uint64_t Sims = 0;
  for (const workloads::BenchmarkSpec &Spec : Suite)
    Sims += Engine.contextFor(Spec).dmpSims();
  return Sims;
}

/// An uninterrupted, uncached campaign: its matrix and the DMP simulations
/// it ran.  Its engine's threads are gone on return, so a test may fork.
struct Uninterrupted {
  Matrix Gains;
  uint64_t Sims = 0;
};

Uninterrupted
runUninterrupted(const std::vector<workloads::BenchmarkSpec> &Suite) {
  harness::ExperimentEngine Engine(miniOptions(), engineOptions(2, ""));
  Uninterrupted Run{runGains(Engine, Suite)};
  Run.Sims = dmpSims(Engine, Suite);
  return Run;
}

void expectSameMatrix(const Matrix &Got, const Matrix &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t B = 0; B < Want.size(); ++B)
    for (size_t C = 0; C < Want[B].size(); ++C) {
      ASSERT_TRUE(Got[B][C].ok()) << Got[B][C].status().toString();
      ASSERT_TRUE(Want[B][C].ok());
      EXPECT_EQ(*Got[B][C], *Want[B][C]) << "cell " << B << "/" << C;
    }
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. CrashMidStore
//===----------------------------------------------------------------------===//

TEST(CrashStoreTest, MidStoreCrashLeavesOrphanNeverTornBlobAndSweepHeals) {
  const std::filesystem::path Dir = freshTempDir("store");
  const serialize::Digest Key = digestOf("victim");
  const std::vector<uint8_t> Payload = payloadOf("victim-bytes", 2048);

  const int Exit = runForked([&] {
    serialize::ArtifactCache Cache(Dir.string());
    const fault::Injector Inj(crashPlan(fault::Site::CrashMidStore));
    Cache.setFaultInjector(&Inj);
    Cache.store(Key, Payload); // dies between temp write and rename
    return 0;                  // unreachable if the crashpoint fired
  });
  ASSERT_EQ(Exit, exitcode::CrashChild);

  // The child died after writing its temp file but before the rename:
  // debris exists, but the key reads as a clean miss — never Corrupt.
  EXPECT_TRUE(anyTempFileUnder(Dir));
  serialize::ArtifactCache Recovered(Dir.string());
  EXPECT_EQ(Recovered.load(Key).status().code(), ErrorCode::NotFound);

  // The recovery sweep reaps the orphan, and a store heals the key.
  Recovered.sweepNow();
  EXPECT_GE(Recovered.orphansReaped(), 1u);
  EXPECT_FALSE(anyTempFileUnder(Dir));
  ASSERT_TRUE(Recovered.store(Key, Payload).ok());
  const auto Loaded = Recovered.load(Key);
  ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
  EXPECT_EQ(*Loaded, Payload);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// 2. Crash mid-store, then rerun: the uninterrupted matrix
//===----------------------------------------------------------------------===//

TEST(CrashCampaignTest, CrashedCampaignRerunsToTheUninterruptedMatrix) {
  const std::filesystem::path Dir = freshTempDir("campaign");
  const std::vector<workloads::BenchmarkSpec> Suite = miniSuite();
  const Uninterrupted Want = runUninterrupted(Suite);

  // The crashed campaign: the first benchmark's matrix completes and
  // stores its stages, then the process dies in the middle of the first
  // store of the full matrix's second benchmark.
  const int Exit = runForked([&] {
    harness::ExperimentEngine Engine(miniOptions(),
                                     engineOptions(1, Dir.string()));
    runGains(Engine, {Suite[0]});
    const fault::Injector Inj(crashPlan(fault::Site::CrashMidStore));
    Engine.cache()->setFaultInjector(&Inj);
    runGains(Engine, Suite);
    return 0; // unreachable if the crashpoint fired
  });
  ASSERT_EQ(Exit, exitcode::CrashChild);
  EXPECT_TRUE(anyTempFileUnder(Dir));

  // The rerun reaps the orphan, loads the first benchmark's stages and
  // computes only the second's, to exactly the uninterrupted values.
  harness::ExperimentEngine Engine(miniOptions(),
                                   engineOptions(2, Dir.string()));
  expectSameMatrix(runGains(Engine, Suite), Want.Gains);
  EXPECT_GE(Engine.cache()->orphansReaped(), 1u);
  EXPECT_GT(Engine.cache()->hits(), 0u);
  EXPECT_EQ(Engine.contextFor(Suite[0]).dmpSims(), 0u);
  EXPECT_EQ(Engine.contextFor(Suite[0]).traces(), 0u);
  EXPECT_GT(Engine.contextFor(Suite[1]).dmpSims(), 0u);
  EXPECT_EQ(Engine.campaign().CellsComputed, 4u);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// 3. SIGINT mid-campaign: exit 130, then the rerun reuses the cache
//===----------------------------------------------------------------------===//

TEST(SignalTest, SigintMidCampaignExits130FlushesCheckpointAndResumes) {
  const std::filesystem::path Dir = freshTempDir("sigint");
  const std::vector<workloads::BenchmarkSpec> Suite = miniSuite();
  const Uninterrupted Want = runUninterrupted(Suite);

  // The interrupted campaign: a real SIGINT is raised after the second
  // computed cell (the deterministic-interrupt test hook), the drain sheds
  // the rest, and the driver epilogue exits 130.  The stages the finished
  // cells computed are already in the cache.
  const int Exit = runForked([&] {
    ::setenv("DMP_TEST_RAISE_SIGINT_AFTER_CELLS", "2", 1);
    guard::installSignalHandlers();
    harness::ExperimentEngine Engine(miniOptions(),
                                     engineOptions(1, Dir.string()));
    runGains(Engine, Suite);
    if (Engine.campaign().CellsCancelled == 0)
      return 4; // the drain never happened
    return harness::finishDriver(Engine);
  });
  ASSERT_EQ(Exit, exitcode::Interrupted);

  // The rerun completes the matrix with exactly the uninterrupted values
  // and simulates less than the uninterrupted campaign did: the finished
  // cells' simulations load from the cache.
  harness::ExperimentEngine Engine(miniOptions(),
                                   engineOptions(2, Dir.string()));
  expectSameMatrix(runGains(Engine, Suite), Want.Gains);
  const harness::CampaignCounters Counters = Engine.campaign();
  EXPECT_EQ(Counters.CellsComputed, 4u);
  EXPECT_EQ(Counters.CellsFailed, 0u);
  EXPECT_GT(Engine.cache()->hits(), 0u);
  EXPECT_LT(dmpSims(Engine, Suite), Want.Sims);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

//===----------------------------------------------------------------------===//
// 4. Concurrent multi-process cache access
//===----------------------------------------------------------------------===//

TEST(ConcurrencyTest, TwoWritersAndAReaderNeverSeeTornBlobs) {
  const std::filesystem::path Dir = freshTempDir("mp");
  constexpr int NumKeys = 24;
  const auto KeyOf = [](int I) {
    return digestOf("mp-key-" + std::to_string(I));
  };
  const auto ValueOf = [](int I) {
    return payloadOf("mp-value-" + std::to_string(I), 4096);
  };

  const auto Writer = [&](uint64_t Salt) -> int {
    serialize::ArtifactCache Cache(Dir.string());
    for (int Round = 0; Round < 3; ++Round)
      for (int I = 0; I < NumKeys; ++I) {
        // Same key -> same bytes from both writers, so whoever renames
        // last wins harmlessly.
        if (!Cache.store(KeyOf(I), ValueOf(I)).ok())
          return 5;
        if ((I + static_cast<int>(Salt)) % 7 == 0)
          Cache.sweepNow(); // maintenance racing the other process
      }
    return 0;
  };

  const pid_t WriterA = ::fork();
  if (WriterA == 0)
    ::_exit(Writer(0));
  ASSERT_GT(WriterA, 0);
  const pid_t WriterB = ::fork();
  if (WriterB == 0)
    ::_exit(Writer(3));
  ASSERT_GT(WriterB, 0);

  // The reader hammers the cache while both writers run: every load is a
  // clean hit or a clean miss — Corrupt would mean a torn blob escaped the
  // temp-file + rename protocol.
  serialize::ArtifactCache Reader(Dir.string());
  uint64_t Hits = 0, MissesSeen = 0;
  bool WritersDone = false;
  while (!WritersDone) {
    for (int I = 0; I < NumKeys; ++I) {
      const auto Loaded = Reader.load(KeyOf(I));
      if (Loaded.ok()) {
        ++Hits;
        ASSERT_EQ(*Loaded, ValueOf(I));
      } else {
        ASSERT_EQ(Loaded.status().code(), ErrorCode::NotFound)
            << Loaded.status().toString();
        ++MissesSeen;
      }
    }
    int WStatus = 0;
    if (::waitpid(WriterA, &WStatus, WNOHANG) == WriterA) {
      ASSERT_TRUE(WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0);
      ASSERT_EQ(::waitpid(WriterB, &WStatus, 0), WriterB);
      ASSERT_TRUE(WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0);
      WritersDone = true;
    }
  }

  // Settled state: every key present with exact bytes, and the reader's
  // counters add up.
  const uint64_t HitsBefore = Reader.hits();
  const uint64_t MissesBefore = Reader.misses();
  EXPECT_EQ(HitsBefore, Hits);
  EXPECT_EQ(MissesBefore, MissesSeen);
  for (int I = 0; I < NumKeys; ++I) {
    const auto Loaded = Reader.load(KeyOf(I));
    ASSERT_TRUE(Loaded.ok()) << Loaded.status().toString();
    EXPECT_EQ(*Loaded, ValueOf(I));
  }
  EXPECT_EQ(Reader.hits(), HitsBefore + NumKeys);
  // No blob was ever rejected, and maintenance under contention only ever
  // skips (counts), never corrupts.
  EXPECT_EQ(Reader.corruptDeletes(), 0u);

  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}
