//===- tests/test_serve_chaos.cpp - Socket chaos and crash-restart matrix -===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// The hostile-transport and hostile-timing counterpart to test_serve.cpp,
// in three suites:
//
//   ChaosScheduleTest      the ChaosProxy decision function itself: pure,
//                          seeded, replayable (no I/O).
//   ServeChaosTest         a live in-process server behind a ChaosProxy:
//                          chopped frames (every partial-read path), delays,
//                          and mid-frame disconnects — runCampaign() must
//                          ride through all of it with digests identical to
//                          local execution.
//   ServeCrashRestartTest  the full crash matrix, following the
//                          test_crash.cpp fork pattern: a real daemon
//                          process SIGKILLed at hostile instants
//                          (mid-submit, mid-cell, post-completion-pre-
//                          fetch), restarted on the same socket and job
//                          store, and the campaign asserted bit-identical
//                          to an uninterrupted local run.
//   HostileScheduleTest    the HostileClient decision mix itself: pure,
//                          seeded, replayable (no I/O).
//   ServeLivenessTest      the hostile-client liveness matrix (DESIGN.md
//                          "Liveness & overload"): a live server under
//                          each HostileClient attack — half-open floods,
//                          slowloris drips, never-read floods, submit
//                          storms — plus the hung-worker watchdog.  Each
//                          test pins that the daemon stays responsive,
//                          that a well-behaved campaign's digests match
//                          local execution, and that every defensive
//                          drop lands in a counter.
//
// Registered per-test under tier1 and as one whole-exe `chaos_matrix`
// entry under the `chaos` ctest label (scripts/check.sh --chaos).
//
//===----------------------------------------------------------------------===//

#include "chaos/ChaosProxy.h"
#include "chaos/HostileClient.h"
#include "harness/CellRun.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/WorkerPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace dmp;
using namespace dmp::serve;

namespace {

harness::CellSpec smallSpec(const std::string &Benchmark = "mcf",
                            const std::string &Algo = "all") {
  harness::CellSpec Spec;
  Spec.Benchmark = Benchmark;
  Spec.Algo = Algo;
  Spec.SimInstrs = 100'000;
  Spec.ProfileInstrs = 400'000;
  return Spec;
}

serialize::Digest localDigest(const harness::CellSpec &Spec) {
  StatusOr<harness::CellResult> R = harness::runCellSpec(Spec, nullptr);
  EXPECT_TRUE(R.ok()) << R.status().toString();
  return harness::cellResultDigest(*R);
}

std::string freshSocketPath(const std::string &Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("dmp-chaos-" + Tag + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(Counter++) + ".sock"))
      .string();
}

/// A retry policy tuned for tests: fast, bounded, deterministic.
RetryPolicy testRetry(uint64_t Seed) {
  RetryPolicy Retry;
  Retry.ConnectAttempts = 40;
  Retry.BaseDelayMs = 2;
  Retry.MaxDelayMs = 100;
  Retry.MaxResubmits = 16;
  Retry.Seed = Seed;
  return Retry;
}

} // namespace

//===----------------------------------------------------------------------===//
// ChaosScheduleTest — the injection decision is a pure seeded function.
//===----------------------------------------------------------------------===//

TEST(ChaosScheduleTest, DecideIsPureAndReplayable) {
  ChaosPlan Plan;
  Plan.Seed = 1234;
  for (uint64_t Site = 0; Site < 4; ++Site)
    for (uint64_t Op = 0; Op < 256; ++Op)
      EXPECT_EQ(ChaosProxy::decide(Plan, Site, Op, 0.5),
                ChaosProxy::decide(Plan, Site, Op, 0.5))
          << "site " << Site << " op " << Op
          << ": the same (seed, site, op) must replay the same decision";
}

TEST(ChaosScheduleTest, DecideRespectsRateBoundsAndSeed) {
  ChaosPlan Plan;
  Plan.Seed = 7;
  unsigned Hits = 0;
  constexpr unsigned kOps = 4096;
  for (uint64_t Op = 0; Op < kOps; ++Op) {
    EXPECT_FALSE(ChaosProxy::decide(Plan, 0, Op, 0.0));
    EXPECT_TRUE(ChaosProxy::decide(Plan, 0, Op, 1.0));
    if (ChaosProxy::decide(Plan, 0, Op, 0.5))
      ++Hits;
  }
  // A hash this far from fair would be a bug, not bad luck.
  EXPECT_GT(Hits, kOps / 4);
  EXPECT_LT(Hits, 3 * kOps / 4);
  // A different seed explores a different schedule.
  ChaosPlan Other = Plan;
  Other.Seed = 8;
  bool Differs = false;
  for (uint64_t Op = 0; Op < 64 && !Differs; ++Op)
    Differs = ChaosProxy::decide(Plan, 0, Op, 0.5) !=
              ChaosProxy::decide(Other, 0, Op, 0.5);
  EXPECT_TRUE(Differs);
}

//===----------------------------------------------------------------------===//
// ServeChaosTest — live in-process server behind a chaos relay (no forks).
//===----------------------------------------------------------------------===//

namespace {

class ServeChaosTest : public ::testing::Test {
protected:
  void startServer() {
    PoolOpts.Workers = 0;
    Pool = std::make_unique<WorkerPool>(PoolOpts);
    ServerOptions Opts;
    Opts.SocketPath = Socket = freshSocketPath("upstream");
    Opts.Quiet = true;
    Srv = std::make_unique<Server>(std::move(Opts), *Pool, &Token);
    ASSERT_TRUE(Srv->listen().ok());
    Loop = std::thread([this] { RunResult = Srv->run(); });
  }

  void startProxy(const ChaosPlan &Plan) {
    ProxyPath = freshSocketPath("proxy");
    Proxy = std::make_unique<ChaosProxy>(ProxyPath, Socket, Plan);
    ASSERT_TRUE(Proxy->start().ok());
  }

  void TearDown() override {
    if (Proxy)
      Proxy->stop();
    if (Loop.joinable()) {
      Srv->requestStop();
      Loop.join();
      EXPECT_TRUE(RunResult.ok()) << RunResult.toString();
    }
    std::error_code EC;
    std::filesystem::remove(Socket, EC);
    std::filesystem::remove(ProxyPath, EC);
  }

  WorkerPoolOptions PoolOpts;
  std::unique_ptr<WorkerPool> Pool;
  std::unique_ptr<Server> Srv;
  std::unique_ptr<ChaosProxy> Proxy;
  guard::CancelToken Token;
  std::thread Loop;
  std::string Socket;
  std::string ProxyPath;
  Status RunResult;
};

} // namespace

TEST_F(ServeChaosTest, ChoppedTransportIsDigestIdentical) {
  // Every chunk in both directions is forwarded in 1..3-byte pieces: the
  // peers see partial reads of every frame header and payload.  Short
  // writes must be invisible to the protocol.
  startServer();
  ChaosPlan Plan;
  Plan.Seed = 11;
  Plan.ChopRate = 1.0;
  Plan.ChopBytesMax = 3;
  startProxy(Plan);

  Client C;
  ASSERT_TRUE(C.connect(ProxyPath).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec("mcf", "all"));
  Req.Cells.push_back(smallSpec("mcf", "every-br"));
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, testRetry(11));
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_EQ(Reply->Cells.size(), 2u);
  for (size_t I = 0; I < 2; ++I) {
    ASSERT_TRUE(Reply->Cells[I].ok()) << Reply->Cells[I].status().toString();
    EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[I]).hex(),
              localDigest(Req.Cells[I]).hex())
        << "cell " << I << " diverged under chopped transport";
  }
  EXPECT_GT(Proxy->chunksForwarded(), 0u);
  EXPECT_EQ(Proxy->drops(), 0u);
}

TEST_F(ServeChaosTest, DelayedTransportIsDigestIdentical) {
  startServer();
  ChaosPlan Plan;
  Plan.Seed = 12;
  Plan.ChopRate = 0.5;
  Plan.DelayRate = 0.25;
  Plan.DelayMs = 1;
  startProxy(Plan);

  Client C;
  ASSERT_TRUE(C.connect(ProxyPath).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, testRetry(12));
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex());
}

TEST_F(ServeChaosTest, MidFrameDisconnectsAreRiddenThrough) {
  // The first two chunks each trigger a mid-frame cut: half the bytes are
  // delivered, then both sides of the link die.  The client must treat the
  // torn exchange as transport failure, reconnect, and resubmit — and the
  // server-side dedup guarantees the retries never double-run the job.
  startServer();
  ChaosPlan Plan;
  Plan.Seed = 13;
  Plan.DropRate = 1.0;
  Plan.MaxDrops = 2;
  Plan.ChopRate = 0.25;
  startProxy(Plan);

  Client C;
  ASSERT_TRUE(C.connect(ProxyPath).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, testRetry(13));
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok()) << Reply->Cells[0].status().toString();
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex());
  EXPECT_EQ(Proxy->drops(), 2u) << "both budgeted cuts should have fired";
  // At most one job ran for all those (re)submits.
  EXPECT_LE(Srv->counters().JobsAccepted, 1u + Srv->counters().JobsDeduped);
  EXPECT_EQ(Srv->counters().CellsCompleted, 1u)
      << "reconnect/resubmit must never double-run a cell";
}

//===----------------------------------------------------------------------===//
// ServeCrashRestartTest — SIGKILL the daemon at hostile instants.
//===----------------------------------------------------------------------===//

namespace {

/// Forks a real (Workers=0, durable, quiet) daemon process on a shared
/// socket and job store, kills it with SIGKILL at chosen instants, and
/// restarts it — the process-level analogue of ServeDurableTest, where
/// no destructor ever runs and only the stored blobs survive.
class ServeCrashRestartTest : public ::testing::Test {
protected:
  void SetUp() override {
    CacheDir = (std::filesystem::temp_directory_path() /
                ("dmp-chaos-store-" + std::to_string(::getpid()) + "-" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
    std::filesystem::remove_all(CacheDir);
    Socket = freshSocketPath("daemon");
  }

  void TearDown() override {
    killDaemon();
    std::error_code EC;
    std::filesystem::remove(Socket, EC);
    std::filesystem::remove_all(CacheDir, EC);
  }

  void spawnDaemon() {
    DaemonPid = ::fork();
    ASSERT_GE(DaemonPid, 0);
    if (DaemonPid == 0) {
      // Drop every descriptor inherited from the test process.  A
      // ChaosProxy relay open at the fork would otherwise stay open in the
      // daemon after the proxy cuts it, and its client would never see EOF.
      ::closefrom(3);
      WorkerPoolOptions PO;
      PO.Workers = 0;
      PO.CacheDir = CacheDir;
      WorkerPool Pool(PO);
      ServerOptions SO;
      SO.SocketPath = Socket;
      SO.Quiet = true;
      Server Daemon(std::move(SO), Pool);
      if (!Daemon.listen().ok())
        ::_exit(1);
      (void)Daemon.run();
      ::_exit(0);
    }
    // Wait for the socket to answer before letting the test proceed.
    for (int I = 0; I < 5000; ++I) {
      Client Probe;
      if (Probe.connect(Socket).ok())
        return;
      ::usleep(1000);
    }
    FAIL() << "daemon never became connectable on " << Socket;
  }

  void killDaemon() {
    if (DaemonPid <= 0)
      return;
    ::kill(DaemonPid, SIGKILL);
    ::waitpid(DaemonPid, nullptr, 0);
    DaemonPid = -1;
  }

  /// Forks a client process that rides the campaign through whatever the
  /// test does to the daemon and reports each cell digest over a pipe.
  /// Returns the digests (empty on client failure).
  std::vector<std::string> runCampaignInChild(const SubmitRequest &Req,
                                              uint64_t Seed) {
    int Pipe[2];
    EXPECT_EQ(::pipe(Pipe), 0);
    const pid_t Pid = ::fork();
    EXPECT_GE(Pid, 0);
    if (Pid == 0) {
      ::close(Pipe[0]);
      const RetryPolicy Retry = testRetry(Seed);
      Client C;
      if (!C.connectWithRetry(Socket, Retry).ok())
        ::_exit(2);
      StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, Retry);
      if (!Reply.ok())
        ::_exit(3);
      for (const StatusOr<harness::CellResult> &Cell : Reply->Cells) {
        if (!Cell.ok())
          ::_exit(4);
        const std::string Line = harness::cellResultDigest(*Cell).hex() + "\n";
        if (::write(Pipe[1], Line.data(), Line.size()) !=
            static_cast<ssize_t>(Line.size()))
          ::_exit(5);
      }
      (void)C.ack(Reply->Job);
      ::_exit(0);
    }
    ::close(Pipe[1]);
    ClientPid = Pid;
    ClientPipe = Pipe[0];
    return {};
  }

  /// Waits for the campaign child, requiring exit 0, and returns the
  /// digests it reported.
  std::vector<std::string> joinCampaignChild() {
    std::string Raw;
    char Buf[256];
    while (true) {
      const ssize_t N = ::read(ClientPipe, Buf, sizeof(Buf));
      if (N > 0) {
        Raw.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      break;
    }
    ::close(ClientPipe);
    ClientPipe = -1;
    int WStatus = 0;
    EXPECT_EQ(::waitpid(ClientPid, &WStatus, 0), ClientPid);
    EXPECT_TRUE(WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0)
        << "campaign client exited "
        << (WIFEXITED(WStatus) ? WEXITSTATUS(WStatus) : -1);
    ClientPid = -1;
    std::vector<std::string> Digests;
    size_t Pos = 0;
    while (Pos < Raw.size()) {
      const size_t Eol = Raw.find('\n', Pos);
      if (Eol == std::string::npos)
        break;
      Digests.push_back(Raw.substr(Pos, Eol - Pos));
      Pos = Eol + 1;
    }
    return Digests;
  }

  void expectLocalParity(const SubmitRequest &Req,
                         const std::vector<std::string> &Digests) {
    ASSERT_EQ(Digests.size(), Req.Cells.size());
    for (size_t I = 0; I < Req.Cells.size(); ++I)
      EXPECT_EQ(Digests[I], localDigest(Req.Cells[I]).hex())
          << "cell " << I << " diverged across the daemon crash";
  }

  pid_t DaemonPid = -1;
  pid_t ClientPid = -1;
  int ClientPipe = -1;
  std::string Socket;
  std::string CacheDir;
};

} // namespace

TEST_F(ServeCrashRestartTest, KillDuringSubmitWindowThenRestart) {
  // The most hostile instant: the daemon dies the moment the campaign
  // starts — possibly mid-SUBMIT, possibly before the client connects at
  // all.  The client's reconnect/resubmit loop must absorb every case.
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec("mcf", "all"));
  Req.Cells.push_back(smallSpec("mcf", "every-br"));

  spawnDaemon();
  runCampaignInChild(Req, /*Seed=*/21);
  killDaemon();
  spawnDaemon();
  expectLocalParity(Req, joinCampaignChild());
}

TEST_F(ServeCrashRestartTest, KillMidCellExecutionThenRestart) {
  // Let the campaign make real progress, then SIGKILL mid-cell: the
  // restarted daemon reruns the owed job over the stages already stored,
  // and the surviving client (same process, same Client object) finishes
  // the job.
  SubmitRequest Req;
  for (const char *Algo : {"all", "freq", "every-br", "short"})
    Req.Cells.push_back(smallSpec("mcf", Algo));

  spawnDaemon();
  runCampaignInChild(Req, /*Seed=*/22);
  // Give the daemon time to accept and run at least part of the job; the
  // exact cut point may land between cells or mid-cell — both must work.
  ::usleep(60'000);
  killDaemon();
  spawnDaemon();
  expectLocalParity(Req, joinCampaignChild());
}

TEST_F(ServeCrashRestartTest, KillAfterCompletionBeforeFetchThenRestart) {
  // The result-loss window the durable store exists for: the job finished,
  // the daemon died, the client never fetched.  After restart the request
  // is still owed, its cell reruns over the stages the first boot stored,
  // and the results are fetchable.
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());

  spawnDaemon();
  {
    Client C;
    ASSERT_TRUE(C.connect(Socket).ok());
    StatusOr<uint64_t> Job = C.submit(Req);
    ASSERT_TRUE(Job.ok()) << Job.status().toString();
    while (true) {
      StatusOr<JobStatusReply> S = C.status(*Job);
      ASSERT_TRUE(S.ok()) << S.status().toString();
      if (S->State == JobState::Done)
        break;
      ::usleep(2000);
    }
  }
  killDaemon();
  spawnDaemon();
  // A fresh client with only the request in hand recovers the results.
  Client C;
  ASSERT_TRUE(C.connect(Socket).ok());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, testRetry(23));
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex());
  EXPECT_TRUE(C.ack(Reply->Job).ok());
}

TEST_F(ServeCrashRestartTest, KillUnderChoppyTransportThenRestart) {
  // Compose both instruments: the campaign runs through a chopping proxy
  // AND the daemon is SIGKILLed mid-flight.  The client sees torn frames,
  // dead links, and a changed epoch — the digests must not care.
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec("mcf", "all"));
  Req.Cells.push_back(smallSpec("mcf", "short"));

  spawnDaemon();
  ChaosPlan Plan;
  Plan.Seed = 24;
  Plan.ChopRate = 0.5;
  Plan.ChopBytesMax = 3;
  const std::string ProxyPath = freshSocketPath("proxy");
  ChaosProxy Proxy(ProxyPath, Socket, Plan);
  ASSERT_TRUE(Proxy.start().ok());

  int Pipe[2];
  ASSERT_EQ(::pipe(Pipe), 0);
  const pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::close(Pipe[0]);
    const RetryPolicy Retry = testRetry(24);
    Client C;
    if (!C.connectWithRetry(ProxyPath, Retry).ok())
      ::_exit(2);
    StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, Retry);
    if (!Reply.ok())
      ::_exit(3);
    for (const StatusOr<harness::CellResult> &Cell : Reply->Cells) {
      if (!Cell.ok())
        ::_exit(4);
      const std::string Line = harness::cellResultDigest(*Cell).hex() + "\n";
      if (::write(Pipe[1], Line.data(), Line.size()) !=
          static_cast<ssize_t>(Line.size()))
        ::_exit(5);
    }
    ::_exit(0);
  }
  ::close(Pipe[1]);
  ClientPid = Pid;
  ClientPipe = Pipe[0];

  ::usleep(40'000);
  killDaemon();
  spawnDaemon();
  expectLocalParity(Req, joinCampaignChild());
  Proxy.stop();
}

//===----------------------------------------------------------------------===//
// HostileScheduleTest — the attack schedule is a pure seeded function.
//===----------------------------------------------------------------------===//

TEST(HostileScheduleTest, MixIsPureAndSeedSensitive) {
  HostilePlan Plan;
  Plan.Seed = 99;
  for (uint64_t Site = 0; Site < 4; ++Site)
    for (uint64_t Op = 0; Op < 64; ++Op)
      EXPECT_EQ(HostileClient::mix(Plan, Site, Op),
                HostileClient::mix(Plan, Site, Op))
          << "site " << Site << " op " << Op
          << ": the same (seed, site, op) must replay the same schedule";
  HostilePlan Other = Plan;
  Other.Seed = 100;
  bool Differs = false;
  for (uint64_t Op = 0; Op < 64 && !Differs; ++Op)
    Differs = HostileClient::mix(Plan, 0, Op) !=
              HostileClient::mix(Other, 0, Op);
  EXPECT_TRUE(Differs) << "a different seed must explore a different schedule";
}

//===----------------------------------------------------------------------===//
// ServeLivenessTest — the daemon under attack stays alive and correct.
//===----------------------------------------------------------------------===//

namespace {

class ServeLivenessTest : public ::testing::Test {
protected:
  /// Forks \p Workers worker processes FIRST (while the test is still
  /// single-threaded), then runs the server loop on a background thread —
  /// the only fork-safe order.  Workers=0 is the in-process mode the pure
  /// connection-hygiene attacks use.
  void start(unsigned Workers, ServerOptions Extra = {}) {
    PoolOpts.Workers = Workers;
    Pool = std::make_unique<WorkerPool>(PoolOpts);
    Extra.SocketPath = Socket = freshSocketPath("liveness");
    Extra.Quiet = true;
    Srv = std::make_unique<Server>(std::move(Extra), *Pool, &Token);
    ASSERT_TRUE(Srv->listen().ok());
    Loop = std::thread([this] { RunResult = Srv->run(); });
  }

  void TearDown() override {
    ::unsetenv("DMP_SERVE_HANG_ON_TICKET");
    if (Hostile)
      Hostile->stop();
    if (Loop.joinable()) {
      Srv->requestStop();
      Loop.join();
      EXPECT_TRUE(RunResult.ok()) << RunResult.toString();
    }
    Srv.reset();
    Pool.reset();
    std::error_code EC;
    std::filesystem::remove(Socket, EC);
  }

  void attack(HostilePlan Plan) {
    Hostile = std::make_unique<HostileClient>(Socket, Plan);
    ASSERT_TRUE(Hostile->start().ok());
  }

  /// Spin-waits (bounded) until \p Done returns true; false on timeout.
  template <typename Pred> bool waitFor(Pred Done, unsigned BudgetMs = 5000) {
    for (unsigned I = 0; I < BudgetMs; ++I) {
      if (Done())
        return true;
      ::usleep(1000);
    }
    return Done();
  }

  /// The liveness probe: under every attack a well-behaved client must
  /// still complete a PING round trip in bounded time.  Reconnects are
  /// tolerated (the accept cap may shed us — that is the defense working,
  /// not a liveness failure).
  void expectResponsive() {
    const RetryPolicy Retry = testRetry(77);
    const auto T0 = std::chrono::steady_clock::now();
    for (int Attempt = 0; Attempt < 50; ++Attempt) {
      Client C;
      if (C.connectWithRetry(Socket, Retry).ok() && C.ping().ok()) {
        const auto RttMs =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
        EXPECT_LT(RttMs, 5000) << "PING under attack took " << RttMs << "ms";
        return;
      }
      ::usleep(10'000);
    }
    FAIL() << "daemon unresponsive under attack: no PING completed";
  }

  WorkerPoolOptions PoolOpts;
  std::unique_ptr<WorkerPool> Pool;
  std::unique_ptr<Server> Srv;
  std::unique_ptr<HostileClient> Hostile;
  guard::CancelToken Token;
  std::thread Loop;
  std::string Socket;
  Status RunResult;
};

} // namespace

TEST_F(ServeLivenessTest, HungWorkerIsKilledAndJobCompletesIdentically) {
  // Ticket 0 — the first dispatch — wedges its worker forever (no beats,
  // no exit: the failure EOF supervision cannot see).  The watchdog must
  // SIGKILL it and the digest-identical retry path must finish the job on
  // the respawned worker, because the retried cell draws a fresh ticket.
  ASSERT_EQ(::setenv("DMP_SERVE_HANG_ON_TICKET", "0", 1), 0);
  ServerOptions Opts;
  Opts.CellWallMs = 500;
  start(/*Workers=*/2, Opts);

  Client C;
  ASSERT_TRUE(C.connect(Socket).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, testRetry(31));
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok()) << Reply->Cells[0].status().toString();
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex())
      << "digest diverged across the hung-worker kill and retry";

  const Server::Counters Ctr = Srv->counters();
  EXPECT_GE(Ctr.WorkersHung, 1u) << "the watchdog never fired";
  EXPECT_GE(Ctr.WorkerCrashes, 1u);
  EXPECT_GE(Ctr.CellsRetried, 1u);
  EXPECT_GE(Ctr.Heartbeats, 1u)
      << "the healthy retry worker should have beaten at least once";
}

TEST_F(ServeLivenessTest, HalfOpenFloodIsShedAndDaemonStaysResponsive) {
  // More half-open squatters than the accept cap: the daemon must shed
  // idle connections (or refuse) to keep accept room, and a well-behaved
  // campaign must still run to the local digest.
  ServerOptions Opts;
  Opts.MaxConns = 4;
  start(/*Workers=*/0, Opts);
  HostilePlan Plan;
  Plan.Seed = 41;
  Plan.Kind = HostileAttack::HalfOpen;
  Plan.Connections = 8;
  Plan.PaceUs = 1000;
  attack(Plan);

  EXPECT_TRUE(waitFor([&] {
    const Server::Counters C = Srv->counters();
    return C.ConnsShed + C.ConnsRefused >= 4;
  })) << "the accept cap never shed or refused the squatters";
  expectResponsive();

  Client C;
  const RetryPolicy Retry = testRetry(41);
  ASSERT_TRUE(C.connectWithRetry(Socket, Retry).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, Retry);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex())
      << "digest diverged under the half-open flood";
  EXPECT_GT(Hostile->connects(), 0u);
}

TEST_F(ServeLivenessTest, DripFedFrameTripsReadDeadline) {
  // Slowloris: one byte of a valid frame every 20ms against a 150ms
  // partial-frame read deadline.  The daemon must drop the dripper —
  // counted as a read timeout — and stay fully available.
  ServerOptions Opts;
  Opts.ReadDeadlineMs = 150;
  start(/*Workers=*/0, Opts);
  HostilePlan Plan;
  Plan.Seed = 42;
  Plan.Kind = HostileAttack::DripHeader;
  Plan.Connections = 4;
  Plan.OpsPerConn = 1000; // recycle on server drop, not voluntarily
  Plan.PaceUs = 20'000;
  attack(Plan);

  EXPECT_TRUE(waitFor([&] { return Srv->counters().ReadTimeouts >= 2; }))
      << "the read deadline never dropped a dripper";
  expectResponsive();

  Client C;
  const RetryPolicy Retry = testRetry(42);
  ASSERT_TRUE(C.connectWithRetry(Socket, Retry).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req, 5, Retry);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex())
      << "digest diverged under the slowloris drip";
}

TEST_F(ServeLivenessTest, NeverReadFloodTripsWriteBudget) {
  // PING floods from peers that never read a PONG: once the kernel buffer
  // is full the server's per-connection outbound queue grows, and the
  // write budget must disconnect the hoarder instead of buffering without
  // bound.
  ServerOptions Opts;
  Opts.MaxConnOutBytes = 2048;
  start(/*Workers=*/0, Opts);
  HostilePlan Plan;
  Plan.Seed = 43;
  Plan.Kind = HostileAttack::NeverRead;
  Plan.Connections = 8;
  Plan.OpsPerConn = 1'000'000; // flood until dropped
  Plan.PaceUs = 500;
  attack(Plan);

  EXPECT_TRUE(waitFor(
      [&] { return Srv->counters().SlowConsumerDrops >= 1; }, 10'000))
      << "the outbound budget never dropped a never-reading flooder";
  expectResponsive();
  EXPECT_GT(Hostile->ops(), 0u);
}

TEST_F(ServeLivenessTest, SubmitStormIsShedWithEveryShedAccounted) {
  // Dedup-proof submit storms against a tiny admission bound: the daemon
  // must shed with ResourceExhausted instead of queueing unboundedly, stay
  // responsive, and expose exactly its shed counts in the PONG load
  // snapshot — every shed accounted.
  ServerOptions Opts;
  Opts.MaxActiveJobs = 2;
  start(/*Workers=*/0, Opts);
  HostilePlan Plan;
  Plan.Seed = 44;
  Plan.Kind = HostileAttack::SubmitStorm;
  Plan.Connections = 8;
  Plan.OpsPerConn = 64;
  Plan.PaceUs = 500;
  attack(Plan);

  EXPECT_TRUE(waitFor(
      [&] { return Srv->counters().JobsRejected >= 1; }, 10'000))
      << "the submit storm was never shed";
  expectResponsive();
  Hostile->stop();

  // The public load snapshot must agree with the loop's own accounting.
  Client C;
  const RetryPolicy Retry = testRetry(44);
  ASSERT_TRUE(C.connectWithRetry(Socket, Retry).ok());
  StatusOr<PongLoad> Load = C.serverLoad();
  ASSERT_TRUE(Load.ok()) << Load.status().toString();
  const Server::Counters Ctr = Srv->counters();
  EXPECT_EQ(Load->JobsShed, Ctr.JobsRejected);
  EXPECT_EQ(Load->ConnsShed, Ctr.ReadTimeouts + Ctr.IdleDrops +
                                 Ctr.SlowConsumerDrops + Ctr.ConnsShed +
                                 Ctr.ConnsRefused);
}

TEST_F(ServeLivenessTest, BrownoutShedCarriesRetryAfterHint) {
  // A transient saturation shed (pending-cell budget) must carry a
  // retry-after hint; a permanent rejection (per-job cell limit) must
  // not.  The client surfaces the distinction via lastRetryAfterMs().
  ServerOptions Opts;
  Opts.MaxQueuedCells = 4;
  Opts.MaxCellsPerJob = 6;
  Opts.RetryAfterMs = 10;
  start(/*Workers=*/0, Opts);

  Client C;
  ASSERT_TRUE(C.connect(Socket).ok());

  // One submit of 5 cells: within the per-job limit (6) but over the
  // pending-cell budget (4) — a transient saturation shed, hinted, no
  // timing dependence on how fast earlier cells drain.
  SubmitRequest Saturating;
  for (const char *Algo : {"all", "freq", "short", "ret", "every-br"})
    Saturating.Cells.push_back(smallSpec("mcf", Algo));
  StatusOr<uint64_t> A = C.submit(Saturating);
  ASSERT_FALSE(A.ok()) << "5 pending cells must exceed MaxQueuedCells=4";
  EXPECT_EQ(A.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_GT(C.lastRetryAfterMs(), 0u) << "saturation shed carried no hint";

  // 7 cells > MaxCellsPerJob=6: a permanent rejection — retrying the
  // same request can never succeed, so no hint.
  SubmitRequest TooWide;
  for (const char *Algo :
       {"all", "freq", "short", "ret", "every-br", "exact", "immediate"})
    TooWide.Cells.push_back(smallSpec("mcf", Algo));
  StatusOr<uint64_t> R = C.submit(TooWide);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.status().code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(C.lastRetryAfterMs(), 0u)
      << "a permanent rejection must not invite a retry";
}

TEST_F(ServeLivenessTest, HintedBackoffIsDeterministicAndHintScaled) {
  // Pure-function checks on the client's hint-aware backoff: replayable
  // from the seed, bounded by [cap/2, cap], and the hint both replaces
  // the base delay and raises the ceiling when it exceeds MaxDelayMs.
  RetryPolicy Retry;
  Retry.BaseDelayMs = 10;
  Retry.MaxDelayMs = 100;
  Retry.Seed = 7;
  for (unsigned Attempt = 0; Attempt < 8; ++Attempt) {
    const unsigned A = Client::backoffDelayMs(Retry, Attempt);
    EXPECT_EQ(A, Client::backoffDelayMs(Retry, Attempt)) << "not replayable";
    EXPECT_LE(A, Retry.MaxDelayMs);
  }
  // A hint above the policy ceiling governs: the delay lands in
  // [hint/2, hint] at attempt 0 already.
  const unsigned Hinted = Client::backoffDelayMs(Retry, 0, /*Hint=*/500);
  EXPECT_GE(Hinted, 250u);
  EXPECT_LE(Hinted, 500u);
  // Without a hint the schedule is unchanged by the hint parameter's
  // default — the pre-brownout behavior, byte for byte.
  EXPECT_EQ(Client::backoffDelayMs(Retry, 3),
            Client::backoffDelayMs(Retry, 3, 0));
}
