//===- serve/WorkerPool.cpp - Forked cell-worker processes ----------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/WorkerPool.h"

#include "serialize/ArtifactCache.h"
#include "serve/Protocol.h"
#include "support/ExitCodes.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace dmp;
using namespace dmp::serve;

namespace {

/// Minimum wall time between two CELL_PROGRESS heartbeats.  The sim-plane
/// Progress hook fires every sim::kCancelPollInstrs retired instructions —
/// far more often than the supervisor needs — so the worker thins the beat
/// stream down to this cadence to keep the socketpair traffic negligible.
constexpr auto kHeartbeatInterval = std::chrono::milliseconds(50);

/// Parses a crash-injection ticket from \p EnvVar; ~0ull means unarmed.
uint64_t ticketFromEnv(const char *EnvVar) {
  const char *Env = std::getenv(EnvVar);
  if (!Env)
    return ~0ull;
  char *End = nullptr;
  const uint64_t V = std::strtoull(Env, &End, 10);
  return (End != Env && *End == '\0') ? V : ~0ull;
}

} // namespace

WorkerPool::WorkerPool(WorkerPoolOptions Opts) : Options(std::move(Opts)) {
  KillOnDispatchTicket = ticketFromEnv("DMP_SERVE_KILL_ON_DISPATCH_TICKET");
  Slots.resize(Options.Workers);
  for (Slot &S : Slots)
    spawn(S);
}

WorkerPool::~WorkerPool() {
  for (Slot &S : Slots) {
    if (S.Fd != -1)
      ::close(S.Fd);
    S.Fd = -1;
  }
  for (Slot &S : Slots) {
    if (S.Pid > 0)
      ::waitpid(S.Pid, nullptr, 0);
    S.Pid = -1;
  }
}

std::vector<pid_t> WorkerPool::pids() const {
  std::vector<pid_t> Out;
  for (const Slot &S : Slots)
    if (S.Pid > 0)
      Out.push_back(S.Pid);
  return Out;
}

void WorkerPool::spawn(Slot &S) {
  int Pair[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair) != 0) {
    S = Slot();
    return;
  }
  const pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Pair[0]);
    ::close(Pair[1]);
    S = Slot();
    return;
  }
  if (Pid == 0) {
    // Child: drop the supervisor end, any server fds, and the other
    // workers' supervisor ends, then loop until EOF.
    ::close(Pair[0]);
    for (const Slot &Other : Slots)
      if (Other.Fd != -1)
        ::close(Other.Fd);
    if (Options.InChild)
      Options.InChild();
    workerMain(Pair[1], Options.CacheDir);
  }
  ::close(Pair[1]);
  S = Slot();
  S.Pid = Pid;
  S.Fd = Pair[0];
}

Status WorkerPool::dispatch(unsigned W, uint64_t Ticket,
                            const std::vector<uint8_t> &RunCellPayload) {
  Slot &S = Slots[W];
  if (S.Fd == -1)
    return Status::transient("worker slot is dead", "serve::WorkerPool");
  if (Ticket == KillOnDispatchTicket) {
    // Test hook: the worker dies under this very dispatch — kill and reap
    // it before the write so writeFrame() fails with EPIPE, the exact
    // interleaving where the supervisor must undo its own bookkeeping
    // (the pool never learns of the ticket).
    KillOnDispatchTicket = ~0ull;
    if (S.Pid > 0) {
      ::kill(S.Pid, SIGKILL);
      ::waitpid(S.Pid, nullptr, 0);
      S.Pid = -1;
    }
  }
  if (Status St = writeFrame(S.Fd, MsgType::RunCell, RunCellPayload);
      !St.ok())
    return St;
  S.Busy = true;
  S.HasTicket = true;
  S.Ticket = Ticket;
  return Status();
}

void WorkerPool::complete(unsigned W) {
  Slots[W].Busy = false;
  Slots[W].HasTicket = false;
}

void WorkerPool::killWorker(unsigned W) {
  Slot &S = Slots[W];
  if (S.Pid > 0)
    ::kill(S.Pid, SIGKILL);
}

WorkerPool::CrashReport WorkerPool::onWorkerDeath(unsigned W, bool Respawn) {
  Slot &S = Slots[W];
  CrashReport Report;
  Report.HadTicket = S.HasTicket;
  Report.Ticket = S.Ticket;
  if (S.Fd != -1)
    ::close(S.Fd);
  if (S.Pid > 0)
    ::waitpid(S.Pid, nullptr, 0);
  S = Slot();
  if (Respawn)
    spawn(S);
  return Report;
}

int WorkerPool::idleWorker() const {
  for (unsigned W = 0; W < Slots.size(); ++W)
    if (Slots[W].Fd != -1 && !Slots[W].Busy)
      return static_cast<int>(W);
  return -1;
}

void WorkerPool::workerMain(int Fd, const std::string &CacheDir) {
  // A worker must never die of SIGPIPE (the supervisor vanishing shows up
  // as EOF/EPIPE Status instead) and must not react to the terminal's
  // SIGINT: the supervisor drains it by closing the socketpair.
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGINT, SIG_IGN);

  // Crash-injection hooks for the isolation tests: CRASH_TICKET dies the
  // moment the named dispatch ticket arrives (the result is lost and must
  // be recomputed); EXIT_AFTER_TICKET dies right after flushing that
  // ticket's CellDone (the result is on the wire and must NOT be
  // recomputed).
  const uint64_t CrashTicket = ticketFromEnv("DMP_SERVE_CRASH_TICKET");
  const uint64_t ExitAfterTicket = ticketFromEnv("DMP_SERVE_EXIT_AFTER_TICKET");
  // Liveness-injection hook for the watchdog tests: the worker that
  // receives this ticket wedges forever — no heartbeats, no CellDone, no
  // exit — exactly the failure mode EOF supervision cannot see.
  const uint64_t HangTicket = ticketFromEnv("DMP_SERVE_HANG_ON_TICKET");

  // One cache handle for the worker's lifetime: the shared
  // content-addressed store is what makes the service's cache warm across
  // jobs, clients, and worker generations.
  std::shared_ptr<serialize::ArtifactCache> Cache;
  if (!CacheDir.empty())
    Cache = std::make_shared<serialize::ArtifactCache>(CacheDir);

  while (true) {
    StatusOr<Frame> F = readFrame(Fd);
    if (!F.ok())
      ::_exit(F.status().code() == ErrorCode::NotFound ? 0 : 1);
    if (F->Type != MsgType::RunCell)
      ::_exit(1);

    uint64_t Ticket = 0;
    harness::CellSpec Spec;
    StatusOr<harness::CellResult> Outcome =
        Status::invariant("cell never ran", "serve::WorkerPool");
    if (Status S = decodeRunCell(F->Payload, Ticket, Spec); !S.ok()) {
      Outcome = S;
    } else {
      if (Ticket == CrashTicket)
        ::_exit(exitcode::CrashChild);
      if (Ticket == HangTicket)
        while (true)
          ::pause();
      // First beat at receipt: it starts the supervisor's silence clock at
      // "the cell is in the worker's hands" and covers the profile/select
      // stages that run before the instrumented simulation loop starts.
      (void)writeFrame(Fd, MsgType::CellProgress, encodeCellProgress(Ticket));
      auto LastBeat = std::chrono::steady_clock::now();
      Outcome = harness::runCellSpec(Spec, Cache, [&] {
        const auto Now = std::chrono::steady_clock::now();
        if (Now - LastBeat < kHeartbeatInterval)
          return;
        LastBeat = Now;
        // A dead supervisor makes this write fail; the loop's next read
        // sees the EOF and exits, so the failure is deliberately ignored.
        (void)writeFrame(Fd, MsgType::CellProgress,
                         encodeCellProgress(Ticket));
      });
    }
    if (Status S =
            writeFrame(Fd, MsgType::CellDone, encodeCellDone(Ticket, Outcome));
        !S.ok())
      ::_exit(1);
    if (Ticket == ExitAfterTicket)
      ::_exit(exitcode::CrashChild);
  }
}
