//===- tools/dmp_served.cpp - The campaign-service daemon -----------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Long-lived campaign service: owns the content-addressed artifact cache
// and a pool of forked worker processes, and accepts campaign submissions
// from `dmpc --remote` over a Unix socket (see DESIGN.md "Service
// architecture" and serve/Protocol.h for the wire format).
//
// Usage:
//   dmp_served --socket=PATH [options]
//
// Options:
//   --socket=PATH        Unix socket to listen on (required)
//   --workers=N          worker processes (default 2; 0 = in-process)
//   --cache-dir=DIR      artifact cache shared by all workers (default
//                        $DMP_CACHE_DIR or .dmp-cache)
//   --no-cache           run every cell uncached
//   --max-jobs=N         admission bound on concurrently active jobs
//                        (default 64); over-limit SUBMITs are rejected
//                        with ResourceExhausted
//   --max-cells=N        admission bound on cells per job (default 256)
//   --cell-attempts=N    dispatch attempts per cell across worker crashes
//                        (default 3)
//   --cell-wall-ms=N     hung-worker watchdog: a busy worker silent (no
//                        CELL_PROGRESS heartbeat) for N ms is SIGKILLed
//                        and its cell retried (default 0 = off)
//   --max-conns=N        accept cap; at the limit new connects shed the
//                        oldest idle connection or are refused (default 64)
//   --no-durable         do not checkpoint jobs to the cache; a restart
//                        forgets all in-flight work (pre-recovery behavior)
//   --quiet              suppress the per-event log lines
//
// Shutdown: SIGINT and SIGTERM both drain gracefully — stop accepting,
// shed pending cells, let in-flight cells finish, flush replies — and then
// exit 130 (SIGINT) or 143 (SIGTERM), so process supervisors can tell an
// operator interrupt from a managed stop.  A SHUTDOWN frame drains the
// same way and exits 0.
//
//===----------------------------------------------------------------------===//

#include "guard/Guard.h"
#include "harness/Engine.h"
#include "serve/Server.h"
#include "serve/WorkerPool.h"
#include "support/ExitCodes.h"
#include "support/StringUtils.h"

#include <csignal>
#include <cstdio>
#include <cstring>

using namespace dmp;

namespace {

struct DaemonOptions {
  std::string Socket;
  unsigned Workers = 2;
  std::string CacheDir = harness::EngineOptions::defaultCacheDir();
  bool UseCache = true;
  unsigned MaxJobs = 64;
  unsigned MaxCells = 256;
  unsigned CellAttempts = 3;
  unsigned CellWallMs = 0;
  unsigned MaxConns = 64;
  bool Durable = true;
  bool Quiet = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: dmp_served --socket=PATH [--workers=N] "
               "[--cache-dir=DIR] [--no-cache] [--max-jobs=N] "
               "[--max-cells=N] [--cell-attempts=N] [--cell-wall-ms=N] "
               "[--max-conns=N] [--no-durable] [--quiet]\n");
}

bool parseArgs(int Argc, char **Argv, DaemonOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    uint64_t U = 0;
    if (Arg.rfind("--socket=", 0) == 0) {
      Opts.Socket = Arg.substr(9);
    } else if (Arg.rfind("--workers=", 0) == 0) {
      if (!parseU64(Arg.substr(10), U) || U > 64) {
        std::fprintf(stderr, "error: invalid --workers value '%s'\n",
                     Arg.c_str() + 10);
        return false;
      }
      Opts.Workers = static_cast<unsigned>(U);
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Opts.CacheDir = Arg.substr(12);
      if (Opts.CacheDir.empty()) {
        std::fprintf(stderr, "error: empty --cache-dir value\n");
        return false;
      }
    } else if (Arg == "--no-cache") {
      Opts.UseCache = false;
    } else if (Arg.rfind("--max-jobs=", 0) == 0) {
      if (!parseU64(Arg.substr(11), U) || U == 0 || U > 100'000) {
        std::fprintf(stderr, "error: invalid --max-jobs value '%s'\n",
                     Arg.c_str() + 11);
        return false;
      }
      Opts.MaxJobs = static_cast<unsigned>(U);
    } else if (Arg.rfind("--max-cells=", 0) == 0) {
      if (!parseU64(Arg.substr(12), U) || U == 0 ||
          U > serve::kMaxCellsPerSubmit) {
        std::fprintf(stderr, "error: invalid --max-cells value '%s'\n",
                     Arg.c_str() + 12);
        return false;
      }
      Opts.MaxCells = static_cast<unsigned>(U);
    } else if (Arg.rfind("--cell-attempts=", 0) == 0) {
      if (!parseU64(Arg.substr(16), U) || U == 0 || U > 100) {
        std::fprintf(stderr, "error: invalid --cell-attempts value '%s'\n",
                     Arg.c_str() + 16);
        return false;
      }
      Opts.CellAttempts = static_cast<unsigned>(U);
    } else if (Arg.rfind("--cell-wall-ms=", 0) == 0) {
      if (!parseU64(Arg.substr(15), U) || U > 86'400'000) {
        std::fprintf(stderr, "error: invalid --cell-wall-ms value '%s'\n",
                     Arg.c_str() + 15);
        return false;
      }
      Opts.CellWallMs = static_cast<unsigned>(U);
    } else if (Arg.rfind("--max-conns=", 0) == 0) {
      if (!parseU64(Arg.substr(12), U) || U == 0 || U > 100'000) {
        std::fprintf(stderr, "error: invalid --max-conns value '%s'\n",
                     Arg.c_str() + 12);
        return false;
      }
      Opts.MaxConns = static_cast<unsigned>(U);
    } else if (Arg == "--no-durable") {
      Opts.Durable = false;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", Arg.c_str());
      return false;
    }
  }
  return !Opts.Socket.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return exitcode::Usage;
  }

  // Fork the workers BEFORE arming signal handlers: a worker must not
  // inherit the supervisor's drain semantics (it ignores SIGINT itself and
  // is drained by its socketpair closing).
  serve::WorkerPoolOptions PoolOpts;
  PoolOpts.Workers = Opts.Workers;
  PoolOpts.CacheDir = Opts.CacheDir;
  PoolOpts.UseCache = Opts.UseCache;
  serve::WorkerPool Pool(PoolOpts);

  guard::installSignalHandlers();

  serve::ServerOptions ServerOpts;
  ServerOpts.SocketPath = Opts.Socket;
  ServerOpts.MaxActiveJobs = Opts.MaxJobs;
  ServerOpts.MaxCellsPerJob = Opts.MaxCells;
  ServerOpts.CellAttempts = Opts.CellAttempts;
  ServerOpts.CellWallMs = Opts.CellWallMs;
  ServerOpts.MaxConns = Opts.MaxConns;
  ServerOpts.DurableJobs = Opts.Durable;
  ServerOpts.Quiet = Opts.Quiet;
  serve::Server Server(std::move(ServerOpts), Pool);

  if (Status S = Server.listen(); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return exitcode::Failure;
  }
  // The readiness line scripts wait for before connecting.
  std::printf("dmp_served: listening on %s (%u workers, cache %s)\n",
              Opts.Socket.c_str(), Pool.size(),
              Opts.UseCache ? Opts.CacheDir.c_str() : "off");
  std::fflush(stdout);

  const Status Run = Server.run();

  const serve::Server::Counters C = Server.counters();
  std::fprintf(stderr,
               "[serve] conns=%llu jobs=%llu rejected=%llu deduped=%llu "
               "recovered=%llu dispatched=%llu completed=%llu failed=%llu "
               "retried=%llu resumed=%llu crashes=%llu protocol-errors=%llu "
               "checkpoints=%llu hung=%llu heartbeats=%llu "
               "read-timeouts=%llu idle-drops=%llu slow-drops=%llu "
               "shed=%llu refused=%llu accept-errors=%llu\n",
               static_cast<unsigned long long>(C.ConnectionsAccepted),
               static_cast<unsigned long long>(C.JobsAccepted),
               static_cast<unsigned long long>(C.JobsRejected),
               static_cast<unsigned long long>(C.JobsDeduped),
               static_cast<unsigned long long>(C.JobsRecovered),
               static_cast<unsigned long long>(C.CellsDispatched),
               static_cast<unsigned long long>(C.CellsCompleted),
               static_cast<unsigned long long>(C.CellsFailed),
               static_cast<unsigned long long>(C.CellsRetried),
               static_cast<unsigned long long>(C.CellsResumed),
               static_cast<unsigned long long>(C.WorkerCrashes),
               static_cast<unsigned long long>(C.ProtocolErrors),
               static_cast<unsigned long long>(C.Checkpoints),
               static_cast<unsigned long long>(C.WorkersHung),
               static_cast<unsigned long long>(C.Heartbeats),
               static_cast<unsigned long long>(C.ReadTimeouts),
               static_cast<unsigned long long>(C.IdleDrops),
               static_cast<unsigned long long>(C.SlowConsumerDrops),
               static_cast<unsigned long long>(C.ConnsShed),
               static_cast<unsigned long long>(C.ConnsRefused),
               static_cast<unsigned long long>(C.AcceptErrors));

  if (!Run.ok()) {
    std::fprintf(stderr, "error: %s\n", Run.toString().c_str());
    return exitcode::Failure;
  }
  // A signal-initiated drain reports which signal: 130 for SIGINT, 143 for
  // SIGTERM (exitcode::Terminated), per the supervisor convention.
  if (guard::interrupted())
    return guard::lastSignal() == SIGTERM ? exitcode::Terminated
                                          : exitcode::Interrupted;
  return exitcode::Ok;
}
