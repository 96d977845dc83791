//===- serve/WorkerPool.h - Forked cell-worker processes --------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker tier of the dmp::serve supervision tree (DESIGN.md "Service
/// architecture").  The pool forks N worker processes at construction —
/// while the daemon is still single-threaded, which is what keeps fork()
/// safe — each connected to the supervisor by a SOCK_STREAM socketpair
/// speaking the RunCell/CellDone plane of serve::Protocol.
///
/// A worker is a loop: read RunCell, execute harness::runCellSpec against
/// the shared content-addressed artifact cache (ArtifactCache is
/// multi-process safe, so every worker warms the same store), write
/// CellDone.  Workers hold no service state: one worker crashing loses at
/// most the single cell it was computing, which the supervisor detects as
/// an EOF on that worker's fd, retries on a respawned worker, and — because
/// cells are deterministic — the retried result is bit-identical.
///
/// Workers=0 selects in-process mode: no forks, the server executes cells
/// inline in its own loop.  This degrades throughput, not correctness, and
/// is what the TSan server-loop tests run (forking a multithreaded
/// sanitizer process is undefined ground).
///
/// Test hooks (each keyed on a dispatch-ticket number in an env var, all
/// deterministic): $DMP_SERVE_CRASH_TICKET makes the worker that receives
/// that ticket _exit(137) instead of computing — "worker killed mid-cell";
/// $DMP_SERVE_EXIT_AFTER_TICKET makes it _exit(137) right after flushing
/// that ticket's CellDone — "worker died with its result on the wire";
/// $DMP_SERVE_KILL_ON_DISPATCH_TICKET makes the supervisor kill and reap
/// the worker immediately before writing that ticket's RunCell — "worker
/// died under the dispatch write" (the write fails with EPIPE and the
/// pool never records the ticket); $DMP_SERVE_HANG_ON_TICKET makes the
/// worker that receives that ticket block forever without heartbeats or a
/// CellDone — "worker livelocked mid-cell", the case only the hung-worker
/// watchdog (ServerOptions::CellWallMs) can recover from.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERVE_WORKERPOOL_H
#define DMP_SERVE_WORKERPOOL_H

#include "support/Status.h"

#include <functional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace dmp::serve {

struct WorkerPoolOptions {
  /// Worker process count; 0 = in-process execution (no forks).
  unsigned Workers = 2;
  /// Artifact-cache root shared by every worker ("" runs every cell
  /// uncached).
  std::string CacheDir;
  /// Runs in each freshly forked child before the worker loop starts; the
  /// server registers a closure here that closes its listen/client fds so
  /// a worker never holds a connection open past the server's death.
  std::function<void()> InChild;
};

class WorkerPool {
public:
  explicit WorkerPool(WorkerPoolOptions Options);
  /// Closes every supervisor-side fd (workers see EOF and exit cleanly)
  /// and reaps the children.
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  unsigned size() const { return static_cast<unsigned>(Slots.size()); }
  bool inProcess() const { return Slots.empty(); }
  const WorkerPoolOptions &options() const { return Options; }

  /// Installs the child-side fd hygiene hook used by later respawns (the
  /// server registers its close-everything closure once it exists; the
  /// initial workers predate the server, so they have nothing to close).
  void setInChild(std::function<void()> Fn) {
    Options.InChild = std::move(Fn);
  }

  /// Live worker pids, for tests that kill one.
  std::vector<pid_t> pids() const;

  /// Supervisor-side fd of worker \p W (for the server's poll set), or -1
  /// if that slot is dead.
  int fd(unsigned W) const { return Slots[W].Fd; }
  bool busy(unsigned W) const { return Slots[W].Busy; }
  bool hasTicket(unsigned W) const { return Slots[W].HasTicket; }
  uint64_t ticket(unsigned W) const { return Slots[W].Ticket; }

  /// Sends RunCell(\p Ticket, \p SpecPayload frame bytes pre-encoded by the
  /// caller) to worker \p W and marks it busy.
  Status dispatch(unsigned W, uint64_t Ticket,
                  const std::vector<uint8_t> &RunCellPayload);

  /// Marks worker \p W idle after its CellDone arrived.
  void complete(unsigned W);

  /// Handles a dead worker: closes the fd, reaps the child, forks a
  /// replacement (running Options.InChild in it), and returns the ticket
  /// the worker was holding, if any, so the supervisor can retry that
  /// cell.  \p Respawn=false (drain path) only reaps.
  struct CrashReport {
    bool HadTicket = false;
    uint64_t Ticket = 0;
  };
  CrashReport onWorkerDeath(unsigned W, bool Respawn);

  /// SIGKILLs worker \p W without reaping it (the hung-worker watchdog's
  /// hammer).  The caller follows up with onWorkerDeath(), whose waitpid
  /// completes promptly because the kill already landed.  No-op on a dead
  /// or in-process slot.
  void killWorker(unsigned W);

  /// First idle live worker, or -1 when all are busy/dead.
  int idleWorker() const;

  /// The worker-process main loop (never returns; _exit()s on EOF).  Only
  /// called in forked children; public so tests can run a worker directly
  /// over a socketpair they own.
  [[noreturn]] static void workerMain(int Fd, const std::string &CacheDir);

private:
  struct Slot {
    pid_t Pid = -1;
    int Fd = -1;
    bool Busy = false;
    bool HasTicket = false;
    uint64_t Ticket = 0;
  };

  /// Forks one worker into \p S (fresh socketpair, InChild hook, worker
  /// loop).  On fork failure the slot is left dead (Fd=-1).
  void spawn(Slot &S);

  WorkerPoolOptions Options;
  std::vector<Slot> Slots;
  /// $DMP_SERVE_KILL_ON_DISPATCH_TICKET crash-injection hook; ~0ull when
  /// unarmed, reset to ~0ull after firing once.
  uint64_t KillOnDispatchTicket = ~0ull;
};

} // namespace dmp::serve

#endif // DMP_SERVE_WORKERPOOL_H
