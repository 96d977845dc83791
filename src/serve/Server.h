//===- serve/Server.h - Campaign-service event loop -------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dmp::serve daemon core (DESIGN.md "Service architecture"): a
/// single-threaded poll() loop that owns the Unix listen socket, every
/// client connection, and the supervisor side of the WorkerPool, and
/// multiplexes them all without ever blocking on one peer.
///
/// Scheduling is fair round-robin at cell granularity: jobs with pending
/// cells sit in a rotation queue, and each dispatch takes *one* cell from
/// the front job before rotating it to the back — a client that submits
/// 100 cells cannot starve a client that submits 2.  Admission control
/// bounds concurrently active jobs (ResourceExhausted on overflow) and
/// cells per job; per-job deadlines shed still-pending cells as
/// ResourceExhausted at expiry while in-flight cells finish.
///
/// Supervision: a worker's death (EOF on its socketpair) loses only the
/// cell it was computing.  The supervisor reaps and respawns the worker
/// and retries the cell — bounded, attempt-indexed, mirroring the
/// engine's deterministic retry policy — so a crash changes neither the
/// campaign's results nor its digests.
///
/// Shutdown is a drain, in the guard:: sense: on SIGINT/SIGTERM (the
/// process CancelToken), a SHUTDOWN frame, or requestStop(), the server
/// stops accepting and dispatching, sheds pending cells as Cancelled,
/// lets in-flight cells finish, flushes every reply, and returns from
/// run().  Malformed client input is answered with Error(Corrupt) and
/// never takes the service down (see serve/Protocol.h for the exact
/// framing contract).
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERVE_SERVER_H
#define DMP_SERVE_SERVER_H

#include "guard/Guard.h"
#include "serialize/Hash.h"
#include "serve/Protocol.h"
#include "serve/WorkerPool.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <string>

namespace dmp::serialize {
class ArtifactCache;
}

namespace dmp::serve {

class JobStore;

struct ServerOptions {
  std::string SocketPath;
  /// Admission bound: SUBMITs beyond this many concurrently active
  /// (queued or running) jobs are rejected with ResourceExhausted.
  unsigned MaxActiveJobs = 64;
  /// Admission bound on cells per job (the protocol has its own, higher,
  /// hard cap).
  unsigned MaxCellsPerJob = 256;
  /// Total dispatch attempts per cell across worker crashes.
  unsigned CellAttempts = 3;
  /// Checkpoint accepted jobs and per-cell progress to the worker pool's
  /// cache dir (serve::JobStore) so a restarted daemon resumes them.  A
  /// no-op when the pool runs uncached: durability needs a disk.
  bool DurableJobs = true;
  /// When false, one-line operational logs go to stderr.
  bool Quiet = true;

  // --- Liveness & overload budgets (DESIGN.md "Liveness & overload") ---

  /// Hung-worker watchdog: a busy worker silent (no CELL_PROGRESS
  /// heartbeat, no CellDone) for longer than this is SIGKILLed and its
  /// cell retried on a respawned worker.  This is a *silence* budget, not
  /// a total-runtime cap — a slow cell that keeps beating never trips it.
  /// Must exceed the longest uninstrumented stage (profiling/selection run
  /// between the receipt beat and the first simulation beat).  0 disables;
  /// meaningless in in-process mode (Workers=0).
  unsigned CellWallMs = 0;
  /// Accept cap: at this many live connections a new accept sheds the
  /// oldest idle connection (no queued output) to make room, or is refused
  /// when every connection is mid-service.
  unsigned MaxConns = 64;
  /// Anti-slowloris: a connection holding an incomplete frame for longer
  /// than this is dropped.  0 disables.
  unsigned ReadDeadlineMs = 5000;
  /// A connection with no inbound traffic for longer than this is
  /// dropped (it can always reconnect).  0 disables.
  unsigned IdleTimeoutMs = 120'000;
  /// Outbound buffering bound per connection: a consumer that lets more
  /// than this many bytes queue is disconnected instead of buffered
  /// unboundedly.  0 disables.
  size_t MaxConnOutBytes = 4u << 20;
  /// Server-wide pending-cell budget: a SUBMIT that would push the total
  /// count of not-yet-finished cells past this is shed with
  /// ResourceExhausted + a retry-after hint.  0 disables.
  unsigned MaxQueuedCells = 4096;
  /// Base of the brownout retry-after-ms hint attached to transient
  /// admission sheds (queue-full / cell-budget): the actual hint scales
  /// with load.  0 sends no hint (clients then treat the shed as final).
  unsigned RetryAfterMs = 100;
};

class Server {
public:
  /// \p Drain is polled every loop iteration; null means
  /// guard::processToken() (the SIGINT/SIGTERM token).
  Server(ServerOptions Options, WorkerPool &Pool,
         const guard::CancelToken *Drain = nullptr);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on Options.SocketPath (unlinking a stale socket)
  /// and registers the child-fd hygiene hook with the pool.
  Status listen();

  /// Runs the event loop until a drain completes.  Returns Ok after a
  /// clean drain (signal, SHUTDOWN frame, or requestStop), or the error
  /// that stopped the loop.
  Status run();

  /// Trips the internal stop pipe from any thread (in-process tests).
  void requestStop();

  const ServerOptions &options() const { return Opts; }

  /// The per-boot epoch PONG carries (nonzero, unique per Server
  /// instance): a client that sees it change knows the daemon restarted.
  uint64_t epoch() const { return Epoch; }

  /// Loop accounting, readable from other threads while run() spins.
  struct Counters {
    uint64_t ConnectionsAccepted = 0;
    uint64_t JobsAccepted = 0;
    uint64_t JobsRejected = 0;
    uint64_t JobsDeduped = 0;
    uint64_t JobsRecovered = 0;
    uint64_t CellsDispatched = 0;
    uint64_t CellsCompleted = 0;
    uint64_t CellsFailed = 0;
    uint64_t CellsRetried = 0;
    uint64_t CellsResumed = 0;
    uint64_t WorkerCrashes = 0;
    uint64_t ProtocolErrors = 0;
    uint64_t Checkpoints = 0;
    // Liveness & overload accounting: every shed and every kill the
    // budgets above cause is visible here (and in the drain log footer).
    uint64_t WorkersHung = 0;       ///< watchdog SIGKILLs
    uint64_t Heartbeats = 0;        ///< CELL_PROGRESS frames received
    uint64_t ReadTimeouts = 0;      ///< conns dropped mid-frame (slowloris)
    uint64_t IdleDrops = 0;         ///< conns dropped by the idle timeout
    uint64_t SlowConsumerDrops = 0; ///< conns dropped over the out budget
    uint64_t ConnsShed = 0;         ///< idle conns shed for accept room
    uint64_t ConnsRefused = 0;      ///< accepts refused (no shed victim)
    uint64_t AcceptErrors = 0;      ///< persistent accept() failures
  };
  Counters counters() const;

private:
  enum class CellPhase : uint8_t { Pending, Running, Done };

  struct CellState {
    harness::CellSpec Spec;
    CellPhase Phase = CellPhase::Pending;
    StatusOr<harness::CellResult> Result;
    unsigned Attempts = 0;
  };

  struct Job {
    uint64_t Id = 0;
    uint64_t Seq = 0; ///< GC order for finished-but-unfetched jobs.
    std::vector<CellState> Cells;
    /// Idempotency key (serve::requestKey of the creating SUBMIT): the
    /// dedup-map entry and, for durable jobs, the record's cache address.
    serialize::Digest ReqKey;
    /// The submit's deadline budget, kept to rebuild the durable record.
    double ReqDeadlineSeconds = 0.0;
    bool Durable = false;
    /// Submits this job answers that have not been acked yet: the creating
    /// submit plus one per deduped submit (a recovered job starts at 0,
    /// until its client's resubmit dedups onto it).  Only the last ack
    /// forgets the job, so one client's ack cannot drop it for another.
    unsigned Submitters = 1;
    bool Fetched = false;
    bool Cancelled = false;
    bool InQueue = false;
    bool HasDeadline = false;
    std::chrono::steady_clock::time_point Deadline;

    bool hasPending() const;
    bool finished() const;
    JobState state() const;
  };

  struct Conn {
    int Fd = -1;
    FrameDecoder In;
    std::vector<uint8_t> Out;
    size_t OutPos = 0;
    bool CloseAfterFlush = false;
    /// Last time bytes arrived from this peer (the idle-timeout clock and
    /// the shed-victim ordering key).
    std::chrono::steady_clock::time_point LastActivity;
    /// Set while In holds an incomplete frame; ReadStart is when the
    /// partial frame started (the anti-slowloris clock).
    bool MidRead = false;
    std::chrono::steady_clock::time_point ReadStart;
  };

  void beginDrain(const char *Why);
  bool drainComplete() const;
  int pollTimeoutMs() const;

  void acceptClients();
  void readConn(int Fd);
  void handleFrame(Conn &C, const Frame &F);
  void queueFrame(Conn &C, MsgType Type,
                  const std::vector<uint8_t> &Payload);
  /// \p RetryAfterMs attaches the brownout hint to the Error payload
  /// (0 = no hint; see ServerOptions::RetryAfterMs).
  void sendError(Conn &C, const Status &S, uint32_t RetryAfterMs = 0);
  void flushConn(Conn &C);
  void dropConn(int Fd);
  /// Sweeps connection budgets: read deadline on partial frames, idle
  /// timeout, and fully-flushed CloseAfterFlush corpses.
  void expireConns();
  /// Drops the oldest connection with no queued output to make accept
  /// room; false when every connection is mid-service.  \p Why labels the
  /// log line.
  bool shedIdleConn(const char *Why);
  /// Every hygiene-initiated disconnect, for the PONG load snapshot.
  uint64_t connsShedTotal() const;
  /// The load-scaled brownout hint for a transient admission shed.
  uint32_t retryAfterHintMs() const;
  /// Not-yet-finished cells across all jobs (the MaxQueuedCells ruler).
  uint64_t pendingCells() const;

  void readWorker(unsigned W);
  /// Records a worker's CellDone; false means the frame was not a valid
  /// CellDone or CellProgress (the caller treats the worker as crashed).
  bool onCellDone(unsigned W, const Frame &F);
  void handleWorkerCrash(unsigned W);
  /// The hung-worker watchdog: SIGKILLs any busy worker whose heartbeat
  /// silence exceeds Opts.CellWallMs, then routes it through the crash
  /// path (reap, respawn, digest-identical retry).
  void checkWorkerLiveness();
  void recordOutcome(Job &J, size_t CellIdx,
                     StatusOr<harness::CellResult> Outcome);

  void dispatch();
  Job *nextRRJob();
  void enqueueRR(Job &J, bool Front = false);
  void expireDeadlines();
  void gcFinishedJobs();
  uint64_t activeJobs() const;
  Job *findJob(uint64_t Id);
  void cancelPendingCells(Job &J, const Status &Shed);
  void closeInheritedFdsInChild() const;
  void log(const std::string &Line) const;

  /// Rewrites \p J's durable record (request + every completed cell
  /// outcome).  Survivable on failure: the job keeps running in memory.
  void checkpointJob(Job &J);
  /// Rebuilds in-memory jobs from every indexed (accepted-but-unacked)
  /// record the previous boot left in the job store.
  void recoverJobs();
  /// Erases \p Id from Jobs and the dedup map (not from the job store).
  void forgetJob(uint64_t Id);

  ServerOptions Opts;
  WorkerPool &Pool;
  const guard::CancelToken *Drain;

  int ListenFd = -1;
  int StopPipe[2] = {-1, -1};
  bool Draining = false;

  std::map<int, Conn> Conns;
  std::map<uint64_t, Job> Jobs;
  std::deque<uint64_t> RR;
  /// Dispatch ticket -> (job, cell index).
  std::map<uint64_t, std::pair<uint64_t, size_t>> Tickets;
  std::vector<FrameDecoder> WorkerIn;
  /// Per-worker last-heartbeat time: set at dispatch, refreshed by every
  /// CELL_PROGRESS, read by checkWorkerLiveness().
  std::vector<std::chrono::steady_clock::time_point> WorkerBeat;
  uint64_t NextJob = 1;
  uint64_t NextSeq = 0;
  uint64_t NextTicket = 0;
  uint64_t Epoch = 0;

  /// Idempotency map: hex(request key) -> live job id.  Every job is in
  /// here (dedup works even uncached); durable jobs also have a record in
  /// the store.
  std::map<std::string, uint64_t> ActiveByKey;
  /// Durable job records + the cache they live in (null when the pool
  /// runs uncached or DurableJobs is off).
  std::shared_ptr<serialize::ArtifactCache> StoreCache;
  std::unique_ptr<JobStore> Store;

  /// In-process execution cache (Workers=0 mode only).
  std::shared_ptr<serialize::ArtifactCache> InProcCache;
  bool InProcCacheReady = false;

  // Counters are atomics so tests can read them from another thread while
  // the loop runs.
  std::atomic<uint64_t> CtrConns{0}, CtrJobsAccepted{0}, CtrJobsRejected{0},
      CtrDeduped{0}, CtrRecovered{0}, CtrDispatched{0}, CtrCompleted{0},
      CtrFailed{0}, CtrRetried{0}, CtrResumed{0}, CtrCrashes{0},
      CtrProtocolErrors{0}, CtrCheckpoints{0}, CtrWorkersHung{0},
      CtrHeartbeats{0}, CtrReadTimeouts{0}, CtrIdleDrops{0},
      CtrSlowConsumerDrops{0}, CtrConnsShed{0}, CtrConnsRefused{0},
      CtrAcceptErrors{0};
};

} // namespace dmp::serve

#endif // DMP_SERVE_SERVER_H
