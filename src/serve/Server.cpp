//===- serve/Server.cpp - Campaign-service event loop ---------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serialize/ArtifactCache.h"
#include "serve/JobStore.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace dmp;
using namespace dmp::serve;

namespace {

void setNonBlocking(int Fd) {
  const int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

void setCloexec(int Fd) {
  const int Flags = ::fcntl(Fd, F_GETFD, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFD, Flags | FD_CLOEXEC);
}

} // namespace

bool Server::Job::hasPending() const {
  for (const CellState &C : Cells)
    if (C.Phase == CellPhase::Pending)
      return true;
  return false;
}

bool Server::Job::finished() const {
  for (const CellState &C : Cells)
    if (C.Phase != CellPhase::Done)
      return false;
  return true;
}

JobState Server::Job::state() const {
  if (finished())
    return Cancelled ? JobState::Cancelled : JobState::Done;
  for (const CellState &C : Cells)
    if (C.Phase != CellPhase::Pending)
      return JobState::Running;
  return JobState::Queued;
}

Server::Server(ServerOptions Options, WorkerPool &Pool,
               const guard::CancelToken *Drain)
    : Opts(std::move(Options)), Pool(Pool),
      Drain(Drain ? Drain : &guard::processToken()) {
  WorkerIn.resize(Pool.size());
  WorkerBeat.resize(Pool.size());
  // The per-boot epoch: any nonzero value that never repeats across
  // restarts (or across two Servers in one test process) does the job —
  // clients only ever compare epochs for equality.
  serialize::Hasher H;
  H.updateU64(static_cast<uint64_t>(::getpid()));
  H.updateU64(static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count()));
  H.updateU64(static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count()));
  H.updateU64(reinterpret_cast<uintptr_t>(this));
  const serialize::Digest D = H.finish();
  for (int I = 0; I < 8; ++I)
    Epoch |= uint64_t(D.Bytes[I]) << (8 * I);
  if (Epoch == 0)
    Epoch = 1;
}

Server::~Server() {
  for (auto &[Fd, C] : Conns)
    ::close(Fd);
  Conns.clear();
  if (ListenFd != -1) {
    ::close(ListenFd);
    ::unlink(Opts.SocketPath.c_str());
  }
  if (StopPipe[0] != -1)
    ::close(StopPipe[0]);
  if (StopPipe[1] != -1)
    ::close(StopPipe[1]);
}

void Server::closeInheritedFdsInChild() const {
  // Runs in a freshly forked worker: drop every server-side fd the child
  // inherited so a client connection is never held open by a worker that
  // outlives the daemon.
  if (ListenFd != -1)
    ::close(ListenFd);
  if (StopPipe[0] != -1)
    ::close(StopPipe[0]);
  if (StopPipe[1] != -1)
    ::close(StopPipe[1]);
  for (const auto &[Fd, C] : Conns)
    ::close(Fd);
}

Status Server::listen() {
  if (Opts.SocketPath.empty())
    return Status::invariant("server socket path is empty", "serve::Server");
  ::signal(SIGPIPE, SIG_IGN);

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
    return Status::invariant(
        "socket path too long: " + std::to_string(Opts.SocketPath.size()) +
            " bytes exceeds the AF_UNIX sun_path limit of " +
            std::to_string(sizeof(Addr.sun_path) - 1) + " (" +
            Opts.SocketPath + ")",
        "serve::Server");
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  const int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return Status::transient(std::string("socket(): ") + std::strerror(errno),
                             "serve::Server");
  setCloexec(Fd);
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    const Status S = Status::transient(std::string("bind(") + Opts.SocketPath +
                                           "): " + std::strerror(errno),
                                       "serve::Server");
    ::close(Fd);
    return S;
  }
  if (::listen(Fd, 64) != 0) {
    const Status S = Status::transient(
        std::string("listen(): ") + std::strerror(errno), "serve::Server");
    ::close(Fd);
    ::unlink(Opts.SocketPath.c_str());
    return S;
  }
  setNonBlocking(Fd);
  ListenFd = Fd;

  if (::pipe(StopPipe) != 0) {
    StopPipe[0] = StopPipe[1] = -1;
  } else {
    setNonBlocking(StopPipe[0]);
    setNonBlocking(StopPipe[1]);
    setCloexec(StopPipe[0]);
    setCloexec(StopPipe[1]);
  }

  Pool.setInChild([this] { closeInheritedFdsInChild(); });

  // Durability rides on the pool's cache dir; uncached pools run exactly
  // as before (in-memory jobs only).
  const WorkerPoolOptions &PO = Pool.options();
  if (Opts.DurableJobs && PO.UseCache && !PO.CacheDir.empty()) {
    StoreCache = std::make_shared<serialize::ArtifactCache>(PO.CacheDir);
    Store = std::make_unique<JobStore>(StoreCache);
    recoverJobs();
  }
  return Status();
}

void Server::requestStop() {
  if (StopPipe[1] != -1) {
    const uint8_t Byte = 1;
    [[maybe_unused]] ssize_t N = ::write(StopPipe[1], &Byte, 1);
  }
}

Server::Counters Server::counters() const {
  Counters C;
  C.ConnectionsAccepted = CtrConns.load(std::memory_order_relaxed);
  C.JobsAccepted = CtrJobsAccepted.load(std::memory_order_relaxed);
  C.JobsRejected = CtrJobsRejected.load(std::memory_order_relaxed);
  C.JobsDeduped = CtrDeduped.load(std::memory_order_relaxed);
  C.JobsRecovered = CtrRecovered.load(std::memory_order_relaxed);
  C.CellsDispatched = CtrDispatched.load(std::memory_order_relaxed);
  C.CellsCompleted = CtrCompleted.load(std::memory_order_relaxed);
  C.CellsFailed = CtrFailed.load(std::memory_order_relaxed);
  C.CellsRetried = CtrRetried.load(std::memory_order_relaxed);
  C.CellsResumed = CtrResumed.load(std::memory_order_relaxed);
  C.WorkerCrashes = CtrCrashes.load(std::memory_order_relaxed);
  C.ProtocolErrors = CtrProtocolErrors.load(std::memory_order_relaxed);
  C.Checkpoints = CtrCheckpoints.load(std::memory_order_relaxed);
  C.WorkersHung = CtrWorkersHung.load(std::memory_order_relaxed);
  C.Heartbeats = CtrHeartbeats.load(std::memory_order_relaxed);
  C.ReadTimeouts = CtrReadTimeouts.load(std::memory_order_relaxed);
  C.IdleDrops = CtrIdleDrops.load(std::memory_order_relaxed);
  C.SlowConsumerDrops = CtrSlowConsumerDrops.load(std::memory_order_relaxed);
  C.ConnsShed = CtrConnsShed.load(std::memory_order_relaxed);
  C.ConnsRefused = CtrConnsRefused.load(std::memory_order_relaxed);
  C.AcceptErrors = CtrAcceptErrors.load(std::memory_order_relaxed);
  return C;
}

void Server::log(const std::string &Line) const {
  if (!Opts.Quiet)
    std::fprintf(stderr, "dmp_served: %s\n", Line.c_str());
}

// --- Drain --------------------------------------------------------------

void Server::beginDrain(const char *Why) {
  if (Draining)
    return;
  Draining = true;
  log(std::string("draining (") + Why + ")");
  // Stop accepting: close and unlink the listen socket now so new clients
  // get ECONNREFUSED instead of a hang.
  if (ListenFd != -1) {
    ::close(ListenFd);
    ::unlink(Opts.SocketPath.c_str());
    ListenFd = -1;
  }
  // Shed every still-pending cell; in-flight cells finish.
  const Status Shed = Status::cancelled("server draining", "serve::Server");
  for (auto &[Id, J] : Jobs)
    cancelPendingCells(J, Shed);
  RR.clear();
  for (auto &[Id, J] : Jobs)
    J.InQueue = false;
}

bool Server::drainComplete() const {
  if (!Draining)
    return false;
  if (!Tickets.empty())
    return false;
  for (const auto &[Fd, C] : Conns)
    if (C.OutPos < C.Out.size())
      return false;
  return true;
}

// --- Jobs ---------------------------------------------------------------

Server::Job *Server::findJob(uint64_t Id) {
  auto It = Jobs.find(Id);
  return It == Jobs.end() ? nullptr : &It->second;
}

void Server::forgetJob(uint64_t Id) {
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return;
  auto Key = ActiveByKey.find(It->second.ReqKey.hex());
  if (Key != ActiveByKey.end() && Key->second == Id)
    ActiveByKey.erase(Key);
  Jobs.erase(It);
}

void Server::checkpointJob(Job &J) {
  if (!Store || !J.Durable)
    return;
  JobRecord Record;
  Record.Request.DeadlineSeconds = J.ReqDeadlineSeconds;
  Record.Request.Cells.reserve(J.Cells.size());
  Record.Outcomes.reserve(J.Cells.size());
  for (const CellState &C : J.Cells) {
    Record.Request.Cells.push_back(C.Spec);
    // Persist only deterministic-permanent outcomes: a successful result,
    // or a failure no retry can change (Invariant/NotFound/Corrupt).
    // Cancelled / Transient / ResourceExhausted cells restart from scratch
    // on resume — a drain-shed cell must run again after the restart, not
    // replay its shed status.
    const ErrorCode Code = C.Result.status().code();
    const bool Permanent =
        C.Phase == CellPhase::Done &&
        (C.Result.ok() || Code == ErrorCode::Invariant ||
         Code == ErrorCode::NotFound || Code == ErrorCode::Corrupt);
    if (Permanent)
      Record.Outcomes.emplace_back(C.Result);
    else
      Record.Outcomes.emplace_back();
  }
  if (Status S = Store->checkpoint(J.ReqKey, Record); !S.ok())
    log("checkpoint of job " + std::to_string(J.Id) + " failed: " +
        S.toString());
  else
    CtrCheckpoints.fetch_add(1, std::memory_order_relaxed);
}

void Server::recoverJobs() {
  if (!Store)
    return;
  for (const serialize::Digest &Key : Store->indexed()) {
    StatusOr<JobRecord> Record = Store->load(Key);
    if (!Record.ok() || Record->Acked) {
      // Gone or already consumed: nothing is owed under this key.  A
      // corrupt record is dropped the same way — resubmission heals it.
      if (Status S = Store->removeFromIndex(Key); !S.ok())
        log("index cleanup failed: " + S.toString());
      continue;
    }
    const uint64_t Id = NextJob++;
    Job &J = Jobs[Id];
    J.Id = Id;
    J.Seq = NextSeq++;
    J.ReqKey = Key;
    J.ReqDeadlineSeconds = Record->Request.DeadlineSeconds;
    J.Durable = true;
    J.Submitters = 0;
    J.Cells.resize(Record->Request.Cells.size());
    uint64_t Resumed = 0;
    for (size_t I = 0; I < J.Cells.size(); ++I) {
      J.Cells[I].Spec = std::move(Record->Request.Cells[I]);
      if (I < Record->Outcomes.size() && Record->Outcomes[I]) {
        J.Cells[I].Phase = CellPhase::Done;
        J.Cells[I].Result = std::move(*Record->Outcomes[I]);
        ++Resumed;
      }
    }
    if (J.ReqDeadlineSeconds > 0) {
      // The deadline budget restarts at recovery: wall-clock spent under a
      // dead daemon should not forfeit the job.
      J.HasDeadline = true;
      J.Deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(J.ReqDeadlineSeconds));
    }
    ActiveByKey[Key.hex()] = Id;
    CtrRecovered.fetch_add(1, std::memory_order_relaxed);
    CtrResumed.fetch_add(Resumed, std::memory_order_relaxed);
    enqueueRR(J);
    log("job " + std::to_string(Id) + " recovered from checkpoint (" +
        std::to_string(Resumed) + " of " + std::to_string(J.Cells.size()) +
        " cells already done)");
  }
}

uint64_t Server::activeJobs() const {
  uint64_t N = 0;
  for (const auto &[Id, J] : Jobs)
    if (!J.finished())
      ++N;
  return N;
}

uint64_t Server::pendingCells() const {
  uint64_t N = 0;
  for (const auto &[Id, J] : Jobs)
    for (const CellState &C : J.Cells)
      if (C.Phase != CellPhase::Done)
        ++N;
  return N;
}

uint32_t Server::retryAfterHintMs() const {
  if (Opts.RetryAfterMs == 0)
    return 0;
  // Scale the base hint with saturation depth so a client's backoff grows
  // as the backlog does; deterministic given the load, capped at 8x base.
  const uint64_t Limit = Opts.MaxActiveJobs ? Opts.MaxActiveJobs : 1;
  uint64_t Scale = 1 + (2 * activeJobs()) / Limit;
  if (Scale > 8)
    Scale = 8;
  return static_cast<uint32_t>(Opts.RetryAfterMs * Scale);
}

uint64_t Server::connsShedTotal() const {
  return CtrReadTimeouts.load(std::memory_order_relaxed) +
         CtrIdleDrops.load(std::memory_order_relaxed) +
         CtrSlowConsumerDrops.load(std::memory_order_relaxed) +
         CtrConnsShed.load(std::memory_order_relaxed) +
         CtrConnsRefused.load(std::memory_order_relaxed);
}

void Server::enqueueRR(Job &J, bool Front) {
  if (J.InQueue || Draining || !J.hasPending())
    return;
  if (Front)
    RR.push_front(J.Id);
  else
    RR.push_back(J.Id);
  J.InQueue = true;
}

Server::Job *Server::nextRRJob() {
  while (!RR.empty()) {
    const uint64_t Id = RR.front();
    RR.pop_front();
    Job *J = findJob(Id);
    if (!J) // acked-and-erased or GC'd while queued
      continue;
    J->InQueue = false;
    if (J->hasPending())
      return J;
  }
  return nullptr;
}

void Server::cancelPendingCells(Job &J, const Status &Shed) {
  for (CellState &C : J.Cells) {
    if (C.Phase != CellPhase::Pending)
      continue;
    C.Phase = CellPhase::Done;
    C.Result = Shed;
    CtrFailed.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::expireDeadlines() {
  const auto Now = std::chrono::steady_clock::now();
  for (auto &[Id, J] : Jobs) {
    if (!J.HasDeadline || J.finished() || Now < J.Deadline)
      continue;
    J.HasDeadline = false;
    cancelPendingCells(
        J, Status::resourceExhausted("job deadline exceeded", "serve::Server"));
    log("job " + std::to_string(Id) + " deadline expired");
  }
}

void Server::gcFinishedJobs() {
  // Finished jobs wait for FETCH + ACK (which erases them); cap the
  // backlog of never-acked jobs so an absent client cannot grow the daemon
  // forever.  Fetched-but-unacked jobs are the cheapest victims (the
  // client already has the results); among equals, oldest first.
  const size_t Cap = static_cast<size_t>(Opts.MaxActiveJobs) * 4;
  while (Jobs.size() > Cap) {
    uint64_t VictimId = 0, VictimSeq = ~0ull;
    bool VictimFetched = false;
    for (const auto &[Id, J] : Jobs) {
      if (!J.finished())
        continue;
      const bool Better = (J.Fetched && !VictimFetched) ||
                          (J.Fetched == VictimFetched && J.Seq < VictimSeq);
      if (VictimSeq == ~0ull || Better) {
        VictimSeq = J.Seq;
        VictimId = Id;
        VictimFetched = J.Fetched;
      }
    }
    if (VictimSeq == ~0ull)
      return;
    // Eviction gives up on this client: the key leaves the recovery index
    // (a restart won't resurrect the job), but the record blob stays so an
    // identical resubmit still starts from the completed cells.
    if (Job *J = findJob(VictimId); J && J->Durable && Store)
      if (Status S = Store->removeFromIndex(J->ReqKey); !S.ok())
        log("index cleanup failed: " + S.toString());
    forgetJob(VictimId);
    log("job " + std::to_string(VictimId) + " evicted unacked");
  }
}

int Server::pollTimeoutMs() const {
  if (Draining)
    return 100; // re-check drain completion promptly
  if (Pool.inProcess() && !RR.empty())
    return 0; // pending inline work: service fds, then run the next cell
  long Best = -1;
  const auto Now = std::chrono::steady_clock::now();
  const auto Consider = [&](std::chrono::steady_clock::time_point Deadline) {
    const long Ms = static_cast<long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Deadline - Now)
            .count());
    const long Clamped = Ms < 0 ? 0 : Ms + 1;
    if (Best < 0 || Clamped < Best)
      Best = Clamped;
  };
  for (const auto &[Id, J] : Jobs) {
    if (!J.HasDeadline || J.finished())
      continue;
    Consider(J.Deadline);
  }
  // The liveness budgets are deadlines too: wake in time to trip them even
  // when no fd ever becomes readable (the definition of a hang).
  if (Opts.CellWallMs && !Pool.inProcess())
    for (unsigned W = 0; W < Pool.size(); ++W)
      if (Pool.fd(W) != -1 && Pool.busy(W))
        Consider(WorkerBeat[W] + std::chrono::milliseconds(Opts.CellWallMs));
  for (const auto &[Fd, C] : Conns) {
    if (Opts.ReadDeadlineMs && C.MidRead)
      Consider(C.ReadStart + std::chrono::milliseconds(Opts.ReadDeadlineMs));
    if (Opts.IdleTimeoutMs)
      Consider(C.LastActivity +
               std::chrono::milliseconds(Opts.IdleTimeoutMs));
  }
  if (Best > 60'000)
    Best = 60'000; // bound the sleep so external token trips are noticed
  if (Best < 0)
    Best = 1000;
  return static_cast<int>(Best);
}

// --- Outcome recording and dispatch -------------------------------------

void Server::recordOutcome(Job &J, size_t CellIdx,
                           StatusOr<harness::CellResult> Outcome) {
  CellState &C = J.Cells[CellIdx];
  C.Phase = CellPhase::Done;
  if (Outcome.ok())
    CtrCompleted.fetch_add(1, std::memory_order_relaxed);
  else
    CtrFailed.fetch_add(1, std::memory_order_relaxed);
  C.Result = std::move(Outcome);
  // Every completed cell advances the durable checkpoint, so a SIGKILL at
  // any instant loses at most the cell in flight.
  checkpointJob(J);
}

void Server::dispatch() {
  if (Draining)
    return;

  if (Pool.inProcess()) {
    // Workers=0: run exactly ONE cell inline per dispatch() call, so the
    // event loop regains control between cells — cancellation, deadlines,
    // new connections, and drain are all serviced at cell granularity
    // (pollTimeoutMs() returns 0 while the rotation queue is non-empty).
    // The mode exists for correctness coverage (TSan) and tiny
    // deployments, not throughput.
    if (!InProcCacheReady) {
      InProcCacheReady = true;
      if (StoreCache) {
        // Share the job store's cache handle: one advisory-lock holder,
        // one recovery sweep, same directory either way.
        InProcCache = StoreCache;
      } else {
        const WorkerPoolOptions &PO = Pool.options();
        if (PO.UseCache && !PO.CacheDir.empty())
          InProcCache =
              std::make_shared<serialize::ArtifactCache>(PO.CacheDir);
      }
    }
    if (Job *J = nextRRJob()) {
      size_t Idx = 0;
      while (Idx < J->Cells.size() &&
             J->Cells[Idx].Phase != CellPhase::Pending)
        ++Idx;
      CellState &C = J->Cells[Idx];
      C.Phase = CellPhase::Running;
      ++C.Attempts;
      CtrDispatched.fetch_add(1, std::memory_order_relaxed);
      recordOutcome(*J, Idx, harness::runCellSpec(C.Spec, InProcCache));
      enqueueRR(*J);
    }
    return;
  }

  while (true) {
    const int W = Pool.idleWorker();
    if (W < 0)
      return;
    Job *J = nextRRJob();
    if (!J)
      return;
    size_t Idx = 0;
    while (Idx < J->Cells.size() && J->Cells[Idx].Phase != CellPhase::Pending)
      ++Idx;
    CellState &C = J->Cells[Idx];
    const uint64_t Ticket = NextTicket++;
    C.Phase = CellPhase::Running;
    ++C.Attempts;
    Tickets[Ticket] = {J->Id, Idx};
    const Status S = Pool.dispatch(static_cast<unsigned>(W), Ticket,
                                   encodeRunCell(Ticket, C.Spec));
    if (!S.ok()) {
      // The worker died under the write: the RunCell never reached it, so
      // the pool holds no ticket for this cell and handleWorkerCrash()
      // cannot undo the bookkeeping above — do it here, or the cell is
      // stuck Running forever and drain never completes.
      Tickets.erase(Ticket);
      if (C.Attempts < Opts.CellAttempts) {
        C.Phase = CellPhase::Pending;
        CtrRetried.fetch_add(1, std::memory_order_relaxed);
      } else {
        recordOutcome(*J, Idx,
                      Status::transient("worker crashed on every attempt (" +
                                            std::to_string(C.Attempts) +
                                            " of " +
                                            std::to_string(Opts.CellAttempts) +
                                            ")",
                                        "serve::Server"));
      }
      handleWorkerCrash(static_cast<unsigned>(W));
      enqueueRR(*J, /*Front=*/true);
      continue;
    }
    CtrDispatched.fetch_add(1, std::memory_order_relaxed);
    // The silence clock starts at dispatch; the worker's receipt beat and
    // every simulation-loop beat refresh it.
    WorkerBeat[static_cast<unsigned>(W)] = std::chrono::steady_clock::now();
    enqueueRR(*J);
  }
}

// --- Worker plane -------------------------------------------------------

void Server::readWorker(unsigned W) {
  const int Fd = Pool.fd(W);
  if (Fd == -1)
    return;
  uint8_t Buf[16384];
  bool Died = false;
  while (true) {
    const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0) {
      WorkerIn[W].feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0) {
      Died = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    Died = true;
    break;
  }

  Frame F;
  Status Err;
  while (true) {
    const FrameDecoder::Outcome O = WorkerIn[W].next(F, Err);
    if (O == FrameDecoder::Outcome::NeedMore)
      break;
    if (O == FrameDecoder::Outcome::Got &&
        F.Type == MsgType::CellProgress) {
      uint64_t Ticket = 0;
      if (!decodeCellProgress(F.Payload, Ticket).ok()) {
        handleWorkerCrash(W);
        return;
      }
      // A heartbeat resets the watchdog's silence clock for this worker.
      // Beats for a retired ticket (job cancelled while the cell ran) are
      // harmless: the worker is demonstrably alive either way.
      CtrHeartbeats.fetch_add(1, std::memory_order_relaxed);
      WorkerBeat[W] = std::chrono::steady_clock::now();
      continue;
    }
    if (O != FrameDecoder::Outcome::Got || !onCellDone(W, F)) {
      // A worker speaking garbage is as dead as a crashed one.
      handleWorkerCrash(W);
      return;
    }
  }
  // Reap the corpse only after draining its buffered frames: a CellDone the
  // worker flushed just before dying is a finished result, and recomputing
  // it would burn one of the cell's bounded attempts for nothing.
  if (Died)
    handleWorkerCrash(W);
}

bool Server::onCellDone(unsigned W, const Frame &F) {
  uint64_t Ticket = 0;
  StatusOr<harness::CellResult> Outcome;
  if (F.Type != MsgType::CellDone ||
      !decodeCellDone(F.Payload, Ticket, Outcome).ok())
    return false;
  Pool.complete(W);
  auto It = Tickets.find(Ticket);
  if (It == Tickets.end())
    return true; // job was cancelled+fetched or GC'd while the cell ran
  const auto [JobId, CellIdx] = It->second;
  Tickets.erase(It);
  if (Job *J = findJob(JobId))
    if (J->Cells[CellIdx].Phase == CellPhase::Running)
      recordOutcome(*J, CellIdx, std::move(Outcome));
  return true;
}

void Server::handleWorkerCrash(unsigned W) {
  const WorkerPool::CrashReport R = Pool.onWorkerDeath(W, !Draining);
  WorkerIn[W] = FrameDecoder();
  CtrCrashes.fetch_add(1, std::memory_order_relaxed);
  log("worker " + std::to_string(W) + " died" +
      (R.HadTicket ? " holding ticket " + std::to_string(R.Ticket) : ""));
  if (!R.HadTicket)
    return;
  auto It = Tickets.find(R.Ticket);
  if (It == Tickets.end())
    return;
  const auto [JobId, CellIdx] = It->second;
  Tickets.erase(It);
  Job *J = findJob(JobId);
  if (!J || J->Cells[CellIdx].Phase != CellPhase::Running)
    return;
  CellState &C = J->Cells[CellIdx];
  if (Draining) {
    recordOutcome(*J, CellIdx,
                  Status::cancelled("server draining", "serve::Server"));
    return;
  }
  if (C.Attempts < Opts.CellAttempts) {
    // Deterministic cells make the retried result bit-identical, so a
    // crash is invisible in the job's outcome.
    C.Phase = CellPhase::Pending;
    CtrRetried.fetch_add(1, std::memory_order_relaxed);
    enqueueRR(*J, /*Front=*/true);
    return;
  }
  recordOutcome(*J, CellIdx,
                Status::transient("worker crashed on every attempt (" +
                                      std::to_string(C.Attempts) + " of " +
                                      std::to_string(Opts.CellAttempts) + ")",
                                  "serve::Server"));
}

void Server::checkWorkerLiveness() {
  if (Opts.CellWallMs == 0 || Pool.inProcess())
    return;
  const auto Now = std::chrono::steady_clock::now();
  const auto Budget = std::chrono::milliseconds(Opts.CellWallMs);
  for (unsigned W = 0; W < Pool.size(); ++W) {
    if (Pool.fd(W) == -1 || !Pool.busy(W))
      continue;
    if (Now - WorkerBeat[W] <= Budget)
      continue;
    // Silent past the wall budget: only SIGKILL can reclaim a livelocked
    // worker.  The crash path reaps, respawns, and re-runs the ticket —
    // cells are deterministic, so the recovered job is digest-identical.
    CtrWorkersHung.fetch_add(1, std::memory_order_relaxed);
    log("worker " + std::to_string(W) + " hung: no heartbeat in " +
        std::to_string(Opts.CellWallMs) + " ms, killing it");
    Pool.killWorker(W);
    handleWorkerCrash(W);
  }
}

// --- Client plane -------------------------------------------------------

void Server::acceptClients() {
  while (ListenFd != -1) {
    const int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return; // backlog drained: back to poll
      if (errno == EMFILE || errno == ENFILE) {
        // Descriptor exhaustion is persistent, not transient: returning
        // silently would spin the loop on a forever-readable listen fd.
        // Count it, shed an idle connection to free a descriptor, and
        // retry; with nothing sheddable, back off to poll.
        CtrAcceptErrors.fetch_add(1, std::memory_order_relaxed);
        log(std::string("accept(): ") + std::strerror(errno));
        if (!shedIdleConn("fd pressure"))
          return;
        continue;
      }
      CtrAcceptErrors.fetch_add(1, std::memory_order_relaxed);
      log(std::string("accept(): ") + std::strerror(errno));
      return;
    }
    if (Opts.MaxConns && Conns.size() >= Opts.MaxConns &&
        !shedIdleConn("accept cap")) {
      // Over the cap with every connection mid-service: refuse the
      // newcomer rather than evict a peer we owe replies to.
      CtrConnsRefused.fetch_add(1, std::memory_order_relaxed);
      ::close(Fd);
      continue;
    }
    setNonBlocking(Fd);
    setCloexec(Fd);
    Conn C;
    C.Fd = Fd;
    C.LastActivity = std::chrono::steady_clock::now();
    Conns.emplace(Fd, std::move(C));
    CtrConns.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Server::shedIdleConn(const char *Why) {
  // Victim choice: any connection with no queued output (nothing is owed
  // to it), oldest inbound activity first.  A mid-frame (slowloris) peer
  // is deliberately a candidate — sending one byte must not buy
  // protection from shedding.
  int Victim = -1;
  std::chrono::steady_clock::time_point Oldest;
  for (const auto &[Fd, C] : Conns) {
    if (C.OutPos < C.Out.size())
      continue;
    if (Victim == -1 || C.LastActivity < Oldest) {
      Victim = Fd;
      Oldest = C.LastActivity;
    }
  }
  if (Victim == -1)
    return false;
  CtrConnsShed.fetch_add(1, std::memory_order_relaxed);
  log(std::string("shedding oldest idle connection (") + Why + ")");
  dropConn(Victim);
  return true;
}

void Server::queueFrame(Conn &C, MsgType Type,
                        const std::vector<uint8_t> &Payload) {
  if (C.CloseAfterFlush)
    return; // already condemned: don't grow the corpse
  const std::vector<uint8_t> Bytes = encodeFrame(Type, Payload);
  if (Opts.MaxConnOutBytes &&
      (C.Out.size() - C.OutPos) + Bytes.size() > Opts.MaxConnOutBytes) {
    // Slow consumer: it keeps sending requests but never reads replies.
    // Disconnect instead of buffering unboundedly — the results it was
    // owed stay fetchable on a fresh connection.
    CtrSlowConsumerDrops.fetch_add(1, std::memory_order_relaxed);
    log("disconnecting slow consumer (outbound budget exceeded)");
    C.Out.clear();
    C.OutPos = 0;
    C.CloseAfterFlush = true;
    return;
  }
  C.Out.insert(C.Out.end(), Bytes.begin(), Bytes.end());
}

void Server::sendError(Conn &C, const Status &S, uint32_t RetryAfterMs) {
  queueFrame(C, MsgType::Error, encodeStatusPayload(S, RetryAfterMs));
}

void Server::flushConn(Conn &C) {
  while (C.OutPos < C.Out.size()) {
    const ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos,
                             C.Out.size() - C.OutPos,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      // Outbound progress proves the peer is consuming: count it as
      // activity so a slowly-draining bulk reply isn't idle-dropped.
      C.LastActivity = std::chrono::steady_clock::now();
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    if (N < 0 && errno == EINTR)
      continue;
    // Peer is gone; drop everything buffered and let the poll loop reap the
    // connection on its next readable/error event.
    C.Out.clear();
    C.OutPos = 0;
    C.CloseAfterFlush = true;
    return;
  }
  C.Out.clear();
  C.OutPos = 0;
}

void Server::dropConn(int Fd) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  ::close(Fd);
  Conns.erase(It);
}

void Server::expireConns() {
  if (Conns.empty())
    return;
  const auto Now = std::chrono::steady_clock::now();
  std::vector<int> Doomed;
  for (auto &[Fd, C] : Conns) {
    if (C.CloseAfterFlush && C.OutPos >= C.Out.size()) {
      // A condemned connection with nothing left to flush may never see
      // another poll event; reap it here.
      Doomed.push_back(Fd);
      continue;
    }
    if (Opts.ReadDeadlineMs && C.MidRead &&
        Now - C.ReadStart > std::chrono::milliseconds(Opts.ReadDeadlineMs)) {
      // Anti-slowloris: a frame must finish arriving within the read
      // deadline of its first byte.
      CtrReadTimeouts.fetch_add(1, std::memory_order_relaxed);
      log("dropping connection: partial frame exceeded the read deadline");
      Doomed.push_back(Fd);
      continue;
    }
    if (Opts.IdleTimeoutMs && !C.MidRead &&
        Now - C.LastActivity >
            std::chrono::milliseconds(Opts.IdleTimeoutMs)) {
      CtrIdleDrops.fetch_add(1, std::memory_order_relaxed);
      log("dropping idle connection");
      Doomed.push_back(Fd);
    }
  }
  for (const int Fd : Doomed)
    dropConn(Fd);
}

void Server::readConn(int Fd) {
  auto It = Conns.find(Fd);
  if (It == Conns.end())
    return;
  Conn &C = It->second;

  uint8_t Buf[16384];
  bool PeerClosed = false;
  bool ReadAny = false;
  while (true) {
    const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
    if (N > 0) {
      C.In.feed(Buf, static_cast<size_t>(N));
      ReadAny = true;
      continue;
    }
    if (N == 0) {
      PeerClosed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    PeerClosed = true;
    break;
  }
  if (ReadAny)
    C.LastActivity = std::chrono::steady_clock::now();

  Frame F;
  Status Err;
  bool Closing = false;
  while (!Closing) {
    switch (C.In.next(F, Err)) {
    case FrameDecoder::Outcome::NeedMore:
      Closing = true;
      break;
    case FrameDecoder::Outcome::Got:
      handleFrame(C, F);
      // handleFrame may set CloseAfterFlush (fatal protocol error raced in
      // behind a valid frame can't, but SHUTDOWN keeps the conn usable).
      break;
    case FrameDecoder::Outcome::Skew:
      // Well-framed, wrong version or unknown type: report and keep going —
      // the stream is still in sync.
      CtrProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      sendError(C, Err);
      break;
    case FrameDecoder::Outcome::Fatal:
      // Desynchronized stream: last words, then close this connection.
      CtrProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      sendError(C, Err);
      C.CloseAfterFlush = true;
      Closing = true;
      break;
    }
  }

  // The anti-slowloris clock: starts when a partial frame begins
  // buffering, clears the moment the stream is back at a frame boundary.
  if (C.In.midFrame()) {
    if (!C.MidRead) {
      C.MidRead = true;
      C.ReadStart = std::chrono::steady_clock::now();
    }
  } else {
    C.MidRead = false;
  }

  flushConn(C);
  if (C.CloseAfterFlush && C.OutPos >= C.Out.size()) {
    dropConn(Fd);
    return;
  }
  if (PeerClosed) {
    // EOF mid-frame is a truncated frame; either way the peer is gone and
    // nothing more can be delivered.
    dropConn(Fd);
  }
}

void Server::handleFrame(Conn &C, const Frame &F) {
  switch (F.Type) {
  case MsgType::Ping: {
    // The health reply: the epoch lets a reconnecting client distinguish
    // a connection blip (same epoch, its job ids are still live) from a
    // daemon restart (new epoch, resubmit through the idempotency key).
    // The load snapshot behind it is the minimal saturation probe — how
    // busy, and how much the liveness budgets have had to shed.
    PongLoad Load;
    Load.JobsActive = activeJobs();
    Load.CellsRunning = Tickets.size();
    Load.JobsShed = CtrJobsRejected.load(std::memory_order_relaxed);
    Load.ConnsShed = connsShedTotal();
    queueFrame(C, MsgType::Pong, encodePong(Epoch, Load));
    return;
  }

  case MsgType::Submit: {
    if (Draining) {
      sendError(C, Status::cancelled("server is draining", "serve::Server"));
      return;
    }
    SubmitRequest Req;
    if (Status S = decodeSubmit(F.Payload, Req); !S.ok()) {
      CtrProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      sendError(C, S);
      return;
    }
    // Idempotent resubmit: a byte-identical request dedups onto the live
    // job — same id, no second execution — before any admission check, so
    // a client retrying through a restart can never be turned away from
    // work the server already owns.
    const serialize::Digest Key = requestKey(Req);
    if (auto Dup = ActiveByKey.find(Key.hex()); Dup != ActiveByKey.end()) {
      if (Job *Existing = findJob(Dup->second)) {
        CtrDeduped.fetch_add(1, std::memory_order_relaxed);
        ++Existing->Submitters;
        queueFrame(C, MsgType::SubmitOk,
                   encodeSubmitOk(Existing->Id,
                                  static_cast<uint32_t>(
                                      Existing->Cells.size())));
        log("job " + std::to_string(Existing->Id) +
            " deduped an identical submit");
        return;
      }
      ActiveByKey.erase(Dup); // stale entry; fall through to a fresh job
    }
    if (Req.Cells.size() > Opts.MaxCellsPerJob) {
      CtrJobsRejected.fetch_add(1, std::memory_order_relaxed);
      sendError(C, Status::resourceExhausted(
                       "job has " + std::to_string(Req.Cells.size()) +
                           " cells; per-job limit is " +
                           std::to_string(Opts.MaxCellsPerJob),
                       "serve::Server"));
      return;
    }
    // Transient saturation sheds carry the brownout retry-after hint: the
    // condition clears by itself as cells finish, so a patient client
    // should come back rather than give up (the per-job cell limit above
    // is a misconfiguration and deliberately carries no hint).
    if (activeJobs() >= Opts.MaxActiveJobs) {
      CtrJobsRejected.fetch_add(1, std::memory_order_relaxed);
      sendError(C,
                Status::resourceExhausted(
                    "admission queue full: " +
                        std::to_string(Opts.MaxActiveJobs) +
                        " jobs already active",
                    "serve::Server"),
                retryAfterHintMs());
      return;
    }
    if (Opts.MaxQueuedCells &&
        pendingCells() + Req.Cells.size() > Opts.MaxQueuedCells) {
      CtrJobsRejected.fetch_add(1, std::memory_order_relaxed);
      sendError(C,
                Status::resourceExhausted(
                    "server cell queue full: " +
                        std::to_string(pendingCells()) + " cells pending, " +
                        "budget is " + std::to_string(Opts.MaxQueuedCells),
                    "serve::Server"),
                retryAfterHintMs());
      return;
    }
    const uint64_t Id = NextJob++;
    Job &J = Jobs[Id];
    J.Id = Id;
    J.Seq = NextSeq++;
    J.ReqKey = Key;
    J.ReqDeadlineSeconds = Req.DeadlineSeconds;
    J.Durable = Store != nullptr;
    J.Cells.resize(Req.Cells.size());
    for (size_t I = 0; I < Req.Cells.size(); ++I)
      J.Cells[I].Spec = std::move(Req.Cells[I]);
    uint64_t Resumed = 0;
    if (J.Durable) {
      // A record under this key from a previous life (the job was evicted
      // unacked, or the daemon died after finishing it) seeds the new job
      // with its completed cells instead of re-executing them.
      if (StatusOr<JobRecord> Old = Store->load(Key);
          Old.ok() && !Old->Acked &&
          Old->Outcomes.size() == J.Cells.size()) {
        for (size_t I = 0; I < J.Cells.size(); ++I) {
          if (!Old->Outcomes[I])
            continue;
          J.Cells[I].Phase = CellPhase::Done;
          J.Cells[I].Result = std::move(*Old->Outcomes[I]);
          ++Resumed;
        }
      }
    }
    if (Req.DeadlineSeconds > 0) {
      J.HasDeadline = true;
      J.Deadline = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<
                       std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(Req.DeadlineSeconds));
    }
    ActiveByKey[Key.hex()] = Id;
    if (J.Durable && Store) {
      if (Status S = Store->addToIndex(Key); !S.ok())
        log("index update failed: " + S.toString());
      checkpointJob(J);
    }
    CtrJobsAccepted.fetch_add(1, std::memory_order_relaxed);
    CtrResumed.fetch_add(Resumed, std::memory_order_relaxed);
    enqueueRR(J);
    queueFrame(C, MsgType::SubmitOk,
               encodeSubmitOk(Id, static_cast<uint32_t>(J.Cells.size())));
    log("job " + std::to_string(Id) + " accepted (" +
        std::to_string(J.Cells.size()) + " cells" +
        (Resumed ? ", " + std::to_string(Resumed) + " resumed" : "") + ")");
    return;
  }

  case MsgType::StatusReq: {
    uint64_t Id = 0;
    if (Status S = decodeJobId(F.Payload, Id); !S.ok()) {
      CtrProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      sendError(C, S);
      return;
    }
    Job *J = findJob(Id);
    if (!J) {
      sendError(C, Status::notFound("no such job: " + std::to_string(Id),
                                    "serve::Server"));
      return;
    }
    JobStatusReply Reply;
    Reply.Job = Id;
    Reply.State = J->state();
    Reply.Total = static_cast<uint32_t>(J->Cells.size());
    for (const CellState &Cell : J->Cells)
      if (Cell.Phase == CellPhase::Done) {
        if (Cell.Result.ok())
          ++Reply.Done;
        else
          ++Reply.Failed;
      }
    queueFrame(C, MsgType::StatusReply, encodeStatusReply(Reply));
    return;
  }

  case MsgType::FetchReq: {
    uint64_t Id = 0;
    if (Status S = decodeJobId(F.Payload, Id); !S.ok()) {
      CtrProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      sendError(C, S);
      return;
    }
    Job *J = findJob(Id);
    if (!J) {
      sendError(C, Status::notFound("no such job: " + std::to_string(Id),
                                    "serve::Server"));
      return;
    }
    if (!J->finished()) {
      sendError(C, Status::transient("job " + std::to_string(Id) +
                                         " is still " +
                                         jobStateName(J->state()),
                                     "serve::Server"));
      return;
    }
    // Idempotent fetch: the reply is built from a *copy* of the results
    // and the job stays until an ACK (or GC), so a client that dies
    // between fetching and reading can simply fetch again.
    FetchReplyData Reply;
    Reply.Job = Id;
    Reply.Cells.reserve(J->Cells.size());
    for (const CellState &Cell : J->Cells)
      Reply.Cells.push_back(Cell.Result);
    J->Fetched = true;
    queueFrame(C, MsgType::FetchReply, encodeFetchReply(Reply));
    return;
  }

  case MsgType::AckReq: {
    uint64_t Id = 0;
    if (Status S = decodeJobId(F.Payload, Id); !S.ok()) {
      CtrProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      sendError(C, S);
      return;
    }
    if (Job *J = findJob(Id)) {
      if (!J->finished()) {
        sendError(C, Status::invariant("job " + std::to_string(Id) +
                                           " is still " +
                                           jobStateName(J->state()) +
                                           "; ack after fetch",
                                       "serve::Server"));
        return;
      }
      if (J->Submitters > 1) {
        --J->Submitters;
        log("job " + std::to_string(Id) + " acked; " +
            std::to_string(J->Submitters) + " submitter(s) still to ack");
      } else {
        if (J->Durable && Store)
          if (Status S = Store->markAcked(J->ReqKey); !S.ok())
            log("ack persist failed: " + S.toString());
        forgetJob(Id);
        log("job " + std::to_string(Id) + " acked");
      }
    }
    // An unknown id still gets AckOk: acks are idempotent, and the job may
    // simply predate a restart the client is cleaning up after.
    queueFrame(C, MsgType::AckOk, encodeJobId(Id));
    return;
  }

  case MsgType::CancelReq: {
    uint64_t Id = 0;
    if (Status S = decodeJobId(F.Payload, Id); !S.ok()) {
      CtrProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      sendError(C, S);
      return;
    }
    Job *J = findJob(Id);
    if (!J) {
      sendError(C, Status::notFound("no such job: " + std::to_string(Id),
                                    "serve::Server"));
      return;
    }
    if (!J->finished()) {
      J->Cancelled = true;
      cancelPendingCells(
          *J, Status::cancelled("job cancelled by client", "serve::Server"));
      log("job " + std::to_string(Id) + " cancelled");
    }
    queueFrame(C, MsgType::CancelOk, encodeJobId(Id));
    return;
  }

  case MsgType::Shutdown:
    queueFrame(C, MsgType::ShutdownOk, {});
    beginDrain("shutdown frame");
    return;

  default:
    // A well-framed message whose type makes no sense from a client
    // (server-plane replies, worker-plane traffic): reject, keep the
    // connection — the stream is in sync.
    CtrProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    sendError(C, Status::corrupt("unexpected message type " +
                                     std::to_string(static_cast<unsigned>(
                                         F.Type)) +
                                     " on client connection",
                                 "serve::Server"));
    return;
  }
}

// --- Event loop ---------------------------------------------------------

Status Server::run() {
  if (ListenFd == -1 && !Draining)
    return Status::invariant("run() before listen()", "serve::Server");
  log("serving on " + Opts.SocketPath + " with " +
      std::to_string(Pool.size()) + " workers");

  // Parallel arrays: Polls[I] watches the fd described by Kinds[I]/Ids[I].
  enum class FdKind : uint8_t { Listen, Stop, Wakeup, Worker, Client };
  std::vector<pollfd> Polls;
  std::vector<FdKind> Kinds;
  std::vector<int> Ids; // worker index or conn fd

  while (true) {
    if (Drain->cancelled())
      beginDrain("cancel token");
    if (drainComplete())
      break;

    Polls.clear();
    Kinds.clear();
    Ids.clear();
    if (ListenFd != -1) {
      Polls.push_back({ListenFd, POLLIN, 0});
      Kinds.push_back(FdKind::Listen);
      Ids.push_back(-1);
    }
    if (StopPipe[0] != -1) {
      Polls.push_back({StopPipe[0], POLLIN, 0});
      Kinds.push_back(FdKind::Stop);
      Ids.push_back(-1);
    }
    if (const int WFd = guard::wakeupFd(); WFd != -1) {
      Polls.push_back({WFd, POLLIN, 0});
      Kinds.push_back(FdKind::Wakeup);
      Ids.push_back(-1);
    }
    for (unsigned W = 0; W < Pool.size(); ++W) {
      if (Pool.fd(W) == -1)
        continue;
      Polls.push_back({Pool.fd(W), POLLIN, 0});
      Kinds.push_back(FdKind::Worker);
      Ids.push_back(static_cast<int>(W));
    }
    for (auto &[Fd, C] : Conns) {
      short Events = POLLIN;
      if (C.OutPos < C.Out.size())
        Events |= POLLOUT;
      Polls.push_back({Fd, Events, 0});
      Kinds.push_back(FdKind::Client);
      Ids.push_back(Fd);
    }

    const int N = ::poll(Polls.data(), Polls.size(), pollTimeoutMs());
    if (N < 0 && errno != EINTR)
      return Status::transient(std::string("poll(): ") + std::strerror(errno),
                               "serve::Server");

    for (size_t I = 0; I < Polls.size() && N > 0; ++I) {
      const short Re = Polls[I].revents;
      if (Re == 0)
        continue;
      switch (Kinds[I]) {
      case FdKind::Listen:
        if (Re & POLLIN)
          acceptClients();
        break;
      case FdKind::Stop: {
        uint8_t Scratch[64];
        while (::read(StopPipe[0], Scratch, sizeof(Scratch)) > 0) {
        }
        beginDrain("requestStop");
        break;
      }
      case FdKind::Wakeup:
        // The signal handler wrote to the self-pipe; the cancel-token check
        // at the top of the loop does the actual drain.  Don't drain the
        // pipe: guard owns it.
        break;
      case FdKind::Worker:
        if (Re & (POLLIN | POLLHUP | POLLERR))
          readWorker(static_cast<unsigned>(Ids[I]));
        break;
      case FdKind::Client: {
        const int Fd = Ids[I];
        if (Re & (POLLERR | POLLNVAL)) {
          dropConn(Fd);
          break;
        }
        if (Re & POLLOUT)
          if (auto It = Conns.find(Fd); It != Conns.end()) {
            flushConn(It->second);
            if (It->second.CloseAfterFlush &&
                It->second.OutPos >= It->second.Out.size()) {
              dropConn(Fd);
              break;
            }
          }
        if (Re & (POLLIN | POLLHUP))
          readConn(Fd);
        break;
      }
      }
    }

    expireDeadlines();
    expireConns();
    checkWorkerLiveness();
    dispatch();
    gcFinishedJobs();
  }

  // Drained: close every connection (all out-buffers are empty by the
  // drainComplete() condition).
  for (auto &[Fd, C] : Conns)
    ::close(Fd);
  Conns.clear();
  log("drain complete");
  return Status();
}
