//===- paperbench/src/ServeWorkload.cpp - serve-cells ---------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A closed loop of single-cell jobs: two client threads, each on its own
/// connection, submit one cell, poll its status every millisecond, fetch
/// it, ack it, and only then take the next cell of the seeded stream
/// (Helpers.h serveCell).  The server runs in this process on a thread and
/// forks 2 cell workers that share a fresh, empty, durable cache.  A cell's
/// latency runs from submit to fetched.
///
/// The timed phase is a series of sessions, each a fresh server and cache
/// serving the stream's first kSessionCells cells, so every session serves
/// the same cells and, as paper-*'s passes do, the run takes its timings
/// at their fastest: the fastest session and each cell's fastest service.
///
/// The traced run records client-side spans only (submit, status, fetch,
/// ack): the cells themselves run in the worker processes.  The cache
/// numbers of the traced run are read from the cache directories
/// afterwards, and worker busy time from the reaped workers' CPU time.
///
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "HostSpeed.h"
#include "Trace.h"
#include "Workloads.h"

#include "exec/TaskGraph.h"
#include "exec/ThreadPool.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/WorkerPool.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sys/resource.h>
#include <thread>

using namespace dmp;
using namespace dmp::serve;
namespace fs = std::filesystem;

namespace paperbench {

namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kClients = 2;
/// Cells per session: the 34 leading paper cells and 166 drawn ones, about
/// 5 s of service, and 20 cells above the p90.
constexpr size_t kSessionCells = 200;

/// A server with its workers and, once started, its loop thread and
/// connected clients.  The thread uses this object, so it never moves.
class Session {
public:
  /// Forks the workers and listens on a fresh cache in \p Dir.
  explicit Session(const std::string &Dir)
      : CacheDir(Dir + "/cache"), SocketPath(Dir + "/serve.sock") {
    fs::remove_all(Dir);
    fs::create_directories(CacheDir);
    WorkerPoolOptions PoolOpts;
    PoolOpts.Workers = kWorkers;
    PoolOpts.CacheDir = CacheDir;
    Pool = std::make_unique<WorkerPool>(PoolOpts);
    ServerOptions SrvOpts;
    SrvOpts.SocketPath = SocketPath;
    SrvOpts.DurableJobs = true;
    Srv = std::make_unique<Server>(SrvOpts, *Pool, &Drain);
    if (Status S = Srv->listen(); !S.ok())
      throw StatusError(S);
  }
  ~Session() { stop(); }
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  /// Runs the server loop on a thread and connects the clients.
  void start() {
    Loop = std::thread([this] { LoopStatus = Srv->run(); });
    Clients.resize(kClients);
    for (Client &C : Clients) {
      Status S = C.connect(SocketPath);
      if (S.ok())
        S = C.ping();
      if (!S.ok())
        throw StatusError(S);
    }
  }
  /// Drains the server, joins its thread and reaps the workers.
  void stop() {
    if (!Pool)
      return;
    for (Client &C : Clients)
      C.close();
    Srv->requestStop();
    if (Loop.joinable())
      Loop.join();
    Srv.reset();
    Pool.reset();
  }

  Server::Counters counters() const { return Srv->counters(); }

  /// What the server loop returned; meaningful after stop().
  const Status &loopStatus() const { return LoopStatus; }

  /// Largest peak resident set among the live workers, in MB (VmHWM; the
  /// rusage of reaped children would also count the set-up's workers).
  double workerPeakRssMb() const {
    double Kb = 0.0;
    for (pid_t Pid : Pool->pids()) {
      std::ifstream Status("/proc/" + std::to_string(Pid) + "/status");
      std::string Line;
      while (std::getline(Status, Line))
        if (Line.rfind("VmHWM:", 0) == 0)
          Kb = std::max(Kb, std::strtod(Line.c_str() + 6, nullptr));
    }
    return Kb / 1024.0;
  }

  std::string CacheDir;
  std::string SocketPath;
  std::vector<Client> Clients;

private:
  guard::CancelToken Drain;
  std::unique_ptr<WorkerPool> Pool;
  std::unique_ptr<Server> Srv;
  Status LoopStatus;
  std::thread Loop;
};

struct Served {
  size_t Index = 0; ///< Position in the stream.
  harness::CellSpec Spec;
  StatusOr<harness::CellResult> Result = Status::notFound("not run", "serve");
  double Ms = 0.0;
  uint64_t Polls = 0;
  uint64_t Resubmits = 0;
};

/// A client resubmits a job whose id the server no longer knows, as
/// Client::runCampaign does.  It happens here when two clients submit the
/// same cell at once: the server dedups the second submit onto the first
/// job, and the first client's ack then drops the job for both.
constexpr uint64_t kMaxResubmits = 3;

/// Submit, poll until done, fetch; returns the job id through \p Job.
StatusOr<FetchReplyData> submitAndFetch(Client &C, const SubmitRequest &Req,
                                        Tracer *T, int64_t CellId,
                                        Served &Out, uint64_t &Job) {
  const StatusOr<uint64_t> Id = [&] {
    Span Sp(T, "serve.submit", CellId);
    return C.submit(Req);
  }();
  if (!Id.ok())
    return Id.status();
  Job = *Id;
  for (;;) {
    ++Out.Polls;
    const StatusOr<JobStatusReply> St = [&] {
      Span Sp(T, "serve.status", CellId);
      return C.status(Job);
    }();
    if (!St.ok())
      return St.status();
    if (St->State == JobState::Done || St->State == JobState::Cancelled)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Span Sp(T, "serve.fetch", CellId);
  return C.fetch(Job);
}

/// One cell through submit -> status polls -> fetch -> ack.
Served serveOne(Client &C, const harness::CellSpec &Spec, Tracer *T,
                int64_t CellId) {
  Served Out;
  Out.Spec = Spec;
  Span Root(T, "serve.cell", CellId);
  const Clock::time_point Start = Clock::now();
  SubmitRequest Req;
  Req.Cells.push_back(Spec);
  uint64_t Job = 0;
  StatusOr<FetchReplyData> Reply = submitAndFetch(C, Req, T, CellId, Out, Job);
  while (!Reply.ok() && Reply.status().code() == ErrorCode::NotFound &&
         Out.Resubmits < kMaxResubmits) {
    ++Out.Resubmits;
    Reply = submitAndFetch(C, Req, T, CellId, Out, Job);
  }
  Out.Ms = secondsSince(Start) * 1e3;
  if (!Reply.ok()) {
    Out.Result = Reply.status();
    return Out;
  }
  if (Reply->Cells.size() != 1)
    Out.Result = Status::invariant("fetch returned no cell", "paperbench");
  else
    Out.Result = std::move(Reply->Cells[0]);
  Span Sp(T, "serve.ack", CellId);
  (void)C.ack(Job);
  return Out;
}

/// Set-up: a server brought up on a fresh cache until it served its first
/// cell (the first benchmark's All-best-heur cell: profile, baseline and
/// DMP sim from scratch), in seconds at the reference host speed.  The
/// server is torn down untimed.
double coldStart(const std::string &Dir) {
  std::optional<Session> S;
  return HostSpeed::setUpSeconds([&] {
    S.emplace(Dir);
    S->start();
    harness::CellSpec First;
    First.Benchmark = workloads::specSuite().front().Name;
    const Served Out = serveOne(S->Clients.front(), First, nullptr, -1);
    if (!Out.Result.ok())
      throw StatusError(Out.Result.status());
  });
}

double childCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_CHILDREN, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

/// Blob count and bytes under a cache directory.
std::pair<uint64_t, uint64_t> blobsOnDisk(const std::string &Dir) {
  uint64_t Count = 0, Bytes = 0;
  std::error_code EC;
  for (const fs::directory_entry &E :
       fs::recursive_directory_iterator(Dir, EC))
    if (E.is_regular_file() && E.path().extension() == ".blob") {
      ++Count;
      Bytes += E.file_size();
    }
  return {Count, Bytes};
}

/// The closed loop: clients take the stream's first kSessionCells cells in
/// order.
std::vector<Served> closedLoop(Session &S, uint64_t Seed, Tracer *T,
                               int64_t CellIdBase, double &Elapsed) {
  std::atomic<size_t> Next{0};
  std::mutex Mutex;
  std::vector<Served> All;
  const Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (Client &C : S.Clients)
    Threads.emplace_back([&, Client = &C] {
      for (size_t Index; (Index = Next.fetch_add(1)) < kSessionCells;) {
        Served One = serveOne(*Client, serveCell(Seed, Index), T,
                              CellIdBase + int64_t(Index));
        One.Index = Index;
        std::lock_guard<std::mutex> Lock(Mutex);
        All.push_back(std::move(One));
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  Elapsed = secondsSince(Start);
  return All;
}

/// Sessions of one kind (traced or not) and what the run needs from them.
struct SessionTally {
  std::vector<Served> Cells;
  std::vector<double> Seconds;
  /// Each stream cell's fastest successful service; +inf until one.
  std::vector<double> BestMs = std::vector<double>(
      kSessionCells, std::numeric_limits<double>::infinity());
  double WorkerRssMb = 0.0;
  Server::Counters Counters;
  uint64_t Blobs = 0, BlobBytes = 0;

  /// Runs one session in a fresh \p Dir and adds it.
  void run(const std::string &Dir, uint64_t Seed, Tracer *T, RunResult &R) {
    Session S(Dir);
    S.start();
    double Elapsed = 0.0;
    std::vector<Served> Got =
        closedLoop(S, Seed, T, int64_t(Seconds.size()) * 1'000'000, Elapsed);
    WorkerRssMb = std::max(WorkerRssMb, S.workerPeakRssMb());
    const Server::Counters Ct = S.counters();
    Counters.CellsDispatched += Ct.CellsDispatched;
    Counters.CellsRetried += Ct.CellsRetried;
    Counters.JobsDeduped += Ct.JobsDeduped;
    S.stop();
    if (!S.loopStatus().ok())
      R.Errors.push_back("server loop: " + S.loopStatus().toString());
    const auto [Count, Bytes] = blobsOnDisk(S.CacheDir);
    Blobs += Count;
    BlobBytes += Bytes;
    Seconds.push_back(Elapsed);
    for (Served &C : Got) {
      if (C.Result.ok())
        BestMs[C.Index] = std::min(BestMs[C.Index], C.Ms);
      Cells.push_back(std::move(C));
    }
  }
  /// Cells per second of the fastest session.
  double rate() const {
    return double(kSessionCells) /
           *std::min_element(Seconds.begin(), Seconds.end());
  }
  /// The fastest service of every cell that succeeded at least once.
  std::vector<double> bestMs() const {
    std::vector<double> Ms;
    for (double V : BestMs)
      if (std::isfinite(V))
        Ms.push_back(V);
    return Ms;
  }
};

std::string specKey(const harness::CellSpec &Spec) {
  serialize::ByteWriter W;
  harness::encodeCellSpec(W, Spec);
  return std::string(W.bytes().begin(), W.bytes().end());
}

/// Recomputes every distinct served spec locally with runCellSpec (fresh
/// local cache, kThreads threads) and compares digests; also checks the
/// 17-cell campaign digest.
void verify(const std::vector<Served> &All, const RunOptions &Opts,
            RunResult &R) {
  std::map<std::string, const Served *> Distinct;
  for (const Served &S : All) {
    if (!S.Result.ok())
      continue;
    auto [It, Fresh] = Distinct.emplace(specKey(S.Spec), &S);
    if (!Fresh && harness::cellResultDigest(*It->second->Result) !=
                      harness::cellResultDigest(*S.Result))
      R.Errors.push_back("serve returned two results for " + S.Spec.Benchmark +
                         "/" + S.Spec.Algo);
  }
  const std::string LocalDir = Opts.WorkDir + "/verify-cache";
  fs::remove_all(LocalDir);
  auto Local = std::make_shared<serialize::ArtifactCache>(LocalDir);
  std::mutex Mutex;
  exec::ThreadPool Pool(kThreads);
  exec::TaskGraph Graph;
  for (const auto &[Key, S] : Distinct)
    Graph.add([&, S = S] {
      StatusOr<harness::CellResult> Mine = harness::runCellSpec(S->Spec, Local);
      if (Mine.ok() && harness::cellResultDigest(*Mine) ==
                           harness::cellResultDigest(*S->Result))
        return;
      std::lock_guard<std::mutex> Lock(Mutex);
      R.Errors.push_back("served cell " + S->Spec.Benchmark + "/" +
                         S->Spec.Algo + " differs from a local runCellSpec");
    });
  serialize::Hasher Campaign;
  Graph.add([&] {
    for (const workloads::BenchmarkSpec &B : workloads::specSuite()) {
      harness::CellSpec Spec;
      Spec.Benchmark = B.Name;
      Spec.SimInstrs = 100'000;
      Spec.ProfileInstrs = 400'000;
      StatusOr<harness::CellResult> Cell = harness::runCellSpec(Spec, nullptr);
      if (!Cell.ok())
        return;
      const std::vector<uint8_t> Blob = harness::encodeCellResult(*Cell);
      Campaign.update(Blob.data(), Blob.size());
    }
  });
  Graph.run(Pool);
  const std::string CampaignDigest = Campaign.finish().hex();
  if (CampaignDigest != Opts.CampaignDigest)
    R.Errors.push_back("17-cell campaign digest " + CampaignDigest +
                       " differs from the recorded " + Opts.CampaignDigest);
  R.Notes.push_back(formatString(
      "checked %zu distinct served cells against local runCellSpec; "
      "17-cell campaign digest %s",
      Distinct.size(), CampaignDigest.c_str()));
  fs::remove_all(LocalDir);
}

void putServeLayers(RunResult &R, const Tracer &T, const SessionTally &Traced,
                    double WorkerCpuS) {
  const std::map<std::string, Tracer::Totals> Tot = T.totals();
  const auto SelfMs = [&Tot](const char *Name) {
    auto It = Tot.find(Name);
    return It == Tot.end() ? 0.0 : It->second.SelfMs;
  };
  const std::vector<Served> &Cells = Traced.Cells;
  const double PerCell = Cells.empty() ? 0.0 : 1.0 / double(Cells.size());
  uint64_t Polls = 0, Failed = 0, Resubmits = 0;
  for (const Served &S : Cells) {
    Polls += S.Polls;
    Failed += !S.Result.ok();
    Resubmits += S.Resubmits;
  }
  std::vector<sim::SimStats> Bases, Dmps;
  for (const Served &S : Cells)
    if (S.Result.ok()) {
      Bases.push_back(S.Result->Baseline);
      Dmps.push_back(S.Result->Dmp);
    }
  putSimOutcomes(R, Bases, Dmps);
  // The cells run in the worker processes: their profile, select, sim and
  // cache steps are not reached from this process.
  putUnreached(R, {"workloads.build_ms", "cfg.analysis_ms", "profile.ms",
                   "profile.instrs", "profile.minstr_per_s", "core.select_ms",
                   "core.distinct_map_frac", "sim.baseline_ms", "sim.dmp_ms",
                   "sim.instrs", "sim.minstr_per_s", "cache.key_ms",
                   "cache.load_ms", "cache.decode_ms", "cache.store_ms",
                   "cache.hits", "cache.misses", "cache.hit_frac",
                   "cache.bytes_read", "harness.context_ms",
                   "harness.cell_self_ms", "trace.pipeline_self_frac"});
  auto &M = R.Metrics;
  const Server::Counters &Ct = Traced.Counters;
  M["core.dmp_sims"] = double(Cells.size() - Failed);
  M["serve.submit_ms"] = SelfMs("serve.submit") * PerCell;
  M["serve.fetch_ms"] = SelfMs("serve.fetch") * PerCell;
  M["serve.polls_per_cell"] = double(Polls) * PerCell;
  M["serve.cells_dispatched"] = double(Ct.CellsDispatched);
  M["serve.cells_retried"] = double(Ct.CellsRetried);
  M["serve.jobs_deduped"] = double(Ct.JobsDeduped);
  M["serve.client_resubmits"] = double(Resubmits);
  M["harness.cells"] = double(Cells.size());
  M["harness.cells_failed"] = double(Failed);
  M["harness.retries"] = double(Ct.CellsRetried);
  M["cache.stores"] = double(Traced.Blobs);
  M["cache.bytes_written"] = double(Traced.BlobBytes);
  double Wall = 0.0;
  for (double S : Traced.Seconds)
    Wall += S;
  M["exec.threads"] = kWorkers;
  M["exec.busy_s"] = WorkerCpuS;
  M["exec.idle_s"] = std::max(0.0, kWorkers * Wall - WorkerCpuS);
  M["exec.util_frac"] = Wall > 0 ? WorkerCpuS / (kWorkers * Wall) : 0.0;
}

} // namespace

RunResult runServeCells(const RunOptions &Opts) {
  RunResult R;
  // Set-up: cold starts, some before the timed phase and more after each
  // session, so that their median sees the host over the whole run.
  std::vector<double> SetupS;
  const auto ColdStarts = [&](unsigned Times) {
    for (unsigned I = 0; I < Times; ++I)
      SetupS.push_back(coldStart(Opts.WorkDir + "/s" +
                                 std::to_string(SetupS.size())));
  };
  ColdStarts(kServeSetupRepeats);
  resetPeakRss(R);

  // Sessions until Seconds elapse.  The traced run alternates untraced and
  // traced sessions, so both kinds see the same host.
  SessionTally Untraced, Traced;
  Tracer T;
  double WorkerCpuS = 0.0;
  unsigned Next = 0;
  const Clock::time_point Start = Clock::now();
  do {
    const std::string Dir = Opts.WorkDir + "/timed-" + std::to_string(Next++);
    Untraced.run(Dir, Opts.Seed, nullptr, R);
    if (Opts.Trace) {
      const double CpuBefore = childCpuSeconds();
      Traced.run(Dir + "-traced", Opts.Seed, &T, R);
      WorkerCpuS += childCpuSeconds() - CpuBefore;
    }
    ColdStarts(kServeSetupRepeats / 2);
  } while (secondsSince(Start) < Opts.Seconds);
  const double ProcessRssMb = peakRssMb();
  R.Metrics["setup_s"] = median(SetupS);

  std::vector<Served> Cells = Untraced.Cells;
  if (Opts.Trace) {
    putServeLayers(R, T, Traced, WorkerCpuS);
    putTraceMetrics(R, T, Opts, Untraced.rate(), Traced.rate());
    Cells.insert(Cells.end(), Traced.Cells.begin(), Traced.Cells.end());
  } else {
    // The ipc geomeans run over the suite's benchmarks: one All-best-heur
    // and one All-best-cost result each, at dmpc's default thresholds (the
    // leading paper cells; every session and every later draw of the same
    // spec repeats the value).
    std::map<std::string, double> Heur, Cost;
    uint64_t Ok = 0;
    const harness::CellSpec Default;
    for (const Served &C : Cells) {
      if (!C.Result.ok())
        continue;
      ++Ok;
      if (C.Spec.MaxInstr != Default.MaxInstr ||
          C.Spec.MinMergeProb != Default.MinMergeProb)
        continue;
      const double Gain =
          harness::ipcImprovement(C.Result->Baseline, C.Result->Dmp) * 100.0;
      if (C.Spec.Algo == "all")
        Heur[C.Spec.Benchmark] = Gain;
      else if (C.Spec.Algo == "all-cost")
        Cost[C.Spec.Benchmark] = Gain;
    }
    R.Metrics["cells_per_s"] = Untraced.rate();
    R.Metrics["ok_frac"] = Cells.empty() ? 0.0 : double(Ok) / Cells.size();
    putLatencies(R, Untraced.bestMs());
    const auto Values = [](const std::map<std::string, double> &By) {
      std::vector<double> V;
      for (const auto &[Bench, Gain] : By)
        V.push_back(Gain);
      return V;
    };
    putIpcGains(R, Values(Heur), Values(Cost));
    std::string Times;
    for (double S : Untraced.Seconds)
      Times += formatString(" %.3f", S);
    R.Notes.push_back(formatString(
        "%zu sessions of %zu single-cell jobs from %u clients to %u workers, "
        "session seconds:%s (cells_per_s from the fastest; cell_ms_* over "
        "each cell's fastest service)",
        Untraced.Seconds.size(), kSessionCells, kClients, kWorkers,
        Times.c_str()));
  }
  R.Attempted = Cells.size();
  uint64_t Resubmits = 0;
  for (const Served &C : Cells) {
    Resubmits += C.Resubmits;
    if (C.Result.ok())
      continue;
    ++R.Failed;
    R.Errors.push_back("cell " + C.Spec.Benchmark + "/" + C.Spec.Algo +
                       " failed: " + C.Result.status().toString());
  }
  R.Notes.push_back(formatString(
      "%llu client resubmits after a deduped job was acked by the other "
      "client",
      static_cast<unsigned long long>(Resubmits)));
  const double WorkerRssMb = Untraced.WorkerRssMb;
  R.Metrics["peak_rss_mb"] = std::max(ProcessRssMb, WorkerRssMb);
  R.Notes.push_back(formatString("peak RSS in the timed phase: this process "
                                 "%.1f MB, largest worker %.1f MB",
                                 ProcessRssMb, WorkerRssMb));
  verify(Cells, Opts, R);
  return R;
}

} // namespace paperbench
