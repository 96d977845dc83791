//===- paperbench/src/PaperWorkloads.cpp - paper-cold and paper-warm ------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Both workloads run one matrix: the ten Fig. 5 selection columns plus
/// Fig. 9's two train-profiled columns over the seeded suite, on an
/// ExperimentEngine with kThreads threads.  One pass is one fresh engine
/// (so fresh BenchContexts) running the whole matrix.
///
/// Untraced passes run the matrix exactly as the bench_fig* programs do: one
/// runMatrix whose CellNeeds schedule profiles and baseline as engine
/// stages.  The traced run uses split passes instead, so that every call
/// into a layer can be a span of its own: a task per benchmark builds the
/// context and runs its stages, then runMatrix runs the cells.  The engine
/// of a split pass runs without a cache; with a cache directory the pass
/// performs BenchContext's cache steps itself through the public serialize
/// API (cache key, ArtifactCache::load, decode; on a miss the computation,
/// encode and ArtifactCache::store), so each step gets a span.  Split
/// passes without spans are the untraced side of the tracing overhead.
///
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "HostSpeed.h"
#include "Trace.h"
#include "Workloads.h"

#include "exec/TaskGraph.h"
#include "harness/Engine.h"
#include "serialize/Hash.h"
#include "serialize/ProfileIO.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <set>

using namespace dmp;
namespace fs = std::filesystem;

namespace paperbench {

namespace {

using workloads::InputSetKind;

struct Column {
  const char *Name;
  core::SelectionFeatures Features;
  InputSetKind Input;
};

/// Fig. 5 (left, right) then Fig. 9's train-profiled columns.
const std::vector<Column> &columns() {
  static const std::vector<Column> Cols = [] {
    using F = core::SelectionFeatures;
    F CostEdgeShort = F::costEdge();
    CostEdgeShort.ShortHammocks = true;
    F CostEdgeShortRet = CostEdgeShort;
    CostEdgeShortRet.ReturnCfm = true;
    const InputSetKind Run = InputSetKind::Run;
    return std::vector<Column>{
        {"exact", F::exactOnly(), Run},
        {"+freq", F::exactFreq(), Run},
        {"+short", F::exactFreqShort(), Run},
        {"+ret", F::exactFreqShortRet(), Run},
        {"+loop", F::allBestHeur(), Run},
        {"cost-long", F::costLong(), Run},
        {"cost-edge", F::costEdge(), Run},
        {"cost+short", CostEdgeShort, Run},
        {"cost+ret", CostEdgeShortRet, Run},
        {"cost+loop", F::allBestCost(), Run},
        {"heur-diff", F::allBestHeur(), InputSetKind::Train},
        {"cost-diff", F::allBestCost(), InputSetKind::Train},
    };
  }();
  return Cols;
}
constexpr size_t kHeurColumn = 4; ///< All-best-heur, run-profiled.
constexpr size_t kCostColumn = 9; ///< All-best-cost, run-profiled.

struct CellOut {
  double Gain = 0.0;
  sim::SimStats Dmp;
  double Ms = 0.0;
};

using Matrix = std::vector<std::vector<StatusOr<CellOut>>>;

/// One pass over the matrix and what the run needs from it.
struct PassOut {
  Matrix Cells;
  std::vector<sim::SimStats> Baselines; ///< Per Suite index.
  double Seconds = 0.0;
  harness::CampaignCounters Campaign;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheStores = 0;
};

/// The per-run state of the traced passes that the per-layer metrics read.
struct TraceState {
  Tracer T;
  std::mutex Mutex;
  std::set<std::pair<std::string, std::string>> DistinctMaps;
  uint64_t DmpSims = 0;
  uint64_t BytesRead = 0;
  uint64_t BytesWritten = 0;
};

harness::EngineOptions engineOptions(const std::string &CacheDir) {
  harness::EngineOptions EO;
  EO.Jobs = kThreads;
  EO.UseCache = !CacheDir.empty();
  EO.CacheDir = CacheDir;
  return EO;
}

void collectCounters(PassOut &Out, harness::ExperimentEngine &Engine,
                     const serialize::ArtifactCache *Cache) {
  Out.Campaign = Engine.campaign();
  if (Cache) {
    Out.CacheHits = Cache->hits();
    Out.CacheMisses = Cache->misses();
    Out.CacheStores = Cache->stores();
  }
}

/// The bench_fig* programs' path: one runMatrix, stages as engine tasks.
PassOut runUntracedPass(const std::vector<workloads::BenchmarkSpec> &Suite,
                        const std::string &CacheDir) {
  PassOut Out;
  harness::ExperimentEngine Engine(harness::ExperimentOptions(),
                                   engineOptions(CacheDir));
  harness::CellNeeds Needs;
  Needs.TrainProfile = true; // the Fig. 9 columns profile on train
  const Clock::time_point Start = Clock::now();
  Out.Cells = Engine.runMatrix<CellOut>(
      Suite, columns().size(),
      [](harness::Cell &C) {
        const Clock::time_point T0 = Clock::now();
        const Column &Col = columns()[C.Config];
        const core::DivergeMap Map = C.Bench.select(Col.Features, Col.Input);
        CellOut R;
        R.Dmp = C.Bench.simulateWith(Map);
        R.Gain = harness::ipcImprovement(C.Bench.baseline(), R.Dmp);
        R.Ms = secondsSince(T0) * 1e3;
        return R;
      },
      Needs);
  Out.Seconds = secondsSince(Start);
  for (const workloads::BenchmarkSpec &Spec : Suite)
    Out.Baselines.push_back(Engine.contextFor(Spec).baseline());
  collectCounters(Out, Engine, Engine.cache());
  return Out;
}

/// One stage the way BenchContext runs it, with a span per step: with a
/// cache, key, load and decode, and on a miss \p Compute (span \p Layer)
/// then encode + store.  Without a cache only \p Compute.
template <typename V, typename KeyFn, typename ComputeFn>
void cachedStage(TraceState *S, serialize::ArtifactCache *Cache,
                 const KeyFn &Key,
                 Status (*Decode)(const std::vector<uint8_t> &, V &),
                 std::vector<uint8_t> (*Encode)(const V &), const char *Layer,
                 const ComputeFn &Compute, V &Value, int64_t CellId) {
  Tracer *T = S ? &S->T : nullptr;
  serialize::Digest Digest;
  if (Cache) {
    {
      Span Sp(T, "cache.key", CellId);
      Digest = Key();
    }
    const StatusOr<std::vector<uint8_t>> Blob = [&] {
      Span Sp(T, "cache.load", CellId);
      return Cache->load(Digest);
    }();
    if (Blob.ok()) {
      if (S) {
        std::lock_guard<std::mutex> Lock(S->Mutex);
        S->BytesRead += Blob->size();
      }
      Span Sp(T, "cache.decode", CellId);
      if (Decode(*Blob, Value).ok())
        return;
    }
  }
  {
    Span Sp(T, Layer, CellId);
    Value = Compute();
  }
  if (!Cache)
    return;
  Span Sp(T, "cache.store", CellId);
  const std::vector<uint8_t> Blob = Encode(Value);
  (void)Cache->store(Digest, Blob); // a failed store recomputes next time
  if (S) {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    S->BytesWritten += Blob.size();
  }
}

/// The same matrix split so that every call into a layer is a span of its
/// own (see file comment).  With a null \p S it runs the same schedule
/// without spans: the untraced side of trace.overhead_frac.
PassOut runSplitPass(const std::vector<workloads::BenchmarkSpec> &Suite,
                     const std::string &CacheDir, TraceState *S,
                     int64_t CellIdBase) {
  PassOut Out;
  Tracer *T = S ? &S->T : nullptr;
  // The engine runs cache-less; the benchmark does the cache steps itself.
  harness::ExperimentEngine Engine(harness::ExperimentOptions(),
                                   engineOptions(""));
  std::optional<serialize::ArtifactCache> CacheObj;
  if (!CacheDir.empty())
    CacheObj.emplace(CacheDir);
  serialize::ArtifactCache *Cache = CacheObj ? &*CacheObj : nullptr;
  const harness::ExperimentOptions &EOpts = Engine.options();
  const size_t N = Suite.size();
  std::map<std::string, size_t> IndexOf;
  for (size_t B = 0; B < N; ++B)
    IndexOf[Suite[B].Name] = B;
  // Per benchmark: the run and train profiles the cells select on.
  std::vector<std::array<profile::ProfileData, 2>> Prof(N);
  Out.Baselines.resize(N);

  const Clock::time_point Start = Clock::now();
  exec::TaskGraph Stages;
  for (size_t B = 0; B < N; ++B)
    Stages.add([&, B] {
      const int64_t StageId = CellIdBase - 1 - int64_t(B);
      Span Root(T, "stage", StageId);
      harness::BenchContext *Ctx;
      {
        Span Sp(T, "harness.context", StageId);
        Ctx = &Engine.contextFor(Suite[B]);
      }
      for (InputSetKind Kind : {InputSetKind::Run, InputSetKind::Train})
        cachedStage<profile::ProfileData>(
            S, Cache,
            [&] {
              return harness::profileCacheKey(Suite[B], Kind, EOpts.Profile);
            },
            serialize::decodeProfileData, serialize::encodeProfileData,
            "profile",
            [&] {
              const profile::ProfileData &P = Ctx->profileData(Kind);
              if (T)
                T->count("profile.instrs", double(P.DynamicInstrs));
              return P;
            },
            Prof[B][Kind == InputSetKind::Run ? 0 : 1], StageId);
      cachedStage<sim::SimStats>(
          S, Cache,
          [&] { return harness::simCacheKey(Suite[B], EOpts.Sim, nullptr); },
          serialize::decodeSimStats, serialize::encodeSimStats,
          "sim.baseline",
          [&] {
            const sim::SimStats &St = Ctx->baseline();
            if (T)
              T->count("sim.instrs", double(St.RetiredInstrs));
            return St;
          },
          Out.Baselines[B], StageId);
    });
  Stages.run(Engine.pool());

  harness::CellNeeds None;
  None.RunProfile = false;
  None.Baseline = false;
  Out.Cells = Engine.runMatrix<CellOut>(
      Suite, columns().size(),
      [&](harness::Cell &C) {
        const Clock::time_point T0 = Clock::now();
        const size_t B = IndexOf.at(C.Bench.spec().Name);
        const int64_t CellId = CellIdBase + int64_t(B * columns().size() +
                                                    C.Config);
        Span Root(T, "cell", CellId);
        const Column &Col = columns()[C.Config];
        core::DivergeMap Map;
        {
          Span Sp(T, "core.select", CellId);
          Map = core::selectDivergeBranches(
              C.Bench.analysis(),
              Prof[B][Col.Input == InputSetKind::Run ? 0 : 1],
              C.Bench.options().Selection, Col.Features);
        }
        if (S) {
          Span Sp(T, "trace.map_digest", CellId);
          const std::vector<uint8_t> Bytes = serialize::encodeDivergeMap(Map);
          const std::string Digest =
              serialize::Hasher::hash(Bytes.data(), Bytes.size()).hex();
          std::lock_guard<std::mutex> Lock(S->Mutex);
          S->DistinctMaps.insert({Suite[B].Name, Digest});
          ++S->DmpSims;
        }
        CellOut R;
        cachedStage<sim::SimStats>(
            S, Cache,
            [&] {
              return harness::simCacheKey(Suite[B], EOpts.Sim, &Map,
                                          &EOpts.Selection);
            },
            serialize::decodeSimStats, serialize::encodeSimStats, "sim.dmp",
            [&] {
              sim::SimStats St = C.Bench.simulateWith(Map);
              if (T)
                T->count("sim.instrs", double(St.RetiredInstrs));
              return St;
            },
            R.Dmp, CellId);
        R.Gain = harness::ipcImprovement(Out.Baselines[B], R.Dmp);
        R.Ms = secondsSince(T0) * 1e3;
        return R;
      },
      None);
  Out.Seconds = secondsSince(Start);
  collectCounters(Out, Engine, Cache);
  return Out;
}

/// What contextFor does first, split by layer: build each program, then
/// its CFG, \p Repeats times over the suite.  Run outside the timed passes,
/// so the passes build every program once, as the bench_fig* programs do.
void traceBuildSplit(const std::vector<workloads::BenchmarkSpec> &Suite,
                     unsigned Repeats, Tracer &T) {
  for (unsigned I = 0; I < Repeats; ++I)
    for (const workloads::BenchmarkSpec &Spec : Suite) {
      std::optional<workloads::Workload> W;
      {
        Span Sp(&T, "workloads.build");
        W.emplace(workloads::buildBenchmark(Spec));
      }
      Span Sp(&T, "cfg.analysis");
      const cfg::ProgramAnalysis PA(*W->Prog);
    }
}

/// SHA-256 over every baseline and DMP SimStats of the matrix in the
/// committed suite order, independent of the seeded run order.
std::string matrixDigest(const std::vector<workloads::BenchmarkSpec> &Suite,
                         const PassOut &P) {
  serialize::Hasher H;
  for (const workloads::BenchmarkSpec &Committed : workloads::specSuite())
    for (size_t B = 0; B < Suite.size(); ++B) {
      if (std::string(Suite[B].Name) != Committed.Name)
        continue;
      H.update(std::string(Suite[B].Name));
      const std::vector<uint8_t> Base =
          serialize::encodeSimStats(P.Baselines[B]);
      H.update(Base.data(), Base.size());
      for (const StatusOr<CellOut> &Cell : P.Cells[B]) {
        if (!Cell.ok())
          return "FAILED: " + Cell.status().toString();
        const std::vector<uint8_t> Dmp = serialize::encodeSimStats(Cell->Dmp);
        H.update(Dmp.data(), Dmp.size());
      }
    }
  return H.finish().hex();
}

/// The seeded suite in the seed's run order.
std::vector<workloads::BenchmarkSpec> runSuite(uint64_t Seed) {
  const std::vector<workloads::BenchmarkSpec> Suite = seededSuite(Seed);
  std::vector<workloads::BenchmarkSpec> Ordered;
  for (size_t I : seededOrder(Suite.size(), Seed))
    Ordered.push_back(Suite[I]);
  return Ordered;
}

/// Accumulates passes into the end-to-end numbers and checks each pass's
/// digest against the reference.
///
/// Its timings are the fastest pass and each cell's fastest run.  On a
/// shared host a cell's time swings by up to 1.7x from moment to moment,
/// and the share of slow moments differs from run to run; the fastest run
/// is what the code costs, a change that slows the code slows it too, and
/// it matches the fastest probe that states it at the reference host speed
/// (HostSpeed.h).
struct Tally {
  uint64_t Cells = 0, Ok = 0;
  std::vector<double> PassSeconds;
  /// Each cell's fastest successful run, benchmark-major; +inf until one.
  std::vector<double> BestCellMs;

  void add(const std::vector<workloads::BenchmarkSpec> &Suite,
           const PassOut &P, std::string &Reference, RunResult &R,
           const char *What) {
    BestCellMs.resize(Suite.size() * columns().size(),
                      std::numeric_limits<double>::infinity());
    for (size_t B = 0; B < P.Cells.size(); ++B)
      for (size_t Col = 0; Col < P.Cells[B].size(); ++Col) {
        const StatusOr<CellOut> &Cell = P.Cells[B][Col];
        ++Cells;
        if (Cell.ok()) {
          ++Ok;
          double &Best = BestCellMs[B * columns().size() + Col];
          Best = std::min(Best, Cell->Ms);
        }
      }
    PassSeconds.push_back(P.Seconds);
    const std::string D = matrixDigest(Suite, P);
    if (Reference.empty())
      Reference = D;
    else if (D != Reference)
      R.Errors.push_back(formatString("%s: matrix digest %s differs from %s",
                                      What, D.c_str(), Reference.c_str()));
  }
  /// Cells per second of the fastest pass.
  double rate() const {
    return double(Cells) / double(PassSeconds.size()) /
           *std::min_element(PassSeconds.begin(), PassSeconds.end());
  }
  /// The fastest run of every cell that succeeded at least once.
  std::vector<double> bestCellMs() const {
    std::vector<double> Ms;
    for (double V : BestCellMs)
      if (std::isfinite(V))
        Ms.push_back(V);
    return Ms;
  }
};

void putGains(RunResult &R, const PassOut &P) {
  std::vector<double> Heur, Cost;
  for (const auto &Row : P.Cells) {
    if (Row[kHeurColumn].ok())
      Heur.push_back(Row[kHeurColumn]->Gain * 100.0);
    if (Row[kCostColumn].ok())
      Cost.push_back(Row[kCostColumn]->Gain * 100.0);
  }
  putIpcGains(R, Heur, Cost);
}

void checkSeed0(const RunOptions &Opts, const std::string &Digest,
                RunResult &R) {
  if (Opts.Seed == 0 && Digest != Opts.Seed0MatrixDigest)
    R.Errors.push_back("seed-0 matrix digest " + Digest +
                       " differs from the recorded " +
                       Opts.Seed0MatrixDigest);
}

/// Self time of every span named \p Name, in ms.
double selfMs(const Tracer &T, const char *Name) {
  const std::map<std::string, Tracer::Totals> Tot = T.totals();
  auto It = Tot.find(Name);
  return It == Tot.end() ? 0.0 : It->second.SelfMs;
}

/// What the traced half of a run recorded besides its passes.
struct TraceExtras {
  Tracer Build;                  ///< traceBuildSplit's spans.
  unsigned BuildRepeats = 0;
  std::optional<TraceState> Fill; ///< paper-warm: one traced cold fill.
  PassOut FillOut;
};

/// Per-layer metrics of the traced passes (ms metrics are self time per
/// cell; see README.md).
void putLayerMetrics(RunResult &R, const TraceState &S,
                     const std::vector<PassOut> &Passes,
                     const TraceExtras &X) {
  uint64_t Cells = 0;
  double Wall = 0.0;
  uint64_t Hits = 0, Misses = 0, Failed = 0, Retries = 0;
  std::vector<sim::SimStats> Bases, Dmps;
  for (const PassOut &P : Passes) {
    for (const auto &Row : P.Cells)
      for (const StatusOr<CellOut> &Cell : Row) {
        ++Cells;
        if (Cell.ok())
          Dmps.push_back(Cell->Dmp);
      }
    Bases.insert(Bases.end(), P.Baselines.begin(), P.Baselines.end());
    Wall += P.Seconds;
    Hits += P.CacheHits;
    Misses += P.CacheMisses;
    Failed += P.Campaign.CellsFailed;
    Retries += P.Campaign.TransientRetries;
  }
  const std::map<std::string, double> Counts = S.T.counts();
  const auto SelfMs = [&S](const char *Name) { return selfMs(S.T, Name); };
  const auto Count = [&Counts](const char *Name) {
    auto It = Counts.find(Name);
    return It == Counts.end() ? 0.0 : It->second;
  };
  const double PerCell = Cells ? 1.0 / double(Cells) : 0.0;
  auto &M = R.Metrics;
  for (const auto &[Metric, SpanName] :
       {std::pair{"profile.ms", "profile"},
        {"core.select_ms", "core.select"},
        {"sim.baseline_ms", "sim.baseline"},
        {"sim.dmp_ms", "sim.dmp"},
        {"cache.key_ms", "cache.key"},
        {"cache.load_ms", "cache.load"},
        {"cache.decode_ms", "cache.decode"},
        {"harness.context_ms", "harness.context"},
        {"harness.cell_self_ms", "cell"}})
    M[Metric] = SelfMs(SpanName) * PerCell;
  // One suite build per pass, so per cell of a pass.
  const double BuildCells =
      double(X.BuildRepeats) * double(Passes.front().Cells.size()) *
      double(columns().size());
  M["workloads.build_ms"] = selfMs(X.Build, "workloads.build") / BuildCells;
  M["cfg.analysis_ms"] = selfMs(X.Build, "cfg.analysis") / BuildCells;

  const double ProfileS = SelfMs("profile") / 1e3;
  const double SimS = (SelfMs("sim.baseline") + SelfMs("sim.dmp")) / 1e3;
  M["profile.instrs"] = Count("profile.instrs");
  M["profile.minstr_per_s"] =
      ProfileS > 0 ? Count("profile.instrs") / ProfileS / 1e6 : 0.0;
  M["sim.instrs"] = Count("sim.instrs");
  M["sim.minstr_per_s"] = SimS > 0 ? Count("sim.instrs") / SimS / 1e6 : 0.0;
  M["core.dmp_sims"] = double(S.DmpSims);
  // Every pass asks for the same maps, so distinct maps per pass over the
  // sims of one pass.
  M["core.distinct_map_frac"] =
      S.DmpSims ? double(S.DistinctMaps.size()) * double(Passes.size()) /
                      double(S.DmpSims)
                : 0.0;

  putSimOutcomes(R, Bases, Dmps);

  M["cache.hits"] = double(Hits);
  M["cache.misses"] = double(Misses);
  M["cache.hit_frac"] =
      Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
  M["cache.bytes_read"] = double(S.BytesRead);
  // Stores happen only in paper-warm's traced fill; paper-cold has none.
  M["cache.store_ms"] = 0.0;
  M["cache.stores"] = 0.0;
  M["cache.bytes_written"] = 0.0;
  if (X.Fill) {
    const double FillCells =
        double(X.FillOut.Cells.size()) * double(columns().size());
    M["cache.store_ms"] = selfMs(X.Fill->T, "cache.store") / FillCells;
    M["cache.stores"] = double(X.FillOut.CacheStores);
    M["cache.bytes_written"] = double(X.Fill->BytesWritten);
    R.Notes.push_back(formatString(
        "traced cold fill: %llu stores, %.0f bytes, encode+store %.1f ms",
        static_cast<unsigned long long>(X.FillOut.CacheStores),
        M["cache.bytes_written"], selfMs(X.Fill->T, "cache.store")));
  }

  const double Busy = S.T.rootSeconds();
  M["exec.threads"] = kThreads;
  M["exec.busy_s"] = Busy;
  M["exec.idle_s"] = std::max(0.0, kThreads * Wall - Busy);
  M["exec.util_frac"] = Wall > 0 ? Busy / (kThreads * Wall) : 0.0;
  M["harness.cells"] = double(Cells);
  M["harness.cells_failed"] = double(Failed);
  M["harness.retries"] = double(Retries);
  putUnreached(R, {"serve.submit_ms", "serve.fetch_ms", "serve.polls_per_cell",
                   "serve.cells_dispatched", "serve.cells_retried",
                   "serve.jobs_deduped", "serve.client_resubmits"});

  const double Pipeline =
      SelfMs("profile") + SelfMs("sim.baseline") + SelfMs("sim.dmp");
  M["trace.pipeline_self_frac"] = Busy > 0 ? Pipeline / 1e3 / Busy : 0.0;
  const double NPasses = double(Passes.size());
  R.Notes.push_back(formatString(
      "traced split per pass: build+cfg %.1f ms, profile %.1f ms, baseline "
      "sim %.1f ms, select %.1f ms, dmp sim %.1f ms, cache key+load+decode "
      "%.1f ms",
      (selfMs(X.Build, "workloads.build") + selfMs(X.Build, "cfg.analysis")) /
          double(X.BuildRepeats),
      SelfMs("profile") / NPasses, SelfMs("sim.baseline") / NPasses,
      SelfMs("core.select") / NPasses, SelfMs("sim.dmp") / NPasses,
      (SelfMs("cache.key") + SelfMs("cache.load") + SelfMs("cache.decode")) /
          NPasses));
}

std::string freshDir(const std::string &Root, const std::string &Name) {
  const std::string Dir = Root + "/" + Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir;
}

/// The timed phase shared by both workloads.  \p CacheDir is "" for
/// paper-cold.  Untraced: bench_fig* passes until Seconds elapse, with
/// \p BetweenPasses run untimed between two passes.  Traced:
/// split passes without and with spans, alternating until Seconds elapse
/// (so both see the same host), then the untimed build split and, on
/// paper-warm, one traced cold fill into a fresh cache for the store path.
void timedPhase(const RunOptions &Opts,
                const std::vector<workloads::BenchmarkSpec> &Suite,
                const std::string &CacheDir, std::string &Reference,
                RunResult &R,
                const std::function<void()> &BetweenPasses = nullptr) {
  Clock::time_point Start = Clock::now();
  if (!Opts.Trace) {
    Tally Untraced;
    PassOut Last;
    for (;;) {
      Last = runUntracedPass(Suite, CacheDir);
      Untraced.add(Suite, Last, Reference, R, "untraced pass");
      if (secondsSince(Start) >= Opts.Seconds)
        break;
      if (BetweenPasses)
        BetweenPasses();
    }
    R.Attempted = Untraced.Cells;
    R.Failed = Untraced.Cells - Untraced.Ok;
    R.Metrics["cells_per_s"] = Untraced.rate();
    R.Metrics["ok_frac"] =
        Untraced.Cells ? double(Untraced.Ok) / double(Untraced.Cells) : 0.0;
    putLatencies(R, Untraced.bestCellMs());
    putGains(R, Last);
    R.Notes.push_back(formatString(
        "%zu benchmarks x %zu columns = %zu cells per pass, %.1f passes, "
        "%u threads",
        Suite.size(), columns().size(), Suite.size() * columns().size(),
        double(Untraced.Cells) / double(Suite.size() * columns().size()),
        kThreads));
    std::string Times;
    for (double S : Untraced.PassSeconds)
      Times += formatString(" %.3f", S);
    R.Notes.push_back("pass seconds:" + Times +
                      " (cells_per_s from the fastest; cell_ms_* over each "
                      "cell's fastest run)");
    return;
  }

  TraceState S;
  Tally Plain, Traced;
  std::vector<PassOut> Passes;
  do {
    Plain.add(Suite, runSplitPass(Suite, CacheDir, nullptr, 0), Reference, R,
              "split pass");
    Passes.push_back(runSplitPass(Suite, CacheDir, &S,
                                  int64_t(Passes.size() + 1) * 1'000'000));
    Traced.add(Suite, Passes.back(), Reference, R, "traced pass");
  } while (secondsSince(Start) < Opts.Seconds);

  TraceExtras X;
  X.BuildRepeats = 5;
  traceBuildSplit(Suite, X.BuildRepeats, X.Build);
  Tally Fill;
  if (!CacheDir.empty()) {
    X.Fill.emplace();
    X.FillOut = runSplitPass(Suite, freshDir(Opts.WorkDir, "traced-fill"),
                             &*X.Fill, 0);
    Fill.add(Suite, X.FillOut, Reference, R, "traced cold fill");
  }
  R.Attempted = Plain.Cells + Traced.Cells + Fill.Cells;
  R.Failed = R.Attempted - Plain.Ok - Traced.Ok - Fill.Ok;
  putLayerMetrics(R, S, Passes, X);
  putTraceMetrics(R, S.T, Opts, Plain.rate(), Traced.rate());
}

} // namespace

RunResult runPaperCold(const RunOptions &Opts) {
  RunResult R;
  // Set-up: generate the seeded suite and build every program and CFG, so
  // that a recipe that fails to build fails here, untimed.  It takes
  // milliseconds, so one run times it many times, a few samples before
  // the timed phase and the rest between its passes: one short stretch of
  // a shared host can be much slower or faster than the run as a whole.
  std::vector<double> SetupS;
  std::vector<workloads::BenchmarkSpec> Suite;
  const auto SetUp = [&](unsigned Times) {
    for (unsigned I = 0; I < Times; ++I)
      SetupS.push_back(HostSpeed::setUpSeconds([&] {
        Suite = runSuite(Opts.Seed);
        for (const workloads::BenchmarkSpec &Spec : Suite) {
          const workloads::Workload W = workloads::buildBenchmark(Spec);
          const cfg::ProgramAnalysis PA(*W.Prog);
        }
      }));
  };
  SetUp(kSetupRepeats);

  // The first pass is the reference every later pass must reproduce.
  std::string Reference;
  resetPeakRss(R);
  timedPhase(Opts, Suite, "", Reference, R, [&] { SetUp(kSetupRepeats); });
  R.Metrics["setup_s"] = median(SetupS);
  checkSeed0(Opts, Reference, R);
  R.Metrics["peak_rss_mb"] = peakRssMb();
  R.Notes.push_back("matrix digest " + Reference);
  return R;
}

RunResult runPaperWarm(const RunOptions &Opts) {
  RunResult R;
  const std::vector<workloads::BenchmarkSpec> Suite = runSuite(Opts.Seed);
  // Set-up: fill a fresh cache with a cold run of the matrix.  The fill
  // computes every value from scratch, exactly as paper-cold does, so the
  // replays below are checked against paper-cold's values for this seed.
  std::vector<double> SetupS;
  std::string CacheDir, Reference;
  for (unsigned I = 0; I < kFillSetupRepeats; ++I) {
    if (!CacheDir.empty())
      fs::remove_all(CacheDir);
    const Clock::time_point T0 = Clock::now();
    CacheDir = freshDir(Opts.WorkDir, "cache-" + std::to_string(I));
    const PassOut Fill = runUntracedPass(Suite, CacheDir);
    SetupS.push_back(secondsSince(T0));
    const std::string D = matrixDigest(Suite, Fill);
    if (!Reference.empty() && D != Reference)
      R.Errors.push_back("cold fills disagree: " + D + " vs " + Reference);
    Reference = D;
  }
  R.Metrics["setup_s"] = median(SetupS);
  // A fill runs on the engine's threads, which probes on this thread do
  // not follow; it is stated at the reference speed as the passes are.
  R.ScaleSetup = true;
  checkSeed0(Opts, Reference, R);
  resetPeakRss(R);
  timedPhase(Opts, Suite, CacheDir, Reference, R);
  R.Metrics["peak_rss_mb"] = peakRssMb();
  R.Notes.push_back("matrix digest " + Reference);
  return R;
}

} // namespace paperbench
