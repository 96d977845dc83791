//===- harness/Engine.h - Parallel experiment engine ------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExperimentEngine: fans the (benchmark × configuration) experiment matrix
/// out across a work-stealing pool as a task graph.  Per benchmark the
/// engine builds the paper pipeline with explicit dependency edges
///
///   build workload ──> profile(run) ──┬──> cell(config 0)
///                 ├──> profile(train) ┼──> cell(config 1)
///                 └──> baseline sim ──┴──> ...
///
/// so independent cells of different benchmarks overlap freely.  Results
/// land in a pre-allocated [benchmark][config] matrix of StatusOr slots:
/// each cell writes only its own slot and computes a pure function of its
/// benchmark and config index, which is why results are bit-identical for
/// any --jobs value.
///
/// Failure semantics (DESIGN.md "Failure semantics"): campaigns run to
/// completion.  A failing cell records its Status in its slot instead of
/// poisoning the graph; Transient failures (e.g. injected faults, resource
/// blips) are retried a bounded, deterministic number of times — attempts
/// are indexed, never wall-clock-timed, and a cell is deterministic, so a
/// retried cell is bit-identical to an undisturbed one.  The artifact cache
/// is the campaign's only checkpoint: every profile, trace, baseline and
/// DMP simulation a cell computes is stored there as it completes, so an
/// interrupted campaign rerun on the same cache recomputes only what had
/// not finished.
///
/// Shutdown and deadlines (DESIGN.md "Shutdown, deadlines, and crash
/// recovery"): the engine drains on guard::processToken() — after a SIGINT
/// no new cell starts, in-flight cells finish, drained cells hold a
/// Cancelled Status with origin "guard" and are counted as CellsCancelled
/// (not failures).  --deadline arms a wall-clock watchdog whose trip also
/// aborts in-flight simulations (SimConfig::Cancel); --cell-instr-budget
/// arms the deterministic per-cell instruction watchdog
/// (SimConfig::WatchdogInstrBudget), so a runaway cell yields
/// ResourceExhausted — a "--" gap, identically for any --jobs value.
///
/// EngineOptions carries the shared bench-driver command line:
/// --jobs N, --cache-dir DIR, --no-cache, --deadline SEC,
/// --cell-instr-budget N, --cache-budget BYTES, --limit-benches N.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_HARNESS_ENGINE_H
#define DMP_HARNESS_ENGINE_H

#include "exec/TaskGraph.h"
#include "exec/ThreadPool.h"
#include "fault/Fault.h"
#include "guard/Guard.h"
#include "harness/Experiment.h"
#include "support/Status.h"

#include <atomic>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dmp::harness {

/// Bounded deterministic retries for Transient cell failures.
constexpr unsigned kCellRetries = 3;

/// Execution knobs shared by every bench driver.
struct EngineOptions {
  unsigned Jobs = exec::ThreadPool::defaultThreadCount();
  std::string CacheDir = defaultCacheDir();
  bool UseCache = true;
  /// Wall-clock budget for the whole campaign in seconds; 0 = none.  At
  /// expiry no new cell starts and in-flight simulations abort at their
  /// next cancel poll; drained cells render as "--" gaps.
  double DeadlineSeconds = 0.0;
  /// Per-cell retired-instruction watchdog (SimConfig::WatchdogInstrBudget);
  /// 0 = none.  Deterministic across --jobs values.
  uint64_t CellInstrBudget = 0;
  /// Cache size budget in bytes; 0 = unbounded.  After the campaign,
  /// blobs are evicted oldest-first down to this budget.
  uint64_t CacheBudgetBytes = 0;
  /// Truncate the benchmark suite to its first N entries (0 = all); for
  /// fast CLI-level tests and smoke runs, surfaced as --limit-benches.
  size_t LimitBenches = 0;
  /// The token the engine drains on; null means guard::processToken()
  /// (the SIGINT/SIGTERM token).  Tests point this at their own token to
  /// exercise draining without delivering signals.
  const guard::CancelToken *DrainToken = nullptr;

  /// $DMP_CACHE_DIR, or ".dmp-cache" under the working directory.
  static std::string defaultCacheDir();

  /// Parses the shared driver flags (--jobs N, --cache-dir DIR, --no-cache,
  /// --deadline SEC, --cell-instr-budget N, --cache-budget BYTES,
  /// --limit-benches N, --help).  Prints usage and exits with
  /// exitcode::Usage on any unknown/invalid argument, so drivers reject
  /// stray flags instead of ignoring them.
  static EngineOptions parseOrExit(int Argc, char **Argv);

  static void printUsage(const char *Prog, std::FILE *Out);
};

/// One (benchmark, configuration) unit of work handed to a cell function.
struct Cell {
  BenchContext &Bench;
  size_t Config; ///< Column index in the result matrix.
};

/// Which pipeline stages the engine should complete before cells run.
/// Cells may still lazily compute an unlisted stage (BenchContext is
/// thread-safe); listing them here just maximizes overlap.
struct CellNeeds {
  bool RunProfile = true;
  bool TrainProfile = false;
  bool Baseline = true;
};

/// Campaign-level accounting across every runMatrix call of an engine.
struct CampaignCounters {
  uint64_t CellsComputed = 0; ///< Cells whose function ran to success.
  uint64_t CellsFailed = 0;   ///< Cells that ended with a non-ok Status.
  /// Cells shed by a drain (signal) or deadline — origin "guard" Statuses.
  /// Kept apart from CellsFailed: a cancelled cell is not a defect, and a
  /// rerun will compute it.
  uint64_t CellsCancelled = 0;
  uint64_t TransientRetries = 0;
  /// One "<bench>/<config>: <status>" line per failed cell, in the order
  /// failures were recorded (scheduling-dependent; sort for comparisons).
  std::vector<std::string> Failures;
};

/// Runs experiment matrices over a pool, with prepared benchmark contexts
/// reused across calls (so e.g. the two panels of Figure 5 share profiles
/// and baselines).
class ExperimentEngine {
public:
  ExperimentEngine(ExperimentOptions Options, const EngineOptions &Engine);

  exec::ThreadPool &pool() { return Pool; }
  const ExperimentOptions &options() const { return Options; }
  serialize::ArtifactCache *cache() const { return Options.Cache.get(); }

  /// Runs CellFn for every (benchmark, config) cell and returns the
  /// [benchmark][config] result matrix in Specs × [0, ConfigCount) order,
  /// regardless of scheduling.  The campaign runs to completion: a failed
  /// cell holds its Status (rendered as a gap by Reports) and everything
  /// else still computes.
  template <typename R>
  std::vector<std::vector<StatusOr<R>>>
  runMatrix(const std::vector<workloads::BenchmarkSpec> &Specs,
            size_t ConfigCount, const std::function<R(Cell &)> &CellFn,
            const CellNeeds &Needs = CellNeeds()) {
    std::vector<std::vector<StatusOr<R>>> Results(
        Specs.size(), std::vector<StatusOr<R>>(ConfigCount));
    std::vector<BenchContext *> Contexts(Specs.size(), nullptr);
    exec::TaskGraph Graph;
    // Cell task id -> matrix slot, to map stage-failure cancellations.
    std::vector<std::pair<size_t, size_t>> SlotOf;
    std::vector<exec::TaskGraph::TaskId> CellTasks;
    for (size_t B = 0; B < Specs.size(); ++B) {
      const workloads::BenchmarkSpec &Spec = Specs[B];
      const auto Build = Graph.add(
          [this, &Spec, &Contexts, B] { Contexts[B] = &contextFor(Spec); });
      std::vector<exec::TaskGraph::TaskId> StageIds;
      if (Needs.RunProfile)
        StageIds.push_back(Graph.add(
            [&Contexts, B] {
              Contexts[B]->profileData(workloads::InputSetKind::Run);
            },
            {Build}));
      if (Needs.TrainProfile)
        StageIds.push_back(Graph.add(
            [&Contexts, B] {
              Contexts[B]->profileData(workloads::InputSetKind::Train);
            },
            {Build}));
      if (Needs.Baseline)
        StageIds.push_back(
            Graph.add([&Contexts, B] { Contexts[B]->baseline(); }, {Build}));
      if (StageIds.empty())
        StageIds.push_back(Build);
      for (size_t C = 0; C < ConfigCount; ++C) {
        CellTasks.push_back(Graph.add(
            [this, &Results, &Contexts, &Spec, &CellFn, B, C] {
              runCell<R>(Results[B][C], *Contexts[B], Spec, C, CellFn);
            },
            StageIds));
        SlotOf.push_back({B, C});
      }
    }
    const std::vector<Status> Statuses =
        Graph.runAll(Pool, [this] { return cancelStatus(); });
    // Cells cancelled because a pipeline stage failed (or because the
    // campaign is draining) never wrote their slot; surface the
    // cancellation (or the stage's own failure) there.  Drain/deadline
    // cancellations carry origin "guard" and are accounted separately —
    // they are shed work, not defects.
    for (size_t I = 0; I < CellTasks.size(); ++I) {
      const Status &S = Statuses[CellTasks[I]];
      if (!S.ok()) {
        const auto [B, C] = SlotOf[I];
        Results[B][C] = S;
        if (S.origin() == "guard")
          noteCancelled();
        else
          noteFailure(Specs[B].Name, C, S);
      }
    }
    return Results;
  }

  /// The prepared context for \p Spec, built on first use (thread-safe).
  BenchContext &contextFor(const workloads::BenchmarkSpec &Spec);

  /// Campaign accounting so far (copy; safe to call between matrices).
  CampaignCounters campaign() const;

  /// "jobs=N cache=DIR hits=H misses=M stores=S corrupt=C store-failures=F
  /// orphans-reaped=O evicted=E lock-contention=L retries=R failed-cells=X
  /// cancelled=Z sims=N memo-hits=M traces=T" for driver footers
  /// (cache fields omitted with cache=off).  sims counts the DMP
  /// simulations the contexts ran, memo-hits the simulateWith calls their
  /// memos answered (an equal machine view was already simulated), traces
  /// the correct paths they recorded.
  std::string statsLine() const;

  /// "" when no cell failed, else one indented line per failure for
  /// driver footers.
  std::string failureLines() const;

  /// Ok while the campaign should keep launching cells; otherwise the
  /// drain token's or deadline's Status (origin "guard").
  Status cancelStatus() const;

  /// True once the drain token or deadline tripped.
  bool draining() const { return !cancelStatus().ok(); }

  /// Runs the cache eviction pass when --cache-budget was given.  Returns
  /// blobs evicted (0 when unbudgeted, cache off, or under budget).
  uint64_t evictCacheToBudget();

private:
  template <typename R>
  void runCell(StatusOr<R> &Slot, BenchContext &Bench,
               const workloads::BenchmarkSpec &Spec, size_t C,
               const std::function<R(Cell &)> &CellFn) {
    const std::string OpKey =
        std::string(Spec.Name) + "/" + std::to_string(C);
    const unsigned MaxAttempts = kCellRetries + 1;
    for (unsigned Attempt = 0; Attempt < MaxAttempts; ++Attempt) {
      // Drain check per attempt: a retry loop must not outlive the
      // campaign's shutdown either.
      if (Status Drain = cancelStatus(); !Drain.ok()) {
        Slot = std::move(Drain);
        noteCancelled();
        return;
      }
      Status Failure;
      try {
        if (Faults) {
          Status Injected =
              Faults->check(fault::Site::TaskRun, OpKey, Attempt);
          if (!Injected.ok())
            throw StatusError(std::move(Injected));
        }
        Cell Unit{Bench, C};
        Slot = CellFn(Unit);
        noteComputed();
        return;
      } catch (const StatusError &E) {
        Failure = E.status();
      } catch (const std::exception &E) {
        Failure = Status::invariant(E.what(), "harness::ExperimentEngine");
      } catch (...) {
        Failure = Status::invariant("cell threw a non-std exception",
                                    "harness::ExperimentEngine");
      }
      if (Failure.origin() == "guard") {
        // The cell aborted because the campaign is draining or hit its
        // deadline mid-simulation: shed work, never retried, never a
        // failure line.
        Slot = std::move(Failure);
        noteCancelled();
        return;
      }
      if (Failure.code() == ErrorCode::Transient &&
          Attempt + 1 < MaxAttempts) {
        noteRetry();
        continue;
      }
      Slot = Failure;
      noteFailure(Spec.Name, C, Failure);
      return;
    }
  }

  void noteComputed();
  void noteRetry();
  void noteCancelled();
  void noteFailure(const std::string &Bench, size_t Config,
                   const Status &S);

  ExperimentOptions Options;
  exec::ThreadPool Pool;
  /// Deadline state: an engine-owned token tripped by the wall-clock
  /// watchdog (also wired into Options.Sim.Cancel so in-flight simulations
  /// abort), plus the external drain token (process SIGINT token unless a
  /// test overrides it).
  guard::CancelToken DeadlineToken;
  std::unique_ptr<guard::DeadlineWatchdog> Watchdog;
  const guard::CancelToken *Drain = nullptr;
  uint64_t CacheBudgetBytes = 0;
  /// Test hook ($DMP_TEST_RAISE_SIGINT_AFTER_CELLS): raise SIGINT once
  /// after this many computed cells, so CLI tests can interrupt a campaign
  /// at a deterministic point.  0 = off.
  uint64_t RaiseSigintAfterCells = 0;
  std::atomic<bool> SigintRaised{false};
  std::shared_ptr<const fault::Injector> Faults;
  mutable std::mutex ContextsMutex;
  std::map<std::string, std::unique_ptr<BenchContext>> Contexts;
  mutable std::mutex CampaignMutex;
  CampaignCounters Campaign;
};

/// The first \p Engine.LimitBenches entries of \p Suite (all of it when
/// the limit is 0): the --limit-benches view every engine driver applies
/// to its suite.
std::vector<workloads::BenchmarkSpec>
limitSuite(const std::vector<workloads::BenchmarkSpec> &Suite,
           const EngineOptions &Engine);

/// The shared engine-driver epilogue: runs the cache eviction pass, prints
/// the "[engine] ..." stats footer and any failure lines to stderr, and
/// returns the driver's exit code — exitcode::Interrupted (with a rerun
/// hint) after a SIGINT/SIGTERM drain, exitcode::Ok otherwise.  Call it as
/// the driver's `return` statement.
int finishDriver(ExperimentEngine &Engine);

} // namespace dmp::harness

#endif // DMP_HARNESS_ENGINE_H
