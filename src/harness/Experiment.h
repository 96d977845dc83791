//===- harness/Experiment.h - Profile->select->simulate pipeline ----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BenchContext: one benchmark prepared for experiments — the built program,
/// its CFG analyses, lazily collected profiles for both input sets, the
/// recorded correct path of the run input, and a cached baseline
/// simulation.  All benches and examples run through this, so identical
/// stages are computed once per benchmark.
///
/// The canonical paper pipeline is:
///   profile(input) -> selectDivergeBranches(...) -> simulateDmp(run input)
/// compared against the baseline: simulateDmp(run input) with an empty
/// core::DivergeMap.  Both simulations replay
/// one sim::CorrectPathTrace of the run input, recorded once per context
/// (sim/DmpCore.h explains why the replay is exact).
///
/// When ExperimentOptions::Cache is set, profiles, traces and simulation
/// results are additionally backed by the content-addressed artifact cache: the
/// cache key digests the workload spec, input set, and profiler/simulator
/// config (see the *CacheKey functions), so each (benchmark, input) cell is
/// profiled once ever — across benches and dmpc invocations — and a warm
/// cache replays bit-identical results.
///
/// A DMP simulation reads only the machine view of its annotations
/// (sim::machineView: branches, CFM points, the always-predicate and loop
/// fields, not merge probabilities, the loop header, the hammock sub-kind
/// or the CFM order).  simulateWith simulates that view, and both its memo
/// key and simCacheKey digest serialize::encodeDivergeMap of the view, so
/// maps the core cannot tell apart share one simulation and one cache
/// entry.  Neither key folds in the core::SelectionConfig that produced
/// the map: each is the exact input simulated, so every selector and
/// threshold setting whose view is machine-equal shares one result.  An
/// empty view is the baseline machine, so it shares the baseline's.
///
/// A BenchContext is safe to share between concurrent experiment tasks.
/// Every stage — profile(run), profile(train), the correct-path trace, the
/// baseline and each DMP simulation — goes through one in-flight memo
/// keyed by the stage and what it reads: the last three run under a
/// sim::SimConfig (options().Sim when omitted) and are keyed by the field
/// groups they read (SimConfig.h), so a dpred-mode sweep shares the trace
/// and the baseline.  The first request for a key computes it (around the
/// artifact cache when one is configured); concurrent requests for the
/// same key wait for that computation; later requests read the result
/// without touching the simulator or the cache.  A computation that throws
/// (e.g. a ResourceExhausted cell watchdog or a guard cancellation) is
/// erased from the memo before its failure reaches every waiter, so a
/// failure is never replayed: the next request recomputes.  Everything
/// else is read-only after construction.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_HARNESS_EXPERIMENT_H
#define DMP_HARNESS_EXPERIMENT_H

#include "cfg/Analysis.h"
#include "core/DivergeSelector.h"
#include "fault/Fault.h"
#include "profile/Profiler.h"
#include "serialize/ArtifactCache.h"
#include "serialize/ProfileIO.h"
#include "sim/SimConfig.h"
#include "sim/Simulator.h"
#include "support/Status.h"
#include "workloads/SpecSuite.h"

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>

namespace dmp::harness {

/// Knobs of one experiment campaign.
struct ExperimentOptions {
  profile::ProfileOptions Profile;
  core::SelectionConfig Selection;
  sim::SimConfig Sim;

  /// Content-addressed artifact cache shared by every context of the
  /// campaign; null disables caching.
  std::shared_ptr<serialize::ArtifactCache> Cache;

  /// Optional deterministic fault injector shared by the campaign.  The
  /// engine wires it onto the cache, cell execution, and the profile
  /// decode path; null runs fault-free.
  std::shared_ptr<const fault::Injector> Faults;

  ExperimentOptions() {
    // Benches run every benchmark under many configurations; bound each
    // simulation so full campaigns stay minutes, not hours.  Programs are
    // ~1-2M dynamic instructions, so most runs complete anyway.
    Profile.MaxInstrs = 4'000'000;
    Sim.MaxInstrs = 1'200'000;
  }
};

/// Cache key for the profile of (\p Spec, \p Kind) under \p Options.
/// \p SchemaVersion is folded into the digest so bumping
/// serialize::kCacheSchemaVersion retires every stale entry (tests pass an
/// explicit version to prove the miss).
serialize::Digest
profileCacheKey(const workloads::BenchmarkSpec &Spec,
                workloads::InputSetKind Kind,
                const profile::ProfileOptions &Options,
                uint32_t SchemaVersion = serialize::kCacheSchemaVersion);

/// Cache key for one simulation of \p Spec (run input) under \p Config.
/// \p Diverge selects the DMP simulation keyed by the machine view of the
/// annotations (sim::machineView), the key BenchContext::simulateWith
/// stores under; null keys the baseline.  The key is exactly the
/// simulation's input, so \p Selection is not part of it: the simulator
/// never reads the selector configuration, and maps selected under
/// different thresholds but with an equal view share one entry.  The
/// parameter stays so existing callers keep compiling.  An empty
/// \p Diverge keys the baseline too: its simulation is the baseline.
serialize::Digest
simCacheKey(const workloads::BenchmarkSpec &Spec, const sim::SimConfig &Config,
            const core::DivergeMap *Diverge,
            const core::SelectionConfig *Selection = nullptr,
            uint32_t SchemaVersion = serialize::kCacheSchemaVersion);

/// Cache key for the correct-path trace of \p Spec's run input under
/// \p Config's recorder fields (the only ones the recorder reads).
serialize::Digest
traceCacheKey(const workloads::BenchmarkSpec &Spec,
              const sim::SimConfig &Config,
              uint32_t SchemaVersion = serialize::kCacheSchemaVersion);

/// The trace, the baseline or a DMP simulation (Experiment.cpp).
enum class SimStage;

/// One benchmark, prepared once, simulated many times.
class BenchContext {
public:
  BenchContext(const workloads::BenchmarkSpec &Spec,
               const ExperimentOptions &Options);

  const workloads::BenchmarkSpec &spec() const { return Spec; }
  const workloads::Workload &workload() const { return W; }
  const cfg::ProgramAnalysis &analysis() const { return *PA; }
  const ExperimentOptions &options() const { return Options; }

  /// Profile collected on the given input set (cached in-memory and, when
  /// an artifact cache is configured, on disk).
  const profile::ProfileData &profileData(workloads::InputSetKind Kind);

  /// The recorded correct path of the run input, which the baseline and
  /// every DMP simulation under \p Config replay (cached).
  const sim::CorrectPathTrace &trace(const sim::SimConfig &Config) const;
  const sim::CorrectPathTrace &trace() const { return trace(Options.Sim); }

  /// Baseline simulation on the run input under \p Config (cached).
  const sim::SimStats &baseline(const sim::SimConfig &Config) const {
    return simStage(core::DivergeMap(), Config);
  }
  const sim::SimStats &baseline() const { return baseline(Options.Sim); }

  /// DMP simulation on the run input with the given annotations: runs
  /// their machine view, memoized by its content.  An empty map returns
  /// baseline(\p Config).
  sim::SimStats simulateWith(const core::DivergeMap &Diverge,
                             const sim::SimConfig &Config) const;
  sim::SimStats simulateWith(const core::DivergeMap &Diverge) const {
    return simulateWith(Diverge, Options.Sim);
  }

  /// Selection only (no simulation), for selection-centric experiments.
  core::DivergeMap select(const core::SelectionFeatures &Features,
                          workloads::InputSetKind ProfileInput,
                          core::SelectionStats *Stats = nullptr);

  /// DMP simulations this context ran (memo and cache misses).
  uint64_t dmpSims() const { return DmpSims.load(std::memory_order_relaxed); }
  /// simulateWith calls answered by the memo instead (an equal machine
  /// view was already simulated).
  uint64_t memoHits() const {
    return MemoHits.load(std::memory_order_relaxed);
  }
  /// Correct-path traces this context recorded (memo and cache misses).
  uint64_t traces() const { return Traces.load(std::memory_order_relaxed); }

private:
  /// A stage's value, or the Status its computation failed with.
  using StageValue = std::variant<Status, profile::ProfileData, sim::SimStats,
                                  sim::CorrectPathTrace>;

  /// The value of stage \p MemoKey: memoized, or computed once by the
  /// artifact-cache steps (see the file comment).  \p Hit, when given,
  /// reports a memo hit.
  template <typename V, typename KeyFn, typename ComputeFn>
  const V &stage(const std::string &MemoKey, const KeyFn &CacheKey,
                 const ComputeFn &Compute, bool *Hit = nullptr) const;

  /// The key bytes of \p Config for \p Stage: OwnConfigKeys' when \p Config
  /// is options().Sim, else built in \p Scratch.
  const std::string &configKey(const sim::SimConfig &Config, SimStage Stage,
                               std::string &Scratch) const;

  /// The simulation of machine view \p View under \p Config, the baseline
  /// when \p View is empty; \p Hit, when given, reports a memo hit.
  const sim::SimStats &simStage(const core::DivergeMap &View,
                                const sim::SimConfig &Config,
                                bool *Hit = nullptr) const;

  ExperimentOptions Options;
  workloads::BenchmarkSpec Spec;
  workloads::Workload W;
  std::unique_ptr<cfg::ProgramAnalysis> PA;
  std::vector<int64_t> RunImage;
  /// The key bytes of options().Sim for each SimStage, computed once so a
  /// memo hit under the context's own config builds none.
  std::string OwnConfigKeys[3];

  mutable std::mutex MemoMutex;
  /// Stage key -> its (possibly in-flight) value.  Entries are erased only
  /// by a failed computation, so a successful value's address is stable.
  mutable std::unordered_map<std::string, std::shared_future<StageValue>>
      Memo;
  mutable std::atomic<uint64_t> DmpSims{0};
  mutable std::atomic<uint64_t> MemoHits{0};
  mutable std::atomic<uint64_t> Traces{0};
};

/// Percent IPC improvement of \p Dmp over \p Base (0.204 = +20.4%).
double ipcImprovement(const sim::SimStats &Base, const sim::SimStats &Dmp);

} // namespace dmp::harness

#endif // DMP_HARNESS_EXPERIMENT_H
