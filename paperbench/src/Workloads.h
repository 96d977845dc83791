//===- paperbench/src/Workloads.h - The three benchmark workloads -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// paper-cold and paper-warm (PaperWorkloads.cpp) and serve-cells
/// (ServeWorkload.cpp).  Each runs its set-up several times, then its
/// timed phase for the requested seconds, then checks its outputs.  With
/// tracing on, the timed phase compares runs without and with spans, and
/// the result carries the per-layer metrics instead (README.md).
///
//===----------------------------------------------------------------------===//

#ifndef PAPERBENCH_WORKLOADS_H
#define PAPERBENCH_WORKLOADS_H

#include "sim/SimStats.h"

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace paperbench {

/// Busy threads (paper-*) or worker processes plus clients (serve-cells)
/// a workload may keep running: one core of a 4-core host stays free.
constexpr unsigned kThreads = 3;
/// Set-ups per run (the run reports their median): paper-cold's set-up
/// (building the suite) takes milliseconds and runs this many times before
/// the timed phase and again between its passes; serve-cells' (a cold start
/// to the first served cell) takes about 0.1 s and runs this many times
/// before the timed phase and half as many after each session;
/// paper-warm's (a cold fill of the cache) takes about 2 s.
constexpr unsigned kSetupRepeats = 10;
constexpr unsigned kServeSetupRepeats = 10;
constexpr unsigned kFillSetupRepeats = 5;

struct RunOptions {
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch directory of this run (caches, sockets); removed afterwards.
  std::string WorkDir;
  /// Where the traced run writes its Chrome trace-event file.
  std::string TracePath;
  /// Expected seed-0 digests (paperbench/expected.json).
  std::string Seed0MatrixDigest;
  std::string CampaignDigest;
};

struct RunResult {
  /// Correctness failures; a run with any is reported as incorrect.
  std::vector<std::string> Errors;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// setup_s is wall time, to be stated at the reference host speed with
  /// the run's slowdown like the timed phase (a set-up on the workload's
  /// own threads); false when HostSpeed::setUpSeconds timed each set-up.
  bool ScaleSetup = false;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> Notes;
};

RunResult runPaperCold(const RunOptions &Opts);
RunResult runPaperWarm(const RunOptions &Opts);
RunResult runServeCells(const RunOptions &Opts);

// Shared by the workload files.

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Resets this process's peak resident set to its current one, so that
/// peakRssMb() covers only what runs afterwards (the timed phase, not the
/// set-up).  Notes a host where that is not possible; there the peak is
/// the process's lifetime peak.
void resetPeakRss(RunResult &R);

/// Peak resident set of this process since resetPeakRss(), in MB.
double peakRssMb();

/// Sets each per-layer metric in \p Names to 0 for a layer the workload
/// does not reach from the benchmark's side.  A declared metric that no
/// workload sets fails the run.
void putUnreached(RunResult &R, std::initializer_list<const char *> Names);

/// Fills cell_ms_p50/cell_ms_p90 from per-cell durations; a sample too
/// small for a p90 with ten samples above it is an error.
void putLatencies(RunResult &R, const std::vector<double> &CellMs);

/// Fills ipc_gain_heur_pct/ipc_gain_cost_pct (geomeans over the run's
/// benchmarks) and notes the paper's +20.4/+20.2 beside them.
void putIpcGains(RunResult &R, const std::vector<double> &HeurPct,
                 const std::vector<double> &CostPct);

/// Fills sim.base_ipc, sim.dmp_ipc and the two flush rates: aggregate
/// simulated IPC (retired instructions over cycles) and flushes per 1000
/// retired instructions of the given baseline and DMP simulations.
void putSimOutcomes(RunResult &R, const std::vector<dmp::sim::SimStats> &Bases,
                    const std::vector<dmp::sim::SimStats> &Dmps);

/// Writes the trace file and the trace.* metrics shared by all workloads.
class Tracer;
void putTraceMetrics(RunResult &R, const Tracer &T, const RunOptions &Opts,
                     double UntracedCellsPerS, double TracedCellsPerS);

} // namespace paperbench

#endif // PAPERBENCH_WORKLOADS_H
