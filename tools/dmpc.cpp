//===- tools/dmpc.cpp - The DMP profiling-compiler driver ----------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Command-line driver mirroring the paper's binary-analysis toolset
// (Section 6.1): profile a benchmark, select diverge branches with a chosen
// algorithm, emit the annotation list that would be "attached to the
// binary", and optionally simulate baseline vs DMP.
//
// Usage:
//   dmpc <benchmark> [options]
//
// Options:
//   --algo=<name>                 selection algorithm (default all); the
//                                 usage text lists every name from
//                                 harness::selectionPresets()
//   --profile-input=<run|train>   profiling input set (default run)
//   --max-instr=<n>               MAX_INSTR threshold (default 50)
//   --min-merge-prob=<p>          MIN_MERGE_PROB (default 0.01)
//   --2d-filter                   drop always-easy branches (2D profiling)
//   --dump-dot                    print Graphviz CFGs with the selection
//   --emit-map                    print the serialized diverge map
//   --dump-program                print the program listing
//   --simulate                    run baseline and DMP simulations
//   --verify                      run the differential oracle (reference
//                                 emulator vs baseline/DMP-selected/
//                                 DMP-adversarial simulator legs) and exit
//                                 non-zero on any retired-state mismatch
//                                 or invariant violation
//   --inject-fault=<0|1|2>        with --verify: inject a canary fault into
//                                 the DMP-selected leg (1 = drop first
//                                 retired store, 2 = flip a bit of r1);
//                                 the oracle must then fail
//   --sim-instrs=<n>              simulation budget (default 1200000)
//   --jobs=<n>                    worker threads (baseline and DMP
//                                 simulations overlap under --simulate)
//   --cache-dir=<dir>             artifact cache location (default
//                                 $DMP_CACHE_DIR or .dmp-cache)
//   --no-cache                    recompute; skip the artifact cache
//   --remote=<socket>             run the cell on a dmp_served daemon
//                                 instead of in-process (implies
//                                 --simulate; the printed stats digest is
//                                 bit-identical to a local run)
//   --ping                        with --remote: health-probe the daemon
//                                 and print its epoch, load snapshot
//                                 (jobs/cells in flight, shed counters)
//                                 and the round-trip time; no benchmark
//                                 argument needed
//   --list                        list available benchmarks and exit
//
// Unknown options and malformed numeric values are rejected with usage and
// a non-zero exit, so scripted sweeps fail loudly instead of silently
// running the default configuration.
//
// dmpc does not lint its selection: `dmp_lint <benchmark> --algo=<name>`
// does, and the tier-1 test dmp_lint_every_preset lints every map dmpc can
// select, so a local --simulate runs what --remote runs.
//
//===----------------------------------------------------------------------===//

#include "cfg/DotExport.h"
#include "check/Oracle.h"
#include "core/AnnotationIO.h"
#include "exec/TaskGraph.h"
#include "guard/Guard.h"
#include "harness/CellRun.h"
#include "harness/Engine.h"
#include "ir/Printer.h"
#include "profile/TwoDProfile.h"
#include "serve/Client.h"
#include "support/ExitCodes.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace dmp;

namespace {

struct CliOptions {
  /// The cell: benchmark, --algo, --profile-input, --max-instr,
  /// --min-merge-prob and --sim-instrs.
  harness::CellSpec Cell;
  bool TwoDFilter = false;
  bool EmitMap = false;
  bool DumpProgram = false;
  bool DumpDot = false;
  bool Simulate = false;
  bool Verify = false;
  unsigned InjectFault = 0;
  unsigned Jobs = exec::ThreadPool::defaultThreadCount();
  std::string CacheDir = harness::EngineOptions::defaultCacheDir();
  bool UseCache = true;
  std::string RemoteSocket; ///< non-empty: ship the cell to a dmp_served
  bool Ping = false;        ///< --remote health probe, no cell shipped
};

void usage() {
  std::fprintf(stderr,
               "usage: dmpc <benchmark> [--algo=...] [--profile-input=...] "
               "[--max-instr=N] [--min-merge-prob=P] [--2d-filter] "
               "[--emit-map] [--dump-program] [--simulate] [--verify] "
               "[--inject-fault=0|1|2] [--sim-instrs=N] "
               "[--jobs=N] [--cache-dir=DIR] [--no-cache] "
               "[--remote=SOCKET [--ping]] | --list\n"
               "  --algo=<%s> (default all)\n",
               harness::selectionPresetNames().c_str());
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts) {
  StatusOr<std::vector<std::string>> Args =
      harness::parseCellFlags(Argc, Argv, Opts.Cell);
  if (!Args.ok()) {
    std::fprintf(stderr, "error: %s\n", Args.status().message().c_str());
    return false;
  }
  for (const std::string &Arg : *Args) {
    uint64_t U = 0;
    if (Arg == "--list") {
      for (const auto &Spec : workloads::specSuite())
        std::printf("%s\n", Spec.Name);
      std::exit(0);
    } else if (Arg.rfind("--sim-instrs=", 0) == 0) {
      if (!parseU64(Arg.substr(13), U) || U == 0) {
        std::fprintf(stderr, "error: invalid --sim-instrs value '%s'\n",
                     Arg.c_str() + 13);
        return false;
      }
      Opts.Cell.SimInstrs = U;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseU64(Arg.substr(7), U) || U == 0 || U > 1024) {
        std::fprintf(stderr, "error: invalid --jobs value '%s'\n",
                     Arg.c_str() + 7);
        return false;
      }
      Opts.Jobs = static_cast<unsigned>(U);
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Opts.CacheDir = Arg.substr(12);
      if (Opts.CacheDir.empty()) {
        std::fprintf(stderr, "error: empty --cache-dir value\n");
        return false;
      }
    } else if (Arg == "--no-cache") {
      Opts.UseCache = false;
    } else if (Arg.rfind("--remote=", 0) == 0) {
      Opts.RemoteSocket = Arg.substr(9);
      if (Opts.RemoteSocket.empty()) {
        std::fprintf(stderr, "error: empty --remote value\n");
        return false;
      }
    } else if (Arg == "--ping") {
      Opts.Ping = true;
    } else if (Arg == "--2d-filter") {
      Opts.TwoDFilter = true;
    } else if (Arg == "--emit-map") {
      Opts.EmitMap = true;
    } else if (Arg == "--dump-program") {
      Opts.DumpProgram = true;
    } else if (Arg == "--dump-dot") {
      Opts.DumpDot = true;
    } else if (Arg == "--simulate") {
      Opts.Simulate = true;
    } else if (Arg == "--verify") {
      Opts.Verify = true;
    } else if (Arg.rfind("--inject-fault=", 0) == 0) {
      if (!parseU64(Arg.substr(15), U) || U > 2) {
        std::fprintf(stderr, "error: invalid --inject-fault value '%s'\n",
                     Arg.c_str() + 15);
        return false;
      }
      Opts.InjectFault = static_cast<unsigned>(U);
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option %s\n", Arg.c_str());
      return false;
    } else if (Opts.Cell.Benchmark.empty()) {
      Opts.Cell.Benchmark = Arg;
    } else {
      return false;
    }
  }
  // --ping is a daemon probe, not a cell run: no benchmark needed.
  return !Opts.Cell.Benchmark.empty() || Opts.Ping;
}

/// The selection summary line, identical for local and remote runs.
void printSelection(const harness::CellSpec &Cell, size_t Branches,
                    double AvgCfmPoints) {
  std::printf("%s: algo=%s profile=%s -> %zu diverge branches "
              "(avg %.2f CFM points)\n",
              Cell.Benchmark.c_str(), Cell.Algo.c_str(),
              workloads::inputSetName(Cell.ProfileInput), Branches,
              AvgCfmPoints);
}

void printSimReport(const sim::SimStats &Base, const sim::SimStats &Dmp) {
  std::printf("baseline: IPC %.3f  MPKI %.2f  flushes/kinstr %.2f\n",
              Base.ipc(), Base.mpki(), Base.flushesPerKiloInstr());
  std::printf("DMP     : IPC %.3f  flushes/kinstr %.2f  dpred entries "
              "%llu  merged %llu  saved flushes %llu\n",
              Dmp.ipc(), Dmp.flushesPerKiloInstr(),
              static_cast<unsigned long long>(Dmp.DpredEntries),
              static_cast<unsigned long long>(Dmp.DpredMerged),
              static_cast<unsigned long long>(Dmp.DpredSavedFlushes));
  std::printf("speedup : %s\n",
              formatPercent(harness::ipcImprovement(Base, Dmp)).c_str());
}

/// `dmpc --remote=SOCKET --ping`: one PING round trip, rendered as the
/// daemon's epoch, its load snapshot and the measured RTT.
int runPing(const CliOptions &Opts) {
  serve::Client Client;
  if (Status S = Client.connect(Opts.RemoteSocket); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return exitcode::Failure;
  }
  const auto T0 = std::chrono::steady_clock::now();
  uint64_t Epoch = 0;
  StatusOr<serve::PongLoad> Load = Client.serverLoad(&Epoch);
  const double RttMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - T0)
          .count();
  if (!Load.ok()) {
    std::fprintf(stderr, "error: %s\n", Load.status().toString().c_str());
    return exitcode::Failure;
  }
  std::printf("pong: epoch=%llu rtt=%.3fms\n",
              static_cast<unsigned long long>(Epoch), RttMs);
  std::printf("load: jobs-active=%llu cells-running=%llu "
              "jobs-shed=%llu conns-shed=%llu\n",
              static_cast<unsigned long long>(Load->JobsActive),
              static_cast<unsigned long long>(Load->CellsRunning),
              static_cast<unsigned long long>(Load->JobsShed),
              static_cast<unsigned long long>(Load->ConnsShed));
  return exitcode::Ok;
}

/// `dmpc --remote`: ship the cell to a dmp_served daemon and render the
/// same report a local --simulate run prints, including the stats digest —
/// which must come back bit-identical to local execution.
int runRemote(const CliOptions &Opts) {
  if (Status S = Opts.Cell.validate(); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return exitcode::Usage;
  }

  serve::Client Client;
  if (Status S = Client.connect(Opts.RemoteSocket); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return exitcode::Failure;
  }
  serve::SubmitRequest Req;
  Req.Cells.push_back(Opts.Cell);
  // runCampaign rides through daemon blips and restarts: reconnect under
  // deterministic backoff, epoch check, idempotent resubmit.
  StatusOr<serve::FetchReplyData> Reply = Client.runCampaign(Req);
  if (!Reply.ok()) {
    std::fprintf(stderr, "error: %s\n", Reply.status().toString().c_str());
    return guard::interrupted() ? exitcode::Interrupted : exitcode::Failure;
  }
  // Results are in hand: release the job's durable record.  Best-effort —
  // if the ack is lost the server GC (or the next identical submit's
  // dedup) cleans up.
  (void)Client.ack(Reply->Job);
  if (Reply->Cells.size() != 1) {
    std::fprintf(stderr, "error: server returned %zu cells for 1 submitted\n",
                 Reply->Cells.size());
    return exitcode::Failure;
  }
  const StatusOr<harness::CellResult> &Cell = Reply->Cells[0];
  if (!Cell.ok()) {
    std::fprintf(stderr, "error: %s\n", Cell.status().toString().c_str());
    return exitcode::Failure;
  }

  printSelection(Opts.Cell, Cell->DivergeBranches, Cell->AvgCfmPoints);
  printSimReport(Cell->Baseline, Cell->Dmp);
  std::printf("digest  : %s\n",
              harness::cellResultDigest(*Cell).hex().c_str());
  return exitcode::Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  guard::installSignalHandlers();
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return exitcode::Usage;
  }

  if (Opts.Ping) {
    if (Opts.RemoteSocket.empty()) {
      std::fprintf(stderr, "error: --ping requires --remote=SOCKET\n");
      return exitcode::Usage;
    }
    return runPing(Opts);
  }

  const harness::CellSpec &Cell = Opts.Cell;
  const workloads::BenchmarkSpec *Spec = workloads::findBenchmark(Cell.Benchmark);
  if (!Spec) {
    std::fprintf(stderr, "error: unknown benchmark '%s' (try --list)\n",
                 Cell.Benchmark.c_str());
    return exitcode::Usage;
  }

  if (!Opts.RemoteSocket.empty()) {
    // Remote mode runs exactly one profile->select->simulate cell on the
    // daemon; the local-only analysis/report modes don't ship.
    if (Opts.TwoDFilter || Opts.EmitMap || Opts.DumpProgram || Opts.DumpDot ||
        Opts.Verify) {
      std::fprintf(stderr,
                   "error: --remote supports only the simulate pipeline "
                   "(no --2d-filter/--emit-map/--dump-*/--verify)\n");
      return exitcode::Usage;
    }
    return runRemote(Opts);
  }

  const harness::ExperimentOptions Options = harness::cellOptions(
      Cell, Opts.UseCache
                     ? std::make_shared<serialize::ArtifactCache>(Opts.CacheDir)
                     : nullptr);
  harness::BenchContext Bench(*Spec, Options);

  if (Opts.DumpProgram)
    std::printf("%s\n", ir::printProgram(*Bench.workload().Prog).c_str());

  // parseCellFlags admits only preset names.
  core::DivergeMap Map =
      harness::findSelectionPreset(Cell.Algo)->Select(Bench, Cell.ProfileInput);
  printSelection(Cell, Map.size(), Map.avgCfmPoints());

  if (Opts.TwoDFilter) {
    const profile::TwoDProfileData TwoD = profile::collectTwoDProfile(
        *Bench.workload().Prog,
        Bench.workload().buildImage(Cell.ProfileInput));
    size_t Dropped = 0;
    Map = profile::filterAlwaysEasyBranches(Map, TwoD, &Dropped);
    std::printf("2D-profiling filter dropped %zu always-easy branches; %zu "
                "remain\n",
                Dropped, Map.size());
  }

  if (Opts.EmitMap)
    std::printf("%s", core::serializeDivergeMap(Map).c_str());

  if (Opts.DumpDot) {
    cfg::DotOptions DotOpts;
    const auto &Prof = Bench.profileData(Cell.ProfileInput);
    DotOpts.Edges = &Prof.Edges;
    DotOpts.Diverge = &Map;
    for (const auto &F : Bench.workload().Prog->functions())
      std::printf("%s\n", cfg::exportFunctionDot(*F, DotOpts).c_str());
  }

  // Phase boundaries double as interrupt points: a first SIGINT lets the
  // current phase finish, then we stop cleanly with the distinct exit code
  // instead of starting the (expensive) oracle or simulation phases.
  if (guard::interrupted()) {
    std::fprintf(stderr, "[guard] interrupted: skipping remaining phases\n");
    return exitcode::Interrupted;
  }

  if (Opts.Verify) {
    check::OracleOptions OracleOpts;
    OracleOpts.MaxInstrs = Cell.SimInstrs;
    OracleOpts.InjectFault = Opts.InjectFault;
    const check::OracleReport Report = check::runOracle(
        *Bench.workload().Prog, Bench.analysis(),
        Bench.workload().buildImage(workloads::InputSetKind::Run),
        OracleOpts);
    for (const check::LegResult &Leg : Report.Legs)
      std::printf("verify %-15s %s\n", Leg.Name.c_str(),
                  Leg.Errors.empty() ? "ok" : "FAILED");
    if (!Report.ok()) {
      std::fprintf(stderr, "%s", Report.summary().c_str());
      std::fprintf(stderr, "verify: %s FAILED\n", Cell.Benchmark.c_str());
      return exitcode::Failure;
    }
    std::printf("verify: %s ok (all legs match the reference emulator)\n",
                Cell.Benchmark.c_str());
  }

  if (guard::interrupted()) {
    std::fprintf(stderr, "[guard] interrupted: skipping remaining phases\n");
    return exitcode::Interrupted;
  }

  if (Opts.Simulate) {
    // The baseline and DMP simulations are independent; overlap them when
    // more than one worker is available.
    sim::SimStats Dmp;
    {
      exec::ThreadPool Pool(Opts.Jobs);
      exec::TaskGraph Graph;
      Graph.add([&Bench] { Bench.baseline(); });
      Graph.add([&Bench, &Map, &Dmp] { Dmp = Bench.simulateWith(Map); });
      Graph.run(Pool);
    }
    const sim::SimStats &Base = Bench.baseline();
    printSimReport(Base, Dmp);
    // The digest a --remote run of the same spec must reproduce.
    harness::CellResult Local;
    Local.Baseline = Base;
    Local.Dmp = Dmp;
    Local.DivergeBranches = Map.size();
    Local.AvgCfmPoints = Map.avgCfmPoints();
    std::printf("digest  : %s\n",
                harness::cellResultDigest(Local).hex().c_str());
  }

  if (const serialize::ArtifactCache *Cache = Options.Cache.get())
    std::fprintf(stderr, "[cache] %s\n", Cache->countersLine().c_str());
  return guard::interrupted() ? exitcode::Interrupted : exitcode::Ok;
}
