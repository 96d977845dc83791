//===- paperbench/src/main.cpp - The paper benchmark's command line -------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   paperbench --workload NAME --seed N --seconds S --trace 0|1
///              [--work-dir DIR] [--trace-file FILE]
///   paperbench --write-manifest FILE
///
/// Runs one workload (Workloads.h) and prints its metrics by name and unit,
/// then, as the last line of stdout, one JSON object with the keys correct,
/// attempted, failed and metrics: every end-to-end metric of the manifest
/// with --trace 0, every per-layer metric with --trace 1.  Exits 0 when
/// every output check passed, 1 when one failed, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "HostSpeed.h"
#include "Manifest.h"
#include "Trace.h"
#include "Workloads.h"

#include "support/ExitCodes.h"
#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sys/resource.h>
#include <tuple>
#include <unistd.h>

using namespace dmp;
namespace fs = std::filesystem;

namespace paperbench {

void resetPeakRss(RunResult &R) {
  // Linux: writing 5 to clear_refs resets VmHWM to the current VmRSS.
  std::ofstream ClearRefs("/proc/self/clear_refs");
  ClearRefs << "5";
  ClearRefs.flush();
  if (!ClearRefs)
    R.Notes.push_back("cannot reset the peak RSS: peak_rss_mb is the "
                      "lifetime peak, set-up included");
}

double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  rusage Self{};
  getrusage(RUSAGE_SELF, &Self);
  return double(Self.ru_maxrss) / 1024.0;
}

void putUnreached(RunResult &R, std::initializer_list<const char *> Names) {
  for (const char *Name : Names)
    R.Metrics[Name] = 0.0;
}

void putLatencies(RunResult &R, const std::vector<double> &CellMs) {
  for (const auto &[Metric, P] :
       {std::pair{"cell_ms_p50", 50.0}, {"cell_ms_p90", 90.0}}) {
    const std::optional<Percentile> Pct = nearestRank(CellMs, P);
    if (!Pct) {
      R.Errors.push_back(formatString(
          "%s: %zu cell samples leave fewer than 10 above the rank", Metric,
          CellMs.size()));
      continue;
    }
    R.Metrics[Metric] = Pct->Value;
    R.Notes.push_back(formatString("%s over %zu cells (%zu above it)", Metric,
                                   Pct->Samples, Pct->Above));
  }
}

void putIpcGains(RunResult &R, const std::vector<double> &HeurPct,
                 const std::vector<double> &CostPct) {
  const size_t Suite = workloads::specSuite().size();
  for (const auto &[Metric, Gains, Paper] :
       {std::tuple{"ipc_gain_heur_pct", &HeurPct, 20.4},
        {"ipc_gain_cost_pct", &CostPct, 20.2}}) {
    const std::optional<double> G = geomeanGainPct(*Gains);
    if (!G || Gains->size() != Suite) {
      R.Errors.push_back(formatString("%s: %zu of %zu benchmarks usable",
                                      Metric, Gains->size(), Suite));
      continue;
    }
    R.Metrics[Metric] = *G;
    R.Notes.push_back(formatString(
        "%s = %+.2f%% over %zu benchmarks in simulated time (paper %+.1f%%, "
        "difference %+.2f points)",
        Metric, *G, Gains->size(), Paper, *G - Paper));
  }
  R.Notes.push_back("simulated caches start empty in each simulation");
}

void putSimOutcomes(RunResult &R, const std::vector<sim::SimStats> &Bases,
                    const std::vector<sim::SimStats> &Dmps) {
  const auto Aggregate = [](const std::vector<sim::SimStats> &All,
                            double &Ipc, double &FlushPerK) {
    uint64_t Instrs = 0, Cycles = 0, Flushes = 0;
    for (const sim::SimStats &St : All) {
      Instrs += St.RetiredInstrs;
      Cycles += St.Cycles;
      Flushes += St.Flushes;
    }
    Ipc = Cycles ? double(Instrs) / double(Cycles) : 0.0;
    FlushPerK = Instrs ? 1000.0 * double(Flushes) / double(Instrs) : 0.0;
  };
  Aggregate(Bases, R.Metrics["sim.base_ipc"],
            R.Metrics["sim.flush_per_kinstr_base"]);
  Aggregate(Dmps, R.Metrics["sim.dmp_ipc"],
            R.Metrics["sim.flush_per_kinstr_dmp"]);
}

void putTraceMetrics(RunResult &R, const Tracer &T, const RunOptions &Opts,
                     double UntracedCellsPerS, double TracedCellsPerS) {
  // Enough spans for several passes of paper-warm; a file of every span of
  // that run would run to 150 MB.
  constexpr size_t kMaxFileSpans = 50'000;
  std::ofstream Out(Opts.TracePath);
  Out << T.chromeJson(kMaxFileSpans);
  if (!Out)
    R.Errors.push_back("cannot write trace file " + Opts.TracePath);
  const size_t Spans = T.spans().size();
  R.Metrics["trace.spans"] = double(Spans);
  R.Metrics["trace.cells_per_s_untraced"] = UntracedCellsPerS;
  R.Metrics["trace.cells_per_s_traced"] = TracedCellsPerS;
  R.Metrics["trace.overhead_frac"] =
      UntracedCellsPerS > 0 ? 1.0 - TracedCellsPerS / UntracedCellsPerS : 0.0;
  R.Notes.push_back(formatString(
      "trace: %zu of %zu spans written to %s; cells/s untraced %.2f, traced "
      "%.2f",
      std::min(Spans, kMaxFileSpans), Spans, Opts.TracePath.c_str(),
      UntracedCellsPerS, TracedCellsPerS));
}

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: paperbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-file FILE]\n"
               "       paperbench --write-manifest FILE\n"
               "workloads:",
               Why);
  for (const WorkloadDecl &W : workloadDecls())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  std::exit(exitcode::Usage);
}

uint64_t parseUnsigned(const char *Flag, const char *Text) {
  char *End = nullptr;
  errno = 0;
  const unsigned long long V = std::strtoull(Text, &End, 10);
  if (!*Text || *End || errno || Text[0] == '-')
    usage(formatString("%s needs a whole number, got '%s'", Flag, Text)
              .c_str());
  return V;
}

/// Reads the recorded seed-0 digests next to the sources.
void readExpected(RunOptions &Opts) {
  const std::string Path = std::string(PAPERBENCH_SOURCE_DIR) + "/expected.json";
  StatusOr<json::Value> Doc = json::parseFile(Path);
  const json::Value *Matrix = Doc.ok() ? Doc->findString("seed0_matrix_digest")
                                       : nullptr;
  const json::Value *Campaign =
      Doc.ok() ? Doc->findString("campaign_digest_17cell") : nullptr;
  if (!Matrix || !Campaign) {
    std::fprintf(stderr, "paperbench: cannot read digests from %s\n",
                 Path.c_str());
    std::exit(exitcode::Failure);
  }
  Opts.Seed0MatrixDigest = Matrix->asString();
  Opts.CampaignDigest = Campaign->asString();
}

/// States the run's throughput and cell times at the reference host speed
/// (HostSpeed.h): times divided by the run's slowdown, rates multiplied by
/// it.  The measured values are noted beside them.  setup_s too, unless
/// HostSpeed::setUpSeconds already stated each set-up at that speed.
void atReferenceSpeed(RunResult &R, const HostSpeed &Host) {
  const double Slowdown = Host.slowdown();
  std::string Measured;
  for (const auto &[Metric, Rate] :
       {std::pair{"cells_per_s", true}, {"setup_s", false},
        {"cell_ms_p50", false}, {"cell_ms_p90", false}}) {
    if (Metric == std::string("setup_s") && !R.ScaleSetup)
      continue;
    auto It = R.Metrics.find(Metric);
    if (It == R.Metrics.end())
      continue;
    Measured += formatString(" %s=%.6g", Metric, It->second);
    It->second = Rate ? It->second * Slowdown : It->second / Slowdown;
  }
  const std::vector<double> &Probes = Host.probeMs();
  R.Notes.push_back(formatString(
      "host probe: 10th percentile %.3f ms of %zu (fastest %.3f, median "
      "%.3f; reference %.2f ms), slowdown %.4f; timings below are at the "
      "reference speed, measured:%s",
      Slowdown * HostSpeed::kReferenceProbeMs, Probes.size(),
      *std::min_element(Probes.begin(), Probes.end()), median(Probes),
      HostSpeed::kReferenceProbeMs, Slowdown, Measured.c_str()));
}

int writeManifest(const char *Path) {
  std::ofstream Out(Path);
  Out << manifestJson();
  if (!Out) {
    std::fprintf(stderr, "paperbench: cannot write %s\n", Path);
    return exitcode::Failure;
  }
  return exitcode::Ok;
}

} // namespace

} // namespace paperbench

int main(int Argc, char **Argv) {
  using namespace paperbench;
  RunOptions Opts;
  std::string Workload;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    if (Flag == "--write-manifest")
      return writeManifest(Value);
    if (Flag == "--workload")
      Workload = Value;
    else if (Flag == "--seed")
      Opts.Seed = parseUnsigned("--seed", Value), HaveSeed = true;
    else if (Flag == "--seconds")
      Opts.Seconds = double(parseUnsigned("--seconds", Value)),
      HaveSeconds = true;
    else if (Flag == "--trace") {
      const uint64_t T = parseUnsigned("--trace", Value);
      if (T > 1)
        usage("--trace takes 0 or 1");
      Opts.Trace = T == 1;
      HaveTrace = true;
    } else if (Flag == "--work-dir")
      Opts.WorkDir = Value;
    else if (Flag == "--trace-file")
      Opts.TracePath = Value;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (Opts.Seconds < 1)
    usage("--seconds must be at least 1");
  RunResult (*Run)(const RunOptions &) = nullptr;
  if (Workload == "paper-cold")
    Run = runPaperCold;
  else if (Workload == "paper-warm")
    Run = runPaperWarm;
  else if (Workload == "serve-cells")
    Run = runServeCells;
  else
    usage(("unknown workload " + Workload).c_str());
  readExpected(Opts);
  if (Opts.WorkDir.empty())
    Opts.WorkDir = formatString(".bench_build/work-%d", int(::getpid()));
  if (Opts.TracePath.empty())
    Opts.TracePath = ".bench_build/trace-" + Workload + ".json";
  fs::create_directories(Opts.WorkDir);

  // End-to-end timings are stated at a reference host speed; the traced
  // run's per-layer numbers are not.
  std::optional<HostSpeed> Host;
  if (!Opts.Trace)
    Host.emplace();
  RunResult R;
  try {
    R = Run(Opts);
  } catch (const std::exception &E) {
    fs::remove_all(Opts.WorkDir);
    std::fprintf(stderr, "paperbench: %s failed: %s\n", Workload.c_str(),
                 E.what());
    return exitcode::Failure;
  }
  fs::remove_all(Opts.WorkDir);
  if (Host) {
    Host->stop();
    atReferenceSpeed(R, *Host);
  }

  // Exactly the manifest's metrics for this mode: every end-to-end metric
  // untraced, every per-layer metric traced.  A workload sets each one,
  // 0 where it does not reach that layer (see README.md).
  const std::vector<MetricDecl> &Declared =
      Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  std::string Json = "{";
  std::printf("paperbench %s seed=%llu seconds=%g trace=%d\n",
              Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
              Opts.Seconds, int(Opts.Trace));
  for (const std::string &Note : R.Notes)
    std::printf("  %s\n", Note.c_str());
  for (const MetricDecl &M : Declared) {
    auto It = R.Metrics.find(M.Name);
    if (It == R.Metrics.end()) {
      R.Errors.push_back(std::string("metric ") + M.Name + " not measured");
      continue;
    }
    std::printf("  %-28s %16.6f %s\n", M.Name, It->second, M.Unit);
    Json += formatString("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                         Json.size() > 1 ? ", " : "", M.Name,
                         fullDigits(It->second).c_str(), M.Unit);
  }
  Json += "}";
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "paperbench: CHECK FAILED: %s\n", E.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Json.c_str());
  return R.Errors.empty() ? exitcode::Ok : exitcode::Failure;
}
