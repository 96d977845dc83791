//===- tools/dmp_lint.cpp - Batch static checker CLI ---------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Batch front end for the analyze:: static checker: build one or more
// synthetic workloads, profile them, run diverge-branch selection, and lint
// the program + profile + annotations through the standard pass pipeline
// (IRLint, AnnotationConsistency, CfmLegality, ProfileSanity).  With
// --map=FILE the annotations are read from a serialized diverge map
// instead of running selection, which is how externally produced (or
// corrupted) annotation files are vetted before simulation.
//
// Usage:
//   dmp_lint [benchmark...] [options]
//
// Options:
//   --all                        lint every benchmark of the suite (the
//                                default when no benchmark is named)
//   --algo=<...>                 selection algorithm (a name from
//                                harness::selectionPresets(); default all)
//   --profile-input=<run|train>  profiling input set (default run)
//   --map=FILE                   lint FILE as the annotation set for the
//                                (single) named benchmark; also checks the
//                                serialized text for duplicate entries
//   --format=<text|machine>      diagnostic rendering (default text;
//                                machine is one tab-separated line per
//                                diagnostic: code, severity, function,
//                                block, addr, message)
//   --profile-instrs=<n>         profiler instruction budget (default
//                                4000000; lower for quick smoke lints)
//   --max-instr=<n>              selection MAX_INSTR threshold (default 50)
//   --min-merge-prob=<p>         selection MIN_MERGE_PROB (default 0.01)
//   --werror                     exit non-zero on warnings too
//   --meld-report                print the dataflow meldability TSV (one
//                                row per annotated branch, a leading
//                                workload column) instead of linting
//   --json                       print one machine-readable JSON snapshot
//                                of all diagnostics to stdout (round-trips
//                                through dmp::json)
//   --help                       full option and exit-code documentation
//
// Exit codes (support/ExitCodes.h): 0 clean, 1 diagnostics at gating
// severity, 2 usage error.  --help prints the same contract.
//
//===----------------------------------------------------------------------===//

#include "analyze/Analyze.h"
#include "bench/BenchJson.h"
#include "core/AnnotationIO.h"
#include "dataflow/Meldability.h"
#include "harness/CellRun.h"
#include "support/ExitCodes.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace dmp;

namespace {

struct CliOptions {
  std::vector<std::string> Benchmarks;
  bool All = false;
  /// --algo, --profile-input, --max-instr, --min-merge-prob and
  /// --profile-instrs; the benchmark comes from Benchmarks.
  harness::CellSpec Cell;
  std::string MapFile;
  bool MachineFormat = false;
  bool WarningsAsErrors = false;
  bool MeldReport = false;
  bool Json = false;
  bool Help = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: dmp_lint [benchmark...] [--all] [--algo=...] "
               "[--profile-input=run|train] [--map=FILE] "
               "[--format=text|machine] [--profile-instrs=N] "
               "[--max-instr=N] [--min-merge-prob=P] [--werror] "
               "[--meld-report] [--json] [--help]\n"
               "  --algo=<%s> (default all)\n",
               harness::selectionPresetNames().c_str());
}

void help() {
  std::printf(
      "usage: dmp_lint [benchmark...] [options]\n"
      "\n"
      "Build the named synthetic workloads (all of them with --all, the\n"
      "default), profile them, run diverge-branch selection, and lint the\n"
      "program + profile + annotations through the standard analyze pass\n"
      "pipeline (IRLint, AnnotationConsistency, CfmLegality,\n"
      "PredicationSafety, ProfileSanity).\n"
      "\n"
      "Options:\n"
      "  --all                        lint every benchmark of the suite\n"
      "  --algo=<name>                selection algorithm (default all),\n"
      "                               one of %s\n"
      "  --profile-input=<run|train>  profiling input set (default run)\n"
      "  --map=FILE                   lint FILE as the annotation set for\n"
      "                               the (single) named benchmark\n"
      "  --format=<text|machine>      stderr diagnostic rendering (default\n"
      "                               text; machine is one tab-separated\n"
      "                               line per diagnostic)\n"
      "  --profile-instrs=<n>         profiler instruction budget (default\n"
      "                               4000000)\n"
      "  --max-instr=<n>              selection MAX_INSTR (default 50)\n"
      "  --min-merge-prob=<p>         selection MIN_MERGE_PROB (default\n"
      "                               0.01)\n"
      "  --werror                     warnings gate the exit code too\n"
      "  --meld-report                print the meldability TSV (one row\n"
      "                               per annotated branch, leading\n"
      "                               workload column) to stdout instead\n"
      "                               of linting; always exits 0 unless a\n"
      "                               usage error occurs\n"
      "  --json                       print one JSON snapshot of every\n"
      "                               diagnostic to stdout (schema\n"
      "                               dmp-bench/1, bench \"lint\"); replaces\n"
      "                               the text summary, exit codes are\n"
      "                               unchanged\n"
      "  --help                       this text\n"
      "\n"
      "Exit codes:\n"
      "  0  clean: no error diagnostics (and no warnings under --werror)\n"
      "  1  gating diagnostics: at least one error-severity finding, or\n"
      "     any warning when --werror is set\n"
      "  2  usage error: unknown option/benchmark/algorithm, invalid\n"
      "     option value, or unreadable --map file\n",
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
    if (Arg == "--all") {
      Opts.All = true;
    } else if (Arg.rfind("--map=", 0) == 0) {
      Opts.MapFile = Arg.substr(6);
      if (Opts.MapFile.empty()) {
        std::fprintf(stderr, "error: empty --map value\n");
        return false;
      }
    } else if (Arg.rfind("--format=", 0) == 0) {
      const std::string V = Arg.substr(9);
      if (V == "machine")
        Opts.MachineFormat = true;
      else if (V != "text") {
        std::fprintf(stderr, "error: invalid --format '%s'\n", V.c_str());
        return false;
      }
    } else if (Arg.rfind("--profile-instrs=", 0) == 0) {
      if (!parseU64(Arg.substr(17), U) || U == 0) {
        std::fprintf(stderr, "error: invalid --profile-instrs value '%s'\n",
                     Arg.c_str() + 17);
        return false;
      }
      Opts.Cell.ProfileInstrs = U;
    } else if (Arg == "--werror") {
      Opts.WarningsAsErrors = true;
    } else if (Arg == "--meld-report") {
      Opts.MeldReport = true;
    } else if (Arg == "--json") {
      Opts.Json = true;
    } else if (Arg == "--help" || Arg == "-h") {
      Opts.Help = true;
      return true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option %s\n", Arg.c_str());
      return false;
    } else {
      Opts.Benchmarks.push_back(Arg);
    }
  }
  if (Opts.Benchmarks.empty())
    Opts.All = true;
  if (!Opts.MapFile.empty() && (Opts.All || Opts.Benchmarks.size() != 1)) {
    std::fprintf(stderr,
                 "error: --map requires exactly one named benchmark\n");
    return false;
  }
  if (Opts.MeldReport && Opts.Json) {
    std::fprintf(stderr,
                 "error: --meld-report and --json both claim stdout; "
                 "pick one\n");
    return false;
  }
  return true;
}

/// Appends one diagnostics element to the --json snapshot's per-workload
/// array (caller opened the array).
void appendJsonWorkload(bench::BenchJson &Json,
                        const workloads::BenchmarkSpec &Spec,
                        const core::DivergeMap &Map,
                        const analyze::DiagnosticSink &Sink) {
  Json.beginElement();
  Json.string("name", Spec.Name);
  Json.integer("annotations", Map.size());
  Json.integer("errors", Sink.errorCount());
  Json.integer("warnings", Sink.warningCount());
  Json.beginArray("diagnostics");
  for (const analyze::Diagnostic &D : Sink.diagnostics()) {
    Json.beginElement();
    Json.string("code", analyze::diagCodeName(D.Code));
    Json.string("severity", analyze::severityName(D.Sev));
    Json.string("function", D.Loc.Function);
    Json.string("block", D.Loc.Block);
    if (D.Loc.Addr != ir::InvalidAddr)
      Json.integer("addr", D.Loc.Addr);
    Json.string("message", D.Message);
    Json.endElement();
  }
  Json.endArray();
  Json.endElement();
}

/// Lints one benchmark; returns false when diagnostics gate (errors, or
/// warnings under --werror).  With \p Json the snapshot element replaces
/// the stdout/stderr report; \p First gates the --meld-report header line.
bool lintBenchmark(const workloads::BenchmarkSpec &Spec,
                   const CliOptions &Opts, bool &UsageError,
                   bench::BenchJson *Json, bool First) {
  const harness::CellSpec &Cell = Opts.Cell;
  harness::BenchContext Bench(Spec, harness::cellOptions(Cell, nullptr));

  analyze::DiagnosticSink Sink;
  core::DivergeMap Map;
  if (!Opts.MapFile.empty()) {
    std::ifstream In(Opts.MapFile);
    if (!In) {
      std::fprintf(stderr, "error: cannot read map file '%s'\n",
                   Opts.MapFile.c_str());
      UsageError = true;
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    const std::string Text = Buf.str();
    // Duplicate entries only exist in the serialized text: the in-memory
    // map collapses them at parse time.
    analyze::lintDivergeMapText(Text, Sink);
    const Status ParseStatus = core::parseDivergeMap(Text, Map);
    if (!ParseStatus.ok()) {
      std::fprintf(stderr, "%s: map parse failed: %s\n", Spec.Name,
                   ParseStatus.toString().c_str());
      return false;
    }
  } else {
    // parseCellFlags admits only preset names.
    Map = harness::findSelectionPreset(Cell.Algo)->Select(Bench,
                                                          Cell.ProfileInput);
  }

  if (Opts.MeldReport) {
    const ir::Program &P = *Bench.workload().Prog;
    const dataflow::ProgramDataflow PD(P);
    const dataflow::MeldReport Report =
        dataflow::analyzeMeldability(P, Bench.analysis(), Map, PD);
    std::string Tsv =
        dataflow::renderMeldReportTsv(Report, {"workload"}, {Spec.Name});
    if (!First)
      Tsv.erase(0, Tsv.find('\n') + 1);
    std::fputs(Tsv.c_str(), stdout);
    return true;
  }

  analyze::AnalysisInput Input;
  Input.P = Bench.workload().Prog.get();
  Input.PA = &Bench.analysis();
  Input.Profile = &Bench.profileData(Cell.ProfileInput).Edges;
  Input.Annotations = &Map;
  analyze::lintAll(Input, &Sink);

  if (Json != nullptr) {
    appendJsonWorkload(*Json, Spec, Map, Sink);
  } else {
    if (!Sink.empty())
      std::fprintf(stderr, "%s",
                   Opts.MachineFormat ? Sink.renderMachine().c_str()
                                      : Sink.renderText().c_str());
    std::printf("%-10s %zu annotations: %s\n", Spec.Name, Map.size(),
                Sink.summaryLine().c_str());
  }
  if (Sink.errorCount() > 0)
    return false;
  if (Opts.WarningsAsErrors && Sink.warningCount() > 0)
    return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage();
    return exitcode::Usage;
  }
  if (Opts.Help) {
    help();
    return exitcode::Ok;
  }

  std::vector<const workloads::BenchmarkSpec *> Specs;
  if (Opts.All) {
    for (const auto &Spec : workloads::specSuite())
      Specs.push_back(&Spec);
  } else {
    for (const std::string &Name : Opts.Benchmarks) {
      const workloads::BenchmarkSpec *Found = workloads::findBenchmark(Name);
      if (Found == nullptr) {
        std::fprintf(stderr, "error: unknown benchmark '%s'\n", Name.c_str());
        return exitcode::Usage;
      }
      Specs.push_back(Found);
    }
  }

  std::unique_ptr<bench::BenchJson> Json;
  if (Opts.Json) {
    Json = std::make_unique<bench::BenchJson>("lint");
    Json->string("algo", Opts.Cell.Algo);
    Json->string("profile_input",
                 workloads::inputSetName(Opts.Cell.ProfileInput));
    Json->boolean("werror", Opts.WarningsAsErrors);
    Json->beginArray("workloads");
  }

  bool AllClean = true;
  bool First = true;
  for (const workloads::BenchmarkSpec *Spec : Specs) {
    bool UsageError = false;
    if (!lintBenchmark(*Spec, Opts, UsageError, Json.get(), First)) {
      if (UsageError)
        return exitcode::Usage;
      AllClean = false;
    }
    First = false;
  }

  if (Json != nullptr) {
    Json->endArray();
    Json->boolean("clean", AllClean);
    Json->writeFile("/dev/stdout");
  }
  return AllClean ? exitcode::Ok : exitcode::Failure;
}
