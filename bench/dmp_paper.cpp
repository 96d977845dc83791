//===- bench/dmp_paper.cpp - The paper's tables, figures and ablations ----===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// One driver for the whole reproduction: Table 1, Table 2, Figures 5-10 and
// the two ablation studies.  Each is one entry of a registry — an id, a
// column list whose entries carry their cell functions, and a renderer —
// and every entry runs the same path: its (benchmark x column) matrix on
// the shared ExperimentEngine, journaled under the figure id, then its
// renderer.  So every figure honours the engine flags alike (--journal,
// --deadline, --cell-instr-budget, --limit-benches, the SIGINT drain), and
// each benchmark's context, profile and baseline is built once per run.
//
//   dmp_paper [--figure ID|all] [engine flags]     (default: all)
//
// Sweep points are columns too, run on the shared context under the
// engine's options with selection thresholds or simulator fields changed;
// the context keys each stage by the options it reads, so e.g. a
// dpred-mode budget point reuses the benchmark's trace and baseline.
//
//===----------------------------------------------------------------------===//

#include "guard/Guard.h"
#include "harness/CellRun.h"
#include "harness/Engine.h"
#include "harness/Reports.h"
#include "support/ExitCodes.h"
#include "support/MathExtras.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>

using namespace dmp;

namespace {

using core::SelectionFeatures;
using harness::Cell;
using harness::ExperimentOptions;
using workloads::InputSetKind;
using Matrix = std::vector<std::vector<StatusOr<double>>>;

/// One column of a figure: its label (table header and journal
/// params-digest input) and the function computing one of its cells.
struct Column {
  std::string Name;
  std::function<double(Cell &)> Fn;
};

struct Figure;

/// What a renderer reads once the figure's matrix has run.
struct FigureRun {
  const Figure &Fig;
  const std::vector<workloads::BenchmarkSpec> &Suite;
  const Matrix &Cells; ///< [benchmark][column]
  harness::ExperimentEngine &Engine;
};

struct Figure {
  const char *Id; ///< --figure value and journal matrix name.
  std::vector<Column> Columns;
  harness::CellNeeds Needs;
  std::function<void(const FigureRun &)> Render;
};

//===----------------------------------------------------------------------===//
// Column builders
//===----------------------------------------------------------------------===//

const harness::SelectionPreset &preset(const char *Name) {
  const harness::SelectionPreset *P = harness::findSelectionPreset(Name);
  if (!P) {
    std::fprintf(stderr, "internal error: unknown selection preset '%s'\n",
                 Name);
    std::abort();
  }
  return *P;
}

/// IPC improvement of preset \p Preset over the baseline.
Column gain(std::string Name, const char *Preset,
            InputSetKind Input = InputSetKind::Run) {
  const harness::SelectionPreset &P = preset(Preset);
  return {std::move(Name), [&P, Input](Cell &C) {
            return harness::ipcImprovement(
                C.Bench.baseline(),
                C.Bench.simulateWith(P.Select(C.Bench, Input)));
          }};
}

/// IPC improvement of \p Features under the engine's options changed by
/// \p Mutate (selection thresholds or simulator fields), on the shared
/// context: each stage is shared with every column whose options it does
/// not read.
Column variant(std::string Name, SelectionFeatures Features,
               std::function<void(ExperimentOptions &)> Mutate) {
  return {std::move(Name), [Features, Mutate](Cell &C) {
            ExperimentOptions Options = C.Bench.options();
            Mutate(Options);
            const core::DivergeMap Map = core::selectDivergeBranches(
                C.Bench.analysis(), C.Bench.profileData(InputSetKind::Run),
                Options.Selection, Features);
            return harness::ipcImprovement(
                C.Bench.baseline(Options.Sim),
                C.Bench.simulateWith(Map, Options.Sim));
          }};
}

//===----------------------------------------------------------------------===//
// Rendering helpers
//===----------------------------------------------------------------------===//

/// Geomean improvement of column \p Col over its computed cells; nullopt
/// when every cell is a gap.
std::optional<double> geomeanGain(const Matrix &Cells, size_t Col) {
  std::vector<double> Ratios;
  for (const std::vector<StatusOr<double>> &Row : Cells)
    if (Row[Col].ok())
      Ratios.push_back(1.0 + *Row[Col]);
  if (Ratios.empty())
    return std::nullopt;
  return geomean(Ratios) - 1.0;
}

std::string percentOrGap(std::optional<double> V) {
  return V ? formatPercent(*V) : "--";
}

/// \p A - \p B as a percentage, or "--" when either is a gap.
std::string deltaOrGap(std::optional<double> A, std::optional<double> B) {
  return A && B ? formatPercent(*A - *B) : "--";
}

/// Prints columns [Offset, Offset + Count) as one improvement panel.
void printPanel(const FigureRun &R, const std::string &Title, size_t Offset,
                size_t Count) {
  std::vector<std::string> Names;
  for (size_t I = Offset; I < Offset + Count; ++I)
    Names.push_back(R.Fig.Columns[I].Name);
  harness::ImprovementReport Report(Names);
  for (size_t B = 0; B < R.Suite.size(); ++B)
    Report.addBenchmark(
        R.Suite[B].Name,
        std::vector<StatusOr<double>>(R.Cells[B].begin() + Offset,
                                      R.Cells[B].begin() + Offset + Count));
  std::printf("%s", Report.render(Title).c_str());
}

//===----------------------------------------------------------------------===//
// The figures
//===----------------------------------------------------------------------===//

Figure table1() {
  return {"table1", {}, {}, [](const FigureRun &) {
            const sim::SimConfig Config;
            std::printf("== Table 1: baseline processor configuration and "
                        "DMP support ==\n%s",
                        Config.toString().c_str());
            std::printf(
                "Branch policy  : minimum misprediction penalty ~%u cycles "
                "(front end %u + resolution %u)\n",
                Config.FrontEndDepth + Config.latencyFor(ir::Opcode::CondBr),
                Config.FrontEndDepth, Config.latencyFor(ir::Opcode::CondBr));
          }};
}

/// Table 2: baseline IPC, MPKI, retired instructions, static conditional
/// branches, static diverge branches under All-best-heur, and the average
/// number of CFM points per diverge branch.
Figure table2() {
  auto allBestHeur = [](Cell &C) {
    return C.Bench.select(SelectionFeatures::allBestHeur(), InputSetKind::Run);
  };
  std::vector<Column> Columns = {
      {"Base IPC", [](Cell &C) { return C.Bench.baseline().ipc(); }},
      {"MPKI", [](Cell &C) { return C.Bench.baseline().mpki(); }},
      {"Insts(K)",
       [](Cell &C) {
         return static_cast<double>(C.Bench.baseline().RetiredInstrs / 1000);
       }},
      {"All br.",
       [](Cell &C) {
         return static_cast<double>(
             C.Bench.workload().Prog->condBranchAddrs().size());
       }},
      {"Diverge br.",
       [allBestHeur](Cell &C) {
         return static_cast<double>(allBestHeur(C).size());
       }},
      {"Avg. # CFM",
       [allBestHeur](Cell &C) { return allBestHeur(C).avgCfmPoints(); }},
  };
  return {"table2", std::move(Columns), {}, [](const FigureRun &R) {
            const int Decimals[] = {2, 1, 0, 0, 0, 2};
            std::vector<std::string> Header = {"benchmark"};
            for (const Column &Col : R.Fig.Columns)
              Header.push_back(Col.Name);
            Table T(Header);
            for (size_t B = 0; B < R.Suite.size(); ++B) {
              std::vector<std::string> Row = {R.Suite[B].Name};
              for (size_t I = 0; I < R.Fig.Columns.size(); ++I)
                Row.push_back(R.Cells[B][I].ok()
                                  ? formatDouble(*R.Cells[B][I], Decimals[I])
                                  : "--");
              T.addRow(Row);
            }
            std::printf("== Table 2: characteristics of the benchmarks ==\n");
            std::printf("(synthetic SPEC-like suite; see DESIGN.md for the "
                        "workload substitution)\n");
            T.print();
          }};
}

/// Figure 5: cumulative heuristic selection (left) and the cost-benefit
/// model (right), fanned out as one matrix.  Paper: Alg-exact alone
/// ~+4.5%, frequently-hammocks the largest step, All-best-heur ~+20.4%,
/// All-best-cost within noise of it.
Figure fig5() {
  return {"fig5",
          {gain("exact", "exact"), gain("+freq", "freq"),
           gain("+short", "short"), gain("+ret", "ret"), gain("+loop", "all"),
           gain("cost-long", "cost-long"), gain("cost-edge", "cost-edge"),
           gain("+short", "cost-short"), gain("+ret", "cost-ret"),
           gain("+loop", "all-cost")},
          {},
          [](const FigureRun &R) {
            printPanel(R,
                       "== Figure 5 (left): DMP IPC improvement, cumulative "
                       "heuristic selection ==",
                       0, 5);
            std::printf("\n");
            printPanel(R,
                       "== Figure 5 (right): DMP IPC improvement, "
                       "cost-benefit model ==",
                       5, 5);
            std::printf("\n");
          }};
}

/// Figure 6: flushes per kilo-instruction, baseline vs each cumulative
/// heuristic configuration.  Paper: flushes fall as techniques are added.
Figure fig6() {
  const std::pair<const char *, const char *> Presets[] = {
      {"exact", "exact"}, {"+freq", "freq"}, {"+short", "short"},
      {"+ret", "ret"},    {"+loop", "all"}};
  std::vector<Column> Columns;
  for (const auto &[Name, Preset] : Presets) {
    const harness::SelectionPreset &P = preset(Preset);
    Columns.push_back({Name, [&P](Cell &C) {
                         return C.Bench
                             .simulateWith(P.Select(C.Bench, InputSetKind::Run))
                             .flushesPerKiloInstr();
                       }});
  }
  return {"fig6", std::move(Columns), {}, [](const FigureRun &R) {
            const size_t N = R.Fig.Columns.size();
            std::vector<std::string> Header = {"benchmark", "baseline"};
            for (const Column &Col : R.Fig.Columns)
              Header.push_back(Col.Name);
            Table T(Header);
            double BaseSum = 0.0;
            size_t BaseCount = 0;
            std::vector<double> Sums(N, 0.0);
            std::vector<size_t> Counts(N, 0);
            for (size_t B = 0; B < R.Suite.size(); ++B) {
              std::vector<std::string> Row = {R.Suite[B].Name};
              // The baseline ran as a matrix stage, so this reads the
              // context's memo; a stage that failed (watchdog, deadline)
              // fails here again and is a gap.
              try {
                const double Base = R.Engine.contextFor(R.Suite[B])
                                        .baseline()
                                        .flushesPerKiloInstr();
                Row.push_back(formatDouble(Base, 2));
                BaseSum += Base;
                ++BaseCount;
              } catch (const StatusError &) {
                Row.push_back("--");
              }
              for (size_t I = 0; I < N; ++I) {
                if (R.Cells[B][I].ok()) {
                  Row.push_back(formatDouble(*R.Cells[B][I], 2));
                  Sums[I] += *R.Cells[B][I];
                  ++Counts[I];
                } else {
                  Row.push_back("--");
                }
              }
              T.addRow(Row);
            }
            T.addSeparator();
            std::vector<std::string> Mean = {
                "average",
                BaseCount == 0 ? "--" : formatDouble(BaseSum / BaseCount, 2)};
            for (size_t I = 0; I < N; ++I)
              Mean.push_back(Counts[I] == 0
                                 ? "--"
                                 : formatDouble(Sums[I] / Counts[I], 2));
            T.addRow(Mean);
            std::printf("== Figure 6: pipeline flushes per kilo-instruction, "
                        "baseline vs DMP ==\n");
            T.print();
          }};
}

const unsigned Fig7MaxInstr[] = {10, 50, 100, 200};
const double Fig7MergeProb[] = {0.01, 0.05, 0.30, 0.90};

/// Figure 7: MAX_INSTR x MIN_MERGE_PROB sweep with Alg-exact + Alg-freq.
/// Paper: MAX_INSTR 10 and 200 both hurt; 50 with a small MIN_MERGE_PROB
/// is best.
Figure fig7() {
  std::vector<Column> Columns;
  for (unsigned MaxInstr : Fig7MaxInstr)
    for (double MergeProb : Fig7MergeProb)
      Columns.push_back(variant(
          formatString("max-instr=%u min-merge=%.2f", MaxInstr, MergeProb),
          SelectionFeatures::exactFreq(), [=](ExperimentOptions &O) {
            O.Selection =
                O.Selection.withMaxInstr(MaxInstr).withMinMergeProb(MergeProb);
          }));
  return {"fig7", std::move(Columns), {}, [](const FigureRun &R) {
            Table T({"MAX_INSTR", "MIN_MERGE=1%", "5%", "30%", "90%"});
            const size_t NP = std::size(Fig7MergeProb);
            for (size_t MI = 0; MI < std::size(Fig7MaxInstr); ++MI) {
              std::vector<std::string> Row = {
                  formatString("%u", Fig7MaxInstr[MI])};
              for (size_t MP = 0; MP < NP; ++MP)
                Row.push_back(percentOrGap(geomeanGain(R.Cells, MI * NP + MP)));
              T.addRow(Row);
            }
            std::printf("== Figure 7: DMP IPC improvement (geomean) vs "
                        "MAX_INSTR and MIN_MERGE_PROB ==\n");
            std::printf(
                "(Alg-exact + Alg-freq only; MAX_CBR = MAX_INSTR/10)\n");
            T.print();
          }};
}

/// Figure 8: the simple selectors against All-best-heur.  Paper: the
/// simple ones cluster around +4-4.5%, All-best-heur reaches +20.4%.
Figure fig8() {
  return {"fig8",
          {gain("Every-br", "every-br"), gain("Random-50", "random-50"),
           gain("High-BP-5", "high-bp-5"), gain("Immediate", "immediate"),
           gain("If-else", "if-else"), gain("All-best-heur", "all")},
          {},
          [](const FigureRun &R) {
            printPanel(R,
                       "== Figure 8: DMP IPC improvement with alternative "
                       "simple selection algorithms ==",
                       0, R.Fig.Columns.size());
          }};
}

/// Figure 9: profiling on the run input (same) or the train input (diff).
/// Paper: a different input costs only ~0.5%.
Figure fig9() {
  harness::CellNeeds Needs;
  Needs.TrainProfile = true;
  return {"fig9",
          {gain("heur-same", "all"),
           gain("heur-diff", "all", InputSetKind::Train),
           gain("cost-same", "all-cost"),
           gain("cost-diff", "all-cost", InputSetKind::Train)},
          Needs,
          [](const FigureRun &R) {
            printPanel(R,
                       "== Figure 9: DMP IPC improvement, same vs different "
                       "profiling input set ==",
                       0, R.Fig.Columns.size());
          }};
}

/// Figure 10: the share of dynamic diverge-branch instances (weighted by
/// run-input counts) whose branch All-best-heur selects under either
/// input, only the run input, or only the train input.  Paper: >74%
/// either-run-train in every benchmark.
Figure fig10() {
  // Which of the three shares a column reports.
  enum Share { Either, OnlyRun, OnlyTrain };
  auto share = [](Share Which) {
    return [Which](Cell &C) {
      const core::DivergeMap RunMap = C.Bench.select(
          SelectionFeatures::allBestHeur(), InputSetKind::Run);
      const core::DivergeMap TrainMap = C.Bench.select(
          SelectionFeatures::allBestHeur(), InputSetKind::Train);
      const profile::ProfileData &RunProf =
          C.Bench.profileData(InputSetKind::Run);
      uint64_t Weights[3] = {0, 0, 0};
      for (uint32_t Addr : RunMap.sortedAddrs())
        Weights[TrainMap.contains(Addr) ? Either : OnlyRun] +=
            RunProf.Edges.branchCounts(Addr).total();
      for (uint32_t Addr : TrainMap.sortedAddrs())
        if (!RunMap.contains(Addr))
          Weights[OnlyTrain] += RunProf.Edges.branchCounts(Addr).total();
      const double Total =
          static_cast<double>(Weights[0] + Weights[1] + Weights[2]);
      if (Total == 0.0)
        return Which == Either ? 1.0 : 0.0;
      return Weights[Which] / Total;
    };
  };
  harness::CellNeeds Needs;
  Needs.TrainProfile = true;
  Needs.Baseline = false; // no simulation in this figure
  return {"fig10",
          {{"either-run-train", share(Either)},
           {"only-run", share(OnlyRun)},
           {"only-train", share(OnlyTrain)}},
          Needs,
          [](const FigureRun &R) {
            std::vector<std::string> Header = {"benchmark"};
            for (const Column &Col : R.Fig.Columns)
              Header.push_back(Col.Name);
            Table T(Header);
            double WorstEither = 1.0;
            for (size_t B = 0; B < R.Suite.size(); ++B) {
              std::vector<std::string> Row = {R.Suite[B].Name};
              for (const StatusOr<double> &Cell : R.Cells[B])
                Row.push_back(Cell.ok() ? formatPercent(*Cell).substr(1)
                                        : "--");
              if (R.Cells[B][Either].ok())
                WorstEither = std::min(WorstEither, *R.Cells[B][Either]);
              T.addRow(Row);
            }
            std::printf("== Figure 10: dynamic diverge branches selected per "
                        "profiling input set ==\n");
            T.print();
            std::printf("worst-case either-run-train fraction: %s (paper: "
                        ">74%% in all benchmarks)\n",
                        formatPercent(WorstEither).substr(1).c_str());
          }};
}

const double AccConfValues[] = {0.20, 0.30, 0.40, 0.50};

struct ShortHammockPoint {
  unsigned MaxInstr;
  double MinMerge;
  double MinMisp;
};
const ShortHammockPoint ShortHammockPoints[] = {
    {10, 0.95, 0.05}, // paper values
    {5, 0.95, 0.05},
    {20, 0.95, 0.05},
    {10, 0.50, 0.05},
    {10, 0.95, 0.20},
};

/// The compiler-side ablations the paper discusses but does not plot:
/// Acc_Conf sensitivity (footnote 5), select-uop overhead per dpred entry
/// (Section 4.4), the short-hammock thresholds (Section 3.4), and
/// always-predicate vs confidence-gated short hammocks.
Figure ablationCostModel() {
  std::vector<Column> Columns;
  for (double Acc : AccConfValues)
    Columns.push_back(variant(
        formatString("acc-conf=%.2f", Acc), SelectionFeatures::allBestCost(),
        [Acc](ExperimentOptions &O) { O.Selection.AccConf = Acc; }));
  Columns.push_back({"select-uops/entry", [](Cell &C) {
                       return C.Bench
                           .simulateWith(C.Bench.select(
                               SelectionFeatures::allBestHeur(),
                               InputSetKind::Run))
                           .selectUopsPerEntry();
                     }});
  for (const ShortHammockPoint &Pt : ShortHammockPoints)
    Columns.push_back(variant(
        formatString("short=%u/%.2f/%.2f", Pt.MaxInstr, Pt.MinMerge,
                     Pt.MinMisp),
        SelectionFeatures::allBestHeur(), [Pt](ExperimentOptions &O) {
          O.Selection.ShortHammockMaxInstr = Pt.MaxInstr;
          O.Selection.ShortHammockMinMergeProb = Pt.MinMerge;
          O.Selection.ShortHammockMinMispRate = Pt.MinMisp;
        }));
  Columns.push_back(gain("always-predicate", "all"));
  SelectionFeatures Gated = SelectionFeatures::allBestHeur();
  Gated.ShortHammocks = false;
  Columns.push_back(
      variant("confidence-gated", Gated, [](ExperimentOptions &) {}));

  return {"ablation-costmodel", std::move(Columns), {}, [](const FigureRun &R) {
            const size_t NAcc = std::size(AccConfValues);
            const size_t Uops = NAcc;
            const size_t Short = Uops + 1;
            const size_t With = Short + std::size(ShortHammockPoints);

            std::printf("== Ablation 1: Acc_Conf sensitivity of the cost "
                        "model ==\n");
            std::printf("(paper footnote 5: insensitive within 20%%-50%%)\n");
            Table T1({"Acc_Conf", "All-best-cost geomean"});
            for (size_t I = 0; I < NAcc; ++I)
              T1.addRow({formatPercent(AccConfValues[I]).substr(1),
                         percentOrGap(geomeanGain(R.Cells, I))});
            T1.print();

            std::printf("\n== Ablation 2: select-uop overhead per dpred "
                        "entry ==\n");
            std::printf("(paper Section 4.4: < 0.5 fetch cycles per entry)\n");
            Table T2({"benchmark", "select-uops/entry", "fetch cycles/entry"});
            std::optional<double> WorstCycles;
            for (size_t B = 0; B < R.Suite.size(); ++B) {
              const StatusOr<double> &PerEntry = R.Cells[B][Uops];
              if (!PerEntry.ok()) {
                T2.addRow({R.Suite[B].Name, "--", "--"});
                continue;
              }
              const double Cycles =
                  *PerEntry / R.Engine.options().Sim.FetchWidth;
              WorstCycles = std::max(WorstCycles.value_or(0.0), Cycles);
              T2.addRow({R.Suite[B].Name, formatDouble(*PerEntry, 2),
                         formatDouble(Cycles, 2)});
            }
            T2.print();
            std::printf("worst case: %s fetch cycles/entry (paper: < 0.5 on "
                        "average)\n",
                        WorstCycles ? formatDouble(*WorstCycles, 2).c_str()
                                    : "--");

            std::printf("\n== Ablation 3: short-hammock thresholds ==\n");
            Table T3({"max instrs/side", "min merge", "min misp",
                      "All-best-heur geomean"});
            for (size_t I = 0; I < std::size(ShortHammockPoints); ++I) {
              const ShortHammockPoint &Pt = ShortHammockPoints[I];
              T3.addRow({formatString("%u", Pt.MaxInstr),
                         formatPercent(Pt.MinMerge).substr(1),
                         formatPercent(Pt.MinMisp).substr(1),
                         percentOrGap(geomeanGain(R.Cells, Short + I))});
            }
            T3.print();

            std::printf("\n== Ablation 4: always-predicate vs "
                        "confidence-gated short hammocks ==\n");
            // With the short feature, qualifying hammocks bypass the
            // confidence estimator; without it, the same branches are
            // predicated only when low-confidence.  The delta is the value
            // of Section 3.4.
            const std::optional<double> WithShort =
                geomeanGain(R.Cells, With);
            const std::optional<double> Gated = geomeanGain(R.Cells, With + 1);
            std::printf("with always-predicate   : %s\n",
                        percentOrGap(WithShort).c_str());
            std::printf("confidence-gated only   : %s\n",
                        percentOrGap(Gated).c_str());
            std::printf("short-hammock increment : %s\n",
                        deltaOrGap(WithShort, Gated).c_str());
          }};
}

/// All-best-heur's selection with every CFM point stripped, so each
/// episode runs as dual-path until the branch resolves (footnotes 2/10).
core::DivergeMap stripCfms(const core::DivergeMap &Map) {
  core::DivergeMap Stripped;
  for (uint32_t Addr : Map.sortedAddrs()) {
    core::DivergeAnnotation Ann = *Map.find(Addr);
    if (Ann.Kind == core::DivergeKind::Loop)
      continue; // loop predication is meaningless without its CFM
    Ann.Kind = core::DivergeKind::NoCfm;
    Ann.Cfms.clear();
    Ann.AlwaysPredicate = false;
    Stripped.add(Addr, Ann);
  }
  return Stripped;
}

const unsigned DpredBudgets[] = {50, 100, 200, 400, 800};
const unsigned ConfThresholds[] = {4, 8, 12, 14, 15};

/// The microarchitecture-side ablations: CFM merging vs pure dual-path,
/// the dpred-mode instruction budget (Figure 7's window-filling effect),
/// and the JRS confidence threshold.
Figure ablationDpred() {
  std::vector<Column> Columns = {
      gain("with-cfm", "all"),
      {"no-cfm", [](Cell &C) {
         const core::DivergeMap Map = C.Bench.select(
             SelectionFeatures::allBestHeur(), InputSetKind::Run);
         return harness::ipcImprovement(C.Bench.baseline(),
                                        C.Bench.simulateWith(stripCfms(Map)));
       }}};
  const SelectionFeatures Heur = SelectionFeatures::allBestHeur();
  for (unsigned B : DpredBudgets)
    Columns.push_back(
        variant(formatString("max-dpred-instrs=%u", B), Heur,
                [B](ExperimentOptions &O) { O.Sim.MaxDpredInstrs = B; }));
  for (unsigned T : ConfThresholds)
    Columns.push_back(
        variant(formatString("conf-threshold=%u", T), Heur,
                [T](ExperimentOptions &O) { O.Sim.ConfThreshold = T; }));

  return {"ablation-dpred", std::move(Columns), {}, [](const FigureRun &R) {
            const size_t Budgets = 2;
            const size_t Thresholds = Budgets + std::size(DpredBudgets);

            std::printf("== Ablation A: CFM points vs pure dual-path "
                        "execution ==\n");
            const std::optional<double> WithCfm = geomeanGain(R.Cells, 0);
            const std::optional<double> DualPath = geomeanGain(R.Cells, 1);
            std::printf("All-best-heur with CFM points : %s\n",
                        percentOrGap(WithCfm).c_str());
            std::printf("same branches, no CFM points  : %s\n",
                        percentOrGap(DualPath).c_str());
            std::printf("value of control-flow merging : %s\n",
                        deltaOrGap(WithCfm, DualPath).c_str());

            std::printf("\n== Ablation B: dpred-mode instruction budget ==\n");
            Table TB({"MaxDpredInstrs", "geomean"});
            for (size_t I = 0; I < std::size(DpredBudgets); ++I)
              TB.addRow({formatString("%u", DpredBudgets[I]),
                         percentOrGap(geomeanGain(R.Cells, Budgets + I))});
            TB.print();

            std::printf("\n== Ablation C: confidence threshold (JRS MDC) ==\n");
            Table TC({"threshold", "geomean"});
            for (size_t I = 0; I < std::size(ConfThresholds); ++I)
              TC.addRow({formatString("%u", ConfThresholds[I]),
                         percentOrGap(geomeanGain(R.Cells, Thresholds + I))});
            TC.print();
            std::printf("(higher threshold = more branches treated as low-"
                        "confidence = more dpred entries)\n");
          }};
}

/// The registry, in the order --figure all runs it.
std::vector<Figure> figures() {
  return {table1(), table2(), fig5(),  fig6(),
          fig7(),   fig8(),   fig9(),  fig10(),
          ablationCostModel(), ablationDpred()};
}

/// Runs \p Fig's matrix on \p Engine (journaled under its id) and renders.
void runFigure(const Figure &Fig,
               const std::vector<workloads::BenchmarkSpec> &Suite,
               harness::ExperimentEngine &Engine) {
  Matrix Cells;
  if (!Fig.Columns.empty()) {
    std::vector<std::string> Names;
    for (const Column &Col : Fig.Columns)
      Names.push_back(Col.Name);
    harness::CampaignJournal *Journal =
        Engine.journalFor(Fig.Id, harness::paramsDigest(Names), Suite.size(),
                          Fig.Columns.size());
    Cells = Engine.runMatrix<double>(
        Suite, Fig.Columns.size(),
        [&Fig](Cell &C) { return Fig.Columns[C.Config].Fn(C); }, Fig.Needs,
        Journal, &harness::doubleCellCodec());
  }
  Fig.Render({Fig, Suite, Cells, Engine});
}

void printFigureUsage(const std::vector<Figure> &All, std::FILE *Out) {
  std::fprintf(Out, "  --figure ID|all      run one figure, or all of them "
                    "in this order (default: all):\n                      ");
  for (const Figure &Fig : All)
    std::fprintf(Out, " %s", Fig.Id);
  std::fprintf(Out, "\n");
}

} // namespace

int main(int Argc, char **Argv) {
  guard::installSignalHandlers();
  const std::vector<Figure> All = figures();

  // --figure is this driver's only flag; the rest go to the shared engine
  // parser, whose usage line then names --figure too.
  std::string Prog = std::string(Argv[0]) + " [--figure ID|all]";
  std::vector<char *> EngineArgv = {Prog.data()};
  auto usage = [&](std::FILE *Out) {
    harness::EngineOptions::printUsage(Prog.c_str(), Out);
    printFigureUsage(All, Out);
  };
  std::string Wanted = "all";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--help") == 0 ||
        std::strcmp(Argv[I], "-h") == 0) {
      usage(stdout);
      return exitcode::Ok;
    }
    if (std::strcmp(Argv[I], "--figure") == 0) {
      if (I + 1 == Argc) {
        std::fprintf(stderr, "error: --figure needs a value\n");
        usage(stderr);
        return exitcode::Usage;
      }
      Wanted = Argv[++I];
    } else if (std::strncmp(Argv[I], "--figure=", 9) == 0) {
      Wanted = Argv[I] + 9;
    } else {
      EngineArgv.push_back(Argv[I]);
    }
  }
  bool Known = Wanted == "all";
  for (const Figure &Fig : All)
    Known |= Wanted == Fig.Id;
  if (!Known) {
    std::fprintf(stderr, "error: unknown figure '%s'\n", Wanted.c_str());
    usage(stderr);
    return exitcode::Usage;
  }
  const harness::EngineOptions EngineOpts = harness::EngineOptions::parseOrExit(
      static_cast<int>(EngineArgv.size()), EngineArgv.data());

  harness::ExperimentEngine Engine(harness::ExperimentOptions(), EngineOpts);
  const std::vector<workloads::BenchmarkSpec> Suite =
      harness::limitSuite(workloads::specSuite(), EngineOpts);
  for (const Figure &Fig : All)
    if (Wanted == "all" || Wanted == Fig.Id)
      runFigure(Fig, Suite, Engine);
  return harness::finishDriver(Engine);
}
