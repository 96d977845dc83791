//===- harness/CellRun.h - One remotely-executable experiment cell -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one cell vocabulary.  A CellSpec names one (benchmark, selection
/// configuration) unit; `dmpc`, `dmp_lint` and the `dmp::serve` workers all
/// build it with the same flag grammar (parseCellFlags), the same preset
/// table (selectionPresets) and the same options (cellOptions), so a
/// campaign computed remotely is the *same computation* as a local one —
/// not a reimplementation that happens to agree.  runCellSpec() executes
/// the canonical paper pipeline
///
///   profile(input) -> findSelectionPreset(algo)->Select -> simulate
///   baseline + DMP
///
/// and returns a CellResult whose canonical byte encoding (and hence its
/// SHA-256 digest, cellResultDigest()) is a pure function of the spec: any
/// worker, any host, any retry attempt produces the identical digest.
/// That digest is the acceptance contract of `dmpc --remote` (see
/// DESIGN.md "Service architecture").
///
//===----------------------------------------------------------------------===//

#ifndef DMP_HARNESS_CELLRUN_H
#define DMP_HARNESS_CELLRUN_H

#include "harness/Experiment.h"
#include "serialize/ByteStream.h"
#include "serialize/Hash.h"
#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace dmp::harness {

/// One (benchmark, configuration) unit of remotely-executable work.  The
/// defaults are every front end's defaults, so a bare `dmpc <bench>
/// --simulate`, a bare `dmp_lint <bench>` and a bare remote submit agree.
struct CellSpec {
  std::string Benchmark;
  std::string Algo = "all";
  workloads::InputSetKind ProfileInput = workloads::InputSetKind::Run;
  unsigned MaxInstr = 50;
  double MinMergeProb = 0.01;
  uint64_t SimInstrs = 1'200'000;
  uint64_t ProfileInstrs = 4'000'000;

  /// Invariant Status naming the first malformed field (empty/unknown
  /// values are caught at decode time server-side too, so a hostile client
  /// cannot push an out-of-range spec into a worker).
  Status validate() const;
};

/// Everything one cell produces: both simulations plus the selection shape
/// (for the dmpc report line).
struct CellResult {
  sim::SimStats Baseline;
  sim::SimStats Dmp;
  uint64_t DivergeBranches = 0;
  double AvgCfmPoints = 0.0;
};

/// One named selection algorithm of the --algo grammar.  The preset table
/// is the single list of these names: the usage text of dmpc and dmp_lint,
/// the serve workers and the paper figures' columns all read it.
struct SelectionPreset {
  const char *Name;
  /// Selects diverge branches for \p Bench, profiling on \p Input.
  core::DivergeMap (*Select)(BenchContext &Bench,
                             workloads::InputSetKind Input);
};

/// Every preset, in usage order: the cumulative heuristics (exact, freq,
/// short, ret, all), the cost-benefit model (cost-long, cost-edge,
/// cost-short, cost-ret, all-cost), then the simple selectors of Fig. 8.
const std::vector<SelectionPreset> &selectionPresets();

/// The preset named \p Name, or null.
const SelectionPreset *findSelectionPreset(const std::string &Name);

/// Every preset name, in usage order, joined by '|'.
std::string selectionPresetNames();

/// Consumes the cell flags every front end shares — --algo=<preset>,
/// --profile-input=<run|train>, --max-instr=<n> and --min-merge-prob=<p> —
/// from Argv[1..Argc) into \p Spec, and returns the other arguments in
/// order.  A bad value, an unknown preset name included, is an Invariant
/// status whose message the tools print after "error: ".
StatusOr<std::vector<std::string>> parseCellFlags(int Argc, char **Argv,
                                                  CellSpec &Spec);

/// The options a cell of \p Spec runs under: its selection thresholds and
/// its profile and simulation budgets, with \p Cache (nullable) behind the
/// profile and simulation stages.
ExperimentOptions cellOptions(const CellSpec &Spec,
                              std::shared_ptr<serialize::ArtifactCache> Cache);

/// The full profile -> select -> simulate pipeline for one cell.  \p Cache
/// (nullable) backs the profile and simulation stages; results are
/// bit-identical with or without it.  All failures come back as Status
/// (NotFound for an unknown benchmark/algorithm, Invariant for a malformed
/// spec) — never an exit or a throw, because this runs inside long-lived
/// worker processes.  \p Progress (nullable) is the liveness beat hook:
/// the simulation stages call it every sim::kCancelPollInstrs retired
/// instructions (see SimConfig::Progress); it never affects the result or
/// its digest.
StatusOr<CellResult>
runCellSpec(const CellSpec &Spec,
            std::shared_ptr<serialize::ArtifactCache> Cache,
            std::function<void()> Progress = {});

/// Canonical little-endian encodings, shared by the wire protocol and the
/// digest.  Specs/results embed in larger messages via the ByteWriter /
/// ByteReader forms; decode failures are Corrupt.
void encodeCellSpec(serialize::ByteWriter &W, const CellSpec &Spec);
Status decodeCellSpec(serialize::ByteReader &R, CellSpec &Spec);

std::vector<uint8_t> encodeCellResult(const CellResult &R);
Status decodeCellResult(const std::vector<uint8_t> &Blob, CellResult &R);

/// SHA-256 of encodeCellResult(R): the stats digest `dmpc --simulate`
/// prints locally and `dmpc --remote` must reproduce bit-identically.
serialize::Digest cellResultDigest(const CellResult &R);

} // namespace dmp::harness

#endif // DMP_HARNESS_CELLRUN_H
