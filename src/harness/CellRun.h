//===- harness/CellRun.h - One remotely-executable experiment cell -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-cell engine entry point that both local `dmpc` and the
/// `dmp::serve` worker processes call, so a campaign computed remotely is
/// the *same computation* as a local one — not a reimplementation that
/// happens to agree.  A CellSpec names one (benchmark, selection
/// configuration) unit; runCellSpec() executes the canonical paper pipeline
///
///   profile(input) -> selectByAlgo(...) -> simulate baseline + DMP
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

/// One (benchmark, configuration) unit of remotely-executable work, in the
/// vocabulary of dmpc's command line.  Defaults match dmpc's defaults so a
/// bare `dmpc <bench> --simulate` and a bare remote submit agree.
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

/// One named selection algorithm of dmpc's --algo grammar.  The preset
/// table is the single list of these names: dmpc's usage text, the serve
/// workers and the paper figures' columns all read it.
struct SelectionPreset {
  const char *Name;
  /// Selects diverge branches for \p Bench, profiling on \p Input.  The
  /// simple selectors (every-br, ...) leave \p Stats untouched.
  core::DivergeMap (*Select)(BenchContext &Bench,
                             workloads::InputSetKind Input,
                             core::SelectionStats *Stats);
};

/// Every preset, in usage order: the cumulative heuristics (exact, freq,
/// short, ret, all), the cost-benefit model (cost-long, cost-edge,
/// cost-short, cost-ret, all-cost), then the simple selectors of Fig. 8.
const std::vector<SelectionPreset> &selectionPresets();

/// The preset named \p Name, or null.
const SelectionPreset *findSelectionPreset(const std::string &Name);

/// Runs the preset named \p Algo.  NotFound for an unknown name.  Shared
/// by dmpc and the serve workers: one grammar, one behavior.
StatusOr<core::DivergeMap> selectByAlgo(BenchContext &Bench,
                                        const std::string &Algo,
                                        workloads::InputSetKind Input,
                                        core::SelectionStats *Stats = nullptr);

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
