//===- paperbench/src/Helpers.h - Seeds, draws and statistics --*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own pure helpers: its seed stream (owned here, not taken
/// from dmp::RNG, so a library change can never change which inputs a seed
/// names), the seeded suite and serve-cell draw, the nearest-rank
/// percentile and the geomean of signed percentage gains.  Unit-tested in
/// paperbench/tests/test_helpers.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef PAPERBENCH_HELPERS_H
#define PAPERBENCH_HELPERS_H

#include "harness/CellRun.h"
#include "workloads/SpecSuite.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace paperbench {

/// SplitMix64: the benchmark's only source of randomness.
class SeedStream {
public:
  explicit SeedStream(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, Bound); Bound must be nonzero.
  uint64_t below(uint64_t Bound) { return next() % Bound; }

private:
  uint64_t State;
};

/// A seeded permutation of [0, N) (Fisher-Yates over SeedStream).
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

/// The committed 17-benchmark suite with \p Seed added to every
/// BenchmarkSpec::Seed: seed 0 is the suite exactly, seed k is fresh data
/// on the same CFG recipes.
std::vector<dmp::workloads::BenchmarkSpec> seededSuite(uint64_t Seed);

/// Nearest-rank percentile: the value at 1-based rank ceil(P/100 * n) of
/// the sorted sample, together with the sample count and how many samples
/// lie above that rank.
struct Percentile {
  double Value = 0.0;
  size_t Samples = 0;
  size_t Above = 0;
};

/// Refuses (nullopt) an empty sample, P outside (0, 100], and any sample
/// with fewer than \p MinAbove values above the rank, so a reported p90
/// always rests on at least ten slower samples.
std::optional<Percentile> nearestRank(std::vector<double> Sample, double P,
                                      size_t MinAbove = 10);

/// Geomean of signed percentage gains (+18.6 means 1.186x): the
/// (prod (1 + g/100))^(1/n) - 1 of the paper's figures, in percent.
/// nullopt for an empty input or any gain at or below -100%.
std::optional<double> geomeanGainPct(const std::vector<double> &GainsPct);

/// Median of a non-empty sample.
double median(std::vector<double> Sample);

/// The dmpc --algo names a serve cell draws from.
const std::vector<std::string> &serveAlgos();

/// Fig. 7's threshold grid, the --max-instr/--min-merge-prob values a
/// drawn serve cell uses.
const std::vector<unsigned> &serveMaxInstrs();
const std::vector<double> &serveMergeProbs();

/// Number of leading paper cells in every serve stream: All-best-heur
/// ("all") and All-best-cost ("all-cost") at dmpc defaults for every
/// suite benchmark, so the ipc metrics cover the whole suite.
size_t servePaperCells();

/// Cell \p Index of the serve stream for \p Seed: the paper cells in a
/// seeded order, then an endless seeded draw of (benchmark, --algo,
/// --max-instr, --min-merge-prob).  A pure function of (Seed, Index).
dmp::harness::CellSpec serveCell(uint64_t Seed, size_t Index);

/// "%.17g": every digit a double carries, for the result line.
std::string fullDigits(double V);

} // namespace paperbench

#endif // PAPERBENCH_HELPERS_H
