//===- paperbench/src/Manifest.h - The benchmark's declared shape -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table of workloads and metrics.  `paperbench --write-manifest FILE`
/// renders it as the repository's BENCHMARK.json, and every run prints
/// exactly the metrics listed here (a run that misses one, or adds one,
/// fails instead of printing a result).
///
//===----------------------------------------------------------------------===//

#ifndef PAPERBENCH_MANIFEST_H
#define PAPERBENCH_MANIFEST_H

#include <string>
#include <vector>

namespace paperbench {

struct WorkloadDecl {
  const char *Name;
  const char *Why;
};

struct MetricDecl {
  const char *Name;
  const char *Unit;
  const char *Better; ///< "higher" or "lower"
  double Bound;       ///< End-to-end only; 0 for per-layer metrics.
};

constexpr unsigned kRunSeconds = 25;

const std::vector<WorkloadDecl> &workloadDecls();
const std::vector<MetricDecl> &endToEndMetrics();
const std::vector<MetricDecl> &perLayerMetrics();

/// BENCHMARK.json text (ends with a newline).
std::string manifestJson();

} // namespace paperbench

#endif // PAPERBENCH_MANIFEST_H
