//===- paperbench/src/Manifest.cpp - The benchmark's declared shape -------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Manifest.h"

#include "support/StringUtils.h"

namespace paperbench {

const std::vector<WorkloadDecl> &workloadDecls() {
  static const std::vector<WorkloadDecl> Decls = {
      {"paper-cold",
       "The headline: the Fig. 5 matrix plus Fig. 9's train columns computed "
       "from scratch on 3 threads, where profile and the two sims do the "
       "work and no cache is touched."},
      {"paper-warm",
       "Every figure re-run and dmpc run: the same matrix replayed from a "
       "filled artifact cache, so cache keys, blob loads, decodes and "
       "workload+CFG builds do the work and no sim runs."},
      {"serve-cells",
       "The service path: a closed loop of single-cell jobs from 2 clients "
       "to a 2-worker server on a fresh durable cache, the only workload "
       "that runs runCellSpec and writes the cache."},
  };
  return Decls;
}

const std::vector<MetricDecl> &endToEndMetrics() {
  static const std::vector<MetricDecl> Decls = {
      {"cells_per_s", "cells/s", "higher", 0.25},
      {"setup_s", "s", "lower", 0.25},
      {"cell_ms_p50", "ms", "lower", 0.25},
      {"cell_ms_p90", "ms", "lower", 0.25},
      {"peak_rss_mb", "MB", "lower", 0.25},
      {"ok_frac", "frac", "higher", 0.01},
      {"ipc_gain_heur_pct", "%", "higher", 0.08},
      {"ipc_gain_cost_pct", "%", "higher", 0.08},
  };
  return Decls;
}

const std::vector<MetricDecl> &perLayerMetrics() {
  static const std::vector<MetricDecl> Decls = {
      {"workloads.build_ms", "ms/cell", "lower", 0},
      {"cfg.analysis_ms", "ms/cell", "lower", 0},
      {"profile.ms", "ms/cell", "lower", 0},
      {"profile.instrs", "count", "lower", 0},
      {"profile.minstr_per_s", "Minstr/s", "higher", 0},
      {"core.select_ms", "ms/cell", "lower", 0},
      {"core.dmp_sims", "count", "lower", 0},
      {"core.distinct_map_frac", "frac", "higher", 0},
      {"sim.baseline_ms", "ms/cell", "lower", 0},
      {"sim.dmp_ms", "ms/cell", "lower", 0},
      {"sim.instrs", "count", "lower", 0},
      {"sim.minstr_per_s", "Minstr/s", "higher", 0},
      {"sim.base_ipc", "IPC", "higher", 0},
      {"sim.dmp_ipc", "IPC", "higher", 0},
      {"sim.flush_per_kinstr_base", "1/kinstr", "lower", 0},
      {"sim.flush_per_kinstr_dmp", "1/kinstr", "lower", 0},
      {"cache.key_ms", "ms/cell", "lower", 0},
      {"cache.load_ms", "ms/cell", "lower", 0},
      {"cache.decode_ms", "ms/cell", "lower", 0},
      {"cache.store_ms", "ms/cell", "lower", 0},
      {"cache.hits", "count", "higher", 0},
      {"cache.misses", "count", "lower", 0},
      {"cache.stores", "count", "lower", 0},
      {"cache.hit_frac", "frac", "higher", 0},
      {"cache.bytes_read", "bytes", "lower", 0},
      {"cache.bytes_written", "bytes", "lower", 0},
      {"exec.threads", "count", "higher", 0},
      {"exec.busy_s", "s", "lower", 0},
      {"exec.idle_s", "s", "lower", 0},
      {"exec.util_frac", "frac", "higher", 0},
      {"harness.context_ms", "ms/cell", "lower", 0},
      {"harness.cell_self_ms", "ms/cell", "lower", 0},
      {"harness.cells", "count", "higher", 0},
      {"harness.cells_failed", "count", "lower", 0},
      {"harness.retries", "count", "lower", 0},
      {"serve.submit_ms", "ms/cell", "lower", 0},
      {"serve.fetch_ms", "ms/cell", "lower", 0},
      {"serve.polls_per_cell", "count", "lower", 0},
      {"serve.cells_dispatched", "count", "higher", 0},
      {"serve.cells_retried", "count", "lower", 0},
      {"serve.jobs_deduped", "count", "higher", 0},
      {"serve.client_resubmits", "count", "lower", 0},
      {"trace.spans", "count", "lower", 0},
      {"trace.pipeline_self_frac", "frac", "higher", 0},
      {"trace.cells_per_s_untraced", "cells/s", "higher", 0},
      {"trace.cells_per_s_traced", "cells/s", "higher", 0},
      {"trace.overhead_frac", "frac", "lower", 0},
  };
  return Decls;
}

namespace {

/// Manifest strings are fixed ASCII without quotes or backslashes, so they
/// need no escaping.
std::string quoted(const char *S) { return std::string("\"") + S + "\""; }

std::string metricLine(const MetricDecl &M, bool WithBound) {
  std::string Line = "    {\"name\": " + quoted(M.Name) +
                     ", \"unit\": " + quoted(M.Unit) +
                     ", \"better\": " + quoted(M.Better);
  if (WithBound)
    Line += ", \"bound\": " + dmp::formatString("%g", M.Bound);
  return Line + "}";
}

} // namespace

std::string manifestJson() {
  std::string Out = "{\n";
  Out += "  \"command\": [\"python3\", \"paperbench/run.py\"],\n";
  Out += "  \"paths\": [\"paperbench\"],\n";
  Out += "  \"run_seconds\": " + std::to_string(kRunSeconds) + ",\n";
  Out += "  \"workloads\": [\n";
  for (size_t I = 0; I < workloadDecls().size(); ++I) {
    const WorkloadDecl &W = workloadDecls()[I];
    Out += "    {\"name\": " + quoted(W.Name) + ", \"why\": " + quoted(W.Why) +
           "}";
    Out += I + 1 < workloadDecls().size() ? ",\n" : "\n";
  }
  Out += "  ],\n";
  const auto Metrics = [&Out](const char *Key,
                              const std::vector<MetricDecl> &List,
                              bool WithBound, bool Last) {
    Out += std::string("  \"") + Key + "\": [\n";
    for (size_t I = 0; I < List.size(); ++I) {
      Out += metricLine(List[I], WithBound);
      Out += I + 1 < List.size() ? ",\n" : "\n";
    }
    Out += Last ? "  ]\n" : "  ],\n";
  };
  Metrics("end_to_end", endToEndMetrics(), true, false);
  Metrics("per_layer", perLayerMetrics(), false, true);
  return Out + "}\n";
}

} // namespace paperbench
