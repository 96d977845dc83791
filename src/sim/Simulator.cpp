//===- sim/Simulator.cpp - Simulation entry points -----------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "sim/DmpCore.h"

using namespace dmp;
using namespace dmp::sim;

SimStats sim::simulateBaseline(const ir::Program &P,
                               const std::vector<int64_t> &MemoryImage,
                               const SimConfig &Config,
                               FinalState *FinalStateOut) {
  return simulateBaseline(
      P, recordCorrectPath(P, MemoryImage, Config, FinalStateOut), Config);
}

SimStats sim::simulateDmp(const ir::Program &P, const core::DivergeMap &Diverge,
                          const std::vector<int64_t> &MemoryImage,
                          const SimConfig &Config,
                          FinalState *FinalStateOut) {
  return simulateDmp(
      P, Diverge, recordCorrectPath(P, MemoryImage, Config, FinalStateOut),
      Config);
}

SimStats sim::simulateBaseline(const ir::Program &P,
                               const CorrectPathTrace &Trace,
                               const SimConfig &Config) {
  SimConfig BaselineConfig = Config;
  BaselineConfig.EnableDmp = false;
  return DmpCore(P, nullptr, BaselineConfig).run(Trace);
}

SimStats sim::simulateDmp(const ir::Program &P, const core::DivergeMap &Diverge,
                          const CorrectPathTrace &Trace,
                          const SimConfig &Config) {
  SimConfig DmpConfig = Config;
  DmpConfig.EnableDmp = true;
  return DmpCore(P, &Diverge, DmpConfig).run(Trace);
}
