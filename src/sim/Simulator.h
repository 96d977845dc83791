//===- sim/Simulator.h - Simulation entry points ---------------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience entry points for running the DMP machine on a program +
/// input image, or on a recorded correct-path trace of them.  The baseline
/// is the same machine with an empty core::DivergeMap.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SIM_SIMULATOR_H
#define DMP_SIM_SIMULATOR_H

#include "core/DivergeInfo.h"
#include "ir/Program.h"
#include "sim/CorrectPathTrace.h"
#include "sim/FinalState.h"
#include "sim/SimConfig.h"
#include "sim/SimStats.h"

#include <vector>

namespace dmp::sim {

/// Runs the DMP machine with the diverge-branch annotations \p Diverge:
/// records the correct path (recordCorrectPath) and replays it.  An empty
/// map is the baseline machine: dpred-mode is entered only at annotated
/// branches (paper Section 2), so without any the run is exactly the
/// baseline's.  \p FinalStateOut (optional) receives the retired
/// architectural state.
SimStats simulateDmp(const ir::Program &P, const core::DivergeMap &Diverge,
                     const std::vector<int64_t> &MemoryImage,
                     const SimConfig &Config = SimConfig(),
                     FinalState *FinalStateOut = nullptr);

/// Replays \p Trace, recorded by recordCorrectPath for \p P under a
/// configuration with the same correct-path front end as \p Config,
/// through the DMP machine with \p Diverge (empty: the baseline).  Many
/// replays may share one trace.
SimStats simulateDmp(const ir::Program &P, const core::DivergeMap &Diverge,
                     const CorrectPathTrace &Trace,
                     const SimConfig &Config = SimConfig());

} // namespace dmp::sim

#endif // DMP_SIM_SIMULATOR_H
