//===- analyze/Checks.h - The four checks lintAll runs ----------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Private to src/analyze: one function per check, each defined in the
/// source file of its name.  Callers use lintProgram and lintAll
/// (analyze/Analyze.h), which order the checks and fold their findings
/// into a Status.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_ANALYZE_CHECKS_H
#define DMP_ANALYZE_CHECKS_H

#include "analyze/Analyze.h"

namespace dmp::analyze {

/// IR01-IR20 over \p P.
void checkIR(const ir::Program &P, DiagnosticSink &Sink);

/// ANN01-ANN06, CFM01-CFM13 and PROF01-PROF04.  Each needs Input.PA and a
/// program that passed checkIR.
void checkAnnotationConsistency(const AnalysisInput &Input,
                                DiagnosticSink &Sink);
void checkCfmLegality(const AnalysisInput &Input, DiagnosticSink &Sink);
void checkProfileSanity(const AnalysisInput &Input, DiagnosticSink &Sink);

} // namespace dmp::analyze

#endif // DMP_ANALYZE_CHECKS_H
