//===- analyze/Analyze.h - The static checker -------------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static checker: an AnalysisInput bundling a Program with the
/// optional artifacts the checks cross-check it against (CFG analyses, an
/// edge profile, a diverge-annotation map) and the two entry points that
/// run the four checks (analyze/Checks.h) and convert error-severity
/// findings into a dmp::Status.
///
/// The checks (see DESIGN.md "Static analysis" for the full code
/// registry):
///
///   checkIR                     structural and semantic IR validity:
///                               dataflow (maybe-undef reads),
///                               reachability, call-graph and
///                               register-range checks.
///   checkAnnotationConsistency  every annotation references a live
///                               conditional branch / block start of this
///                               exact program.
///   checkCfmLegality            CFM points post-dominate their diverge
///                               branch (for exact kinds), simple hammocks
///                               really are hammocks, loop annotations name
///                               real loops, and exact-CFM claims survive
///                               the side-effect summary cross-check (DF01).
///   checkProfileSanity          edge counts conserve flow per block;
///                               branch totals match; annotated branches
///                               executed.
///
/// lintAll runs checkIR first and stops when it finds error-severity
/// problems: the later checks (and the cfg:: analyses they read) assume a
/// structurally valid program.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_ANALYZE_ANALYZE_H
#define DMP_ANALYZE_ANALYZE_H

#include "analyze/Diagnostics.h"
#include "cfg/Analysis.h"
#include "cfg/EdgeProfile.h"
#include "core/DivergeInfo.h"
#include "ir/Program.h"
#include "support/Status.h"

#include <string>

namespace dmp::analyze {

/// What a lint run checks.  Only the program is mandatory; a check whose
/// artifact is absent does nothing (checkProfileSanity without a profile,
/// the annotation checks without annotations).
struct AnalysisInput {
  const ir::Program *P = nullptr;
  /// CFG analyses for \p P.  When null lintAll builds its own (only if the
  /// program passed checkIR: the analyses assert on malformed IR).
  const cfg::ProgramAnalysis *PA = nullptr;
  const cfg::EdgeProfile *Profile = nullptr;
  const core::DivergeMap *Annotations = nullptr;
};

/// Runs checkIR over \p P.  Returns ok when no error-severity diagnostic
/// was produced, otherwise Status::invariant (origin "analyze") naming the
/// first.  When \p Sink is null a local sink is used.
Status lintProgram(const ir::Program &P, DiagnosticSink *Sink = nullptr);

/// Runs checkIR, then (when it found no error) checkAnnotationConsistency,
/// checkCfmLegality and checkProfileSanity, building a ProgramAnalysis
/// when \p Input has none.  Status as lintProgram.
Status lintAll(const AnalysisInput &Input, DiagnosticSink *Sink = nullptr);

/// Lints the *serialized text* of a diverge map for duplicate/shadowed
/// `branch` entries (ANN07).  DivergeMap itself is keyed by address, so
/// duplicates silently collapse at parse time; this catches them in the
/// file before that happens.
void lintDivergeMapText(const std::string &Text, DiagnosticSink &Sink);

} // namespace dmp::analyze

#endif // DMP_ANALYZE_ANALYZE_H
