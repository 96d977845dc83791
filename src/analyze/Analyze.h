//===- analyze/Analyze.h - Pass-based static checker --------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-checker pass framework: an AnalysisInput bundling a Program
/// with the optional artifacts the passes can cross-check it against (CFG
/// analyses, an edge profile, a diverge-annotation map), a Pass interface,
/// and an AnalysisManager that runs a pipeline and converts error-severity
/// findings into a dmp::Status.
///
/// Shipped passes (see DESIGN.md "Static analysis" for the full code
/// registry):
///
///   IRLint                 structural and semantic IR validity; subsumes
///                          the legacy ir::Verifier checks and adds
///                          dataflow (maybe-undef reads), reachability,
///                          call-graph and register-range checks.
///   AnnotationConsistency  every annotation references a live conditional
///                          branch / block start of this exact program.
///   CfmLegality            CFM points post-dominate their diverge branch
///                          (for exact kinds), simple hammocks really are
///                          hammocks, loop annotations name real loops,
///                          and exact-CFM claims survive the side-effect
///                          summary cross-check (DF01).
///   ProfileSanity          edge counts conserve flow per block; branch
///                          totals match; annotated branches executed.
///
/// The manager always runs IRLint first and short-circuits the remaining
/// passes when it finds error-severity problems: the later passes (and the
/// cfg:: analyses they build) assume a structurally valid program.
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

#include <memory>
#include <string>
#include <vector>

namespace dmp::analyze {

/// What a pipeline run checks.  Only the program is mandatory; passes that
/// need an absent artifact become no-ops (ProfileSanity without a profile,
/// CfmLegality without annotations, ...).
struct AnalysisInput {
  const ir::Program *P = nullptr;
  /// CFG analyses for \p P.  When null the manager builds its own (only if
  /// the program passed IRLint — the analyses assert on malformed IR).
  const cfg::ProgramAnalysis *PA = nullptr;
  const cfg::EdgeProfile *Profile = nullptr;
  const core::DivergeMap *Annotations = nullptr;
};

/// One checker pass.
class Pass {
public:
  virtual ~Pass() = default;

  virtual const char *name() const = 0;

  /// True when run() dereferences Input.PA (the manager then guarantees a
  /// ProgramAnalysis, building one on demand).
  virtual bool needsAnalysis() const { return false; }

  virtual void run(const AnalysisInput &Input, DiagnosticSink &Sink) = 0;
};

std::unique_ptr<Pass> createIRLintPass();
std::unique_ptr<Pass> createAnnotationConsistencyPass();
std::unique_ptr<Pass> createCfmLegalityPass();
std::unique_ptr<Pass> createProfileSanityPass();

/// Runs a pass pipeline and folds error findings into a Status.
class AnalysisManager {
public:
  AnalysisManager() = default;

  void addPass(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  /// The standard pipeline: IRLint, AnnotationConsistency, CfmLegality,
  /// ProfileSanity (in that order).
  static AnalysisManager standardPipeline();

  /// Runs every registered pass over \p Input, reporting into \p Sink.
  /// IRLint (when registered) runs first; if it reports error-severity
  /// findings the remaining passes are skipped, since they require a
  /// well-formed program.  Returns ok when no error-severity diagnostics
  /// were produced, otherwise Status::invariant (origin "analyze").
  Status run(const AnalysisInput &Input, DiagnosticSink &Sink) const;

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

/// Lints just the IR (the ir::Verifier replacement).  When \p Sink is null
/// a local sink is used and the first error lands in the Status message.
Status lintProgram(const ir::Program &P, DiagnosticSink *Sink = nullptr);

/// Runs the standard pipeline over \p Input.
Status lintAll(const AnalysisInput &Input, DiagnosticSink *Sink = nullptr);

/// Lints the *serialized text* of a diverge map for duplicate/shadowed
/// `branch` entries (ANN07).  DivergeMap itself is keyed by address, so
/// duplicates silently collapse at parse time; this catches them in the
/// file before that happens.
void lintDivergeMapText(const std::string &Text, DiagnosticSink &Sink);

} // namespace dmp::analyze

#endif // DMP_ANALYZE_ANALYZE_H
