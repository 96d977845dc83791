//===- analyze/Diagnostics.h - Structured lint diagnostics --------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostics engine of the static checker (src/analyze): a stable
/// registry of diagnostic codes, a Diagnostic value type carrying code,
/// severity, location and message, and a DiagnosticSink that collects
/// findings and renders them as human-readable text (dmp_lint --json is
/// the machine-readable rendering).
///
/// Codes are stable identifiers ("IR04", "CFM01", "PROF01", ...): tests,
/// scripts, and golden files key on them, so a code is never renumbered or
/// reused once shipped.  The full registry with meanings lives in DESIGN.md
/// ("Static analysis").
///
/// Severity policy: Error findings make lintProgram and lintAll return a
/// non-ok Status (and fail dmp_lint, the tier-1 lint tests and the fuzz
/// oracle's lint leg); Warning findings are reported but gate only under
/// dmp_lint --werror; Note is reserved for attachments to a primary
/// diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_ANALYZE_DIAGNOSTICS_H
#define DMP_ANALYZE_DIAGNOSTICS_H

#include "ir/Instruction.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dmp::analyze {

enum class Severity : uint8_t { Note, Warning, Error };

const char *severityName(Severity Sev);

/// Every diagnostic the checker can produce.  Grouped by check; the printed
/// code (diagCodeName) is the stable external identifier.
enum class DiagCode : uint8_t {
  // IRLint (IR01-IR20): structure and semantics of the IR itself.
  IrNotFinalized,       // IR01
  IrNoMain,             // IR02
  IrEmptyFunction,      // IR03
  IrEmptyBlock,         // IR04
  IrTerminatorMidBlock, // IR05
  IrWriteToZeroReg,     // IR06
  IrBranchNoTarget,     // IR07
  IrCrossFunctionBranch,// IR08
  IrCallNoCallee,       // IR09
  IrFallsOffEnd,        // IR10
  IrAddrTableSkew,      // IR11
  IrBlockTableSkew,     // IR12
  IrNoHalt,             // IR13
  IrUnreachableBlock,   // IR14 (warning)
  IrMaybeUndefRead,     // IR15 (warning)
  IrRegOutOfRange,      // IR16
  IrCalleeNotInProgram, // IR17
  IrCallToMain,         // IR18 (warning)
  IrUnreachableFunction,// IR19 (warning)
  IrRecursion,          // IR20 (warning)

  // AnnotationConsistency (ANN01-ANN07): do annotations reference live
  // blocks/branches of this exact program?
  AnnBranchAddrOutOfRange, // ANN01
  AnnNotCondBr,            // ANN02
  AnnCfmAddrOutOfRange,    // ANN03
  AnnCfmNotBlockStart,     // ANN04
  AnnLoopHeaderBad,        // ANN05
  AnnDeadBlock,            // ANN06
  AnnDuplicateEntry,       // ANN07 (warning)

  // CfmLegality (CFM01-CFM13): structural legality of diverge/CFM
  // annotations.
  CfmNotPostDominator,  // CFM01
  CfmUnreachable,       // CFM02
  CfmOneSidedMerge,     // CFM03 (warning)
  CfmNotSimpleHammock,  // CFM04
  CfmLoopHeaderNotLoop, // CFM05
  CfmLoopBranchNotExit, // CFM06
  CfmDuplicatePoint,    // CFM07
  CfmMergeProbRange,    // CFM08
  CfmMergeProbSum,      // CFM09 (warning)
  CfmNestedConflict,    // CFM10 (warning)
  CfmCrossFunction,     // CFM11
  CfmReturnUnreachable, // CFM12
  CfmImprobableMerge,   // CFM13 (warning)

  // ProfileSanity (PROF01-PROF04): internal consistency of an edge profile
  // against the program and the annotations.
  ProfFlowNotConserved,       // PROF01
  ProfBranchTotalsMismatch,   // PROF02
  ProfUnknownAddr,            // PROF03
  ProfAnnotatedNeverExecuted, // PROF04 (warning)

  // Dataflow (DF01): CfmLegality's cross-check of an exact-CFM claim
  // against dmp::dataflow's per-block side-effect summary.
  DfExactCfmImpure, // DF01
};

/// Stable printed code, e.g. "CFM01".
const char *diagCodeName(DiagCode Code);

/// The registry severity of \p Code (what DiagnosticSink::report assigns).
Severity diagCodeSeverity(DiagCode Code);

/// Where a diagnostic points.  Names are copied so a Diagnostic stays valid
/// after the program it was produced from is destroyed.
struct DiagLocation {
  std::string Function; ///< Empty for program scope.
  std::string Block;    ///< Empty for function scope.
  uint32_t Addr = ir::InvalidAddr; ///< Instruction address when known.

  static DiagLocation program() { return DiagLocation(); }
  static DiagLocation inFunction(std::string Fn) {
    DiagLocation L;
    L.Function = std::move(Fn);
    return L;
  }
  static DiagLocation inBlock(std::string Fn, std::string Block,
                              uint32_t Addr = ir::InvalidAddr) {
    DiagLocation L;
    L.Function = std::move(Fn);
    L.Block = std::move(Block);
    L.Addr = Addr;
    return L;
  }
};

/// One finding.
struct Diagnostic {
  DiagCode Code = DiagCode::IrNotFinalized;
  Severity Sev = Severity::Error;
  DiagLocation Loc;
  std::string Message;
  std::vector<std::string> Notes;

  /// "error[CFM01] main:merge@17: message" (missing trailing location
  /// parts are omitted; a program-scope location renders as "-"); notes
  /// follow on "  note: ..." lines.
  std::string renderText() const;
};

/// Collects diagnostics in emission order (checks iterate their subjects
/// deterministically, so the order is stable run-to-run).
class DiagnosticSink {
public:
  /// Reports a finding with the registry severity of \p Code.  Returns the
  /// stored diagnostic so the caller can attach notes.
  Diagnostic &report(DiagCode Code, DiagLocation Loc, std::string Message);

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }
  bool empty() const { return Diags.empty(); }
  size_t errorCount() const { return Errors; }
  size_t warningCount() const { return Warnings; }

  /// True when \p Code was reported at least once.
  bool has(DiagCode Code) const;

  /// All diagnostics as text, one finding per entry (renderText lines).
  std::string renderText() const;

  /// "2 errors, 1 warning" (or "clean").
  std::string summaryLine() const;

private:
  std::vector<Diagnostic> Diags;
  size_t Errors = 0;
  size_t Warnings = 0;
};

} // namespace dmp::analyze

#endif // DMP_ANALYZE_DIAGNOSTICS_H
