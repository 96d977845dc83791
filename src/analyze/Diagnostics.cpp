//===- analyze/Diagnostics.cpp - Structured lint diagnostics ------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "analyze/Diagnostics.h"

#include "support/StringUtils.h"

#include <algorithm>

namespace dmp::analyze {

const char *severityName(Severity Sev) {
  switch (Sev) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

const char *diagCodeName(DiagCode Code) {
  switch (Code) {
  case DiagCode::IrNotFinalized:
    return "IR01";
  case DiagCode::IrNoMain:
    return "IR02";
  case DiagCode::IrEmptyFunction:
    return "IR03";
  case DiagCode::IrEmptyBlock:
    return "IR04";
  case DiagCode::IrTerminatorMidBlock:
    return "IR05";
  case DiagCode::IrWriteToZeroReg:
    return "IR06";
  case DiagCode::IrBranchNoTarget:
    return "IR07";
  case DiagCode::IrCrossFunctionBranch:
    return "IR08";
  case DiagCode::IrCallNoCallee:
    return "IR09";
  case DiagCode::IrFallsOffEnd:
    return "IR10";
  case DiagCode::IrAddrTableSkew:
    return "IR11";
  case DiagCode::IrBlockTableSkew:
    return "IR12";
  case DiagCode::IrNoHalt:
    return "IR13";
  case DiagCode::IrUnreachableBlock:
    return "IR14";
  case DiagCode::IrMaybeUndefRead:
    return "IR15";
  case DiagCode::IrRegOutOfRange:
    return "IR16";
  case DiagCode::IrCalleeNotInProgram:
    return "IR17";
  case DiagCode::IrCallToMain:
    return "IR18";
  case DiagCode::IrUnreachableFunction:
    return "IR19";
  case DiagCode::IrRecursion:
    return "IR20";
  case DiagCode::AnnBranchAddrOutOfRange:
    return "ANN01";
  case DiagCode::AnnNotCondBr:
    return "ANN02";
  case DiagCode::AnnCfmAddrOutOfRange:
    return "ANN03";
  case DiagCode::AnnCfmNotBlockStart:
    return "ANN04";
  case DiagCode::AnnLoopHeaderBad:
    return "ANN05";
  case DiagCode::AnnDeadBlock:
    return "ANN06";
  case DiagCode::AnnDuplicateEntry:
    return "ANN07";
  case DiagCode::CfmNotPostDominator:
    return "CFM01";
  case DiagCode::CfmUnreachable:
    return "CFM02";
  case DiagCode::CfmOneSidedMerge:
    return "CFM03";
  case DiagCode::CfmNotSimpleHammock:
    return "CFM04";
  case DiagCode::CfmLoopHeaderNotLoop:
    return "CFM05";
  case DiagCode::CfmLoopBranchNotExit:
    return "CFM06";
  case DiagCode::CfmDuplicatePoint:
    return "CFM07";
  case DiagCode::CfmMergeProbRange:
    return "CFM08";
  case DiagCode::CfmMergeProbSum:
    return "CFM09";
  case DiagCode::CfmNestedConflict:
    return "CFM10";
  case DiagCode::CfmCrossFunction:
    return "CFM11";
  case DiagCode::CfmReturnUnreachable:
    return "CFM12";
  case DiagCode::CfmImprobableMerge:
    return "CFM13";
  case DiagCode::ProfFlowNotConserved:
    return "PROF01";
  case DiagCode::ProfBranchTotalsMismatch:
    return "PROF02";
  case DiagCode::ProfUnknownAddr:
    return "PROF03";
  case DiagCode::ProfAnnotatedNeverExecuted:
    return "PROF04";
  case DiagCode::DfExactCfmImpure:
    return "DF01";
  }
  return "??";
}

Severity diagCodeSeverity(DiagCode Code) {
  switch (Code) {
  case DiagCode::IrUnreachableBlock:
  case DiagCode::IrMaybeUndefRead:
  case DiagCode::IrCallToMain:
  case DiagCode::IrUnreachableFunction:
  case DiagCode::IrRecursion:
  case DiagCode::AnnDuplicateEntry:
  case DiagCode::CfmOneSidedMerge:
  case DiagCode::CfmMergeProbSum:
  case DiagCode::CfmNestedConflict:
  case DiagCode::CfmImprobableMerge:
  case DiagCode::ProfAnnotatedNeverExecuted:
    return Severity::Warning;
  default:
    return Severity::Error;
  }
}

static std::string renderLocation(const DiagLocation &Loc) {
  if (Loc.Function.empty())
    return "-"; // Program scope.
  std::string Out = Loc.Function;
  if (!Loc.Block.empty()) {
    Out += ':';
    Out += Loc.Block;
  }
  if (Loc.Addr != ir::InvalidAddr) {
    Out += '@';
    Out += std::to_string(Loc.Addr);
  }
  return Out;
}

std::string Diagnostic::renderText() const {
  std::string Out = formatString("%s[%s] %s: ", severityName(Sev),
                                 diagCodeName(Code),
                                 renderLocation(Loc).c_str());
  Out += Message;
  for (const std::string &N : Notes) {
    Out += "\n  note: ";
    Out += N;
  }
  return Out;
}

Diagnostic &DiagnosticSink::report(DiagCode Code, DiagLocation Loc,
                                   std::string Message) {
  Diagnostic D;
  D.Code = Code;
  D.Sev = diagCodeSeverity(Code);
  D.Loc = std::move(Loc);
  D.Message = std::move(Message);
  if (D.Sev == Severity::Error)
    ++Errors;
  else if (D.Sev == Severity::Warning)
    ++Warnings;
  Diags.push_back(std::move(D));
  return Diags.back();
}

bool DiagnosticSink::has(DiagCode Code) const {
  return std::any_of(Diags.begin(), Diags.end(),
                     [Code](const Diagnostic &D) { return D.Code == Code; });
}

std::string DiagnosticSink::renderText() const {
  std::string Out;
  for (const Diagnostic &D : Diags) {
    Out += D.renderText();
    Out += '\n';
  }
  return Out;
}

std::string DiagnosticSink::summaryLine() const {
  if (Errors == 0 && Warnings == 0)
    return "clean";
  std::string Out;
  if (Errors > 0)
    Out = formatString("%zu error%s", Errors, Errors == 1 ? "" : "s");
  if (Warnings > 0) {
    if (!Out.empty())
      Out += ", ";
    Out += formatString("%zu warning%s", Warnings, Warnings == 1 ? "" : "s");
  }
  return Out;
}

} // namespace dmp::analyze
