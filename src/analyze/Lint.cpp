//===- analyze/Lint.cpp - The lint entry points ---------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "analyze/Checks.h"

#include "support/StringUtils.h"

#include <cstdint>
#include <memory>
#include <sstream>
#include <unordered_map>

namespace dmp::analyze {

static Status statusFromSink(const DiagnosticSink &Sink) {
  if (Sink.errorCount() == 0)
    return Status();
  std::string First;
  for (const Diagnostic &D : Sink.diagnostics()) {
    if (D.Sev == Severity::Error) {
      First = D.renderText();
      // A multi-line rendering (notes) would garble the one-line message.
      const size_t Newline = First.find('\n');
      if (Newline != std::string::npos)
        First.resize(Newline);
      break;
    }
  }
  return Status::invariant(
      formatString("lint found %zu error diagnostic%s (first: %s)",
                   Sink.errorCount(), Sink.errorCount() == 1 ? "" : "s",
                   First.c_str()),
      "analyze");
}

Status lintProgram(const ir::Program &P, DiagnosticSink *Sink) {
  DiagnosticSink LocalSink;
  DiagnosticSink &S = Sink ? *Sink : LocalSink;
  checkIR(P, S);
  return statusFromSink(S);
}

Status lintAll(const AnalysisInput &Input, DiagnosticSink *Sink) {
  if (Input.P == nullptr)
    return Status::invariant("analysis input has no program", "analyze");
  DiagnosticSink LocalSink;
  DiagnosticSink &S = Sink ? *Sink : LocalSink;

  // checkIR first: everything downstream (cfg::ProgramAnalysis
  // construction included) assumes a structurally valid program.
  const size_t ErrorsBefore = S.errorCount();
  checkIR(*Input.P, S);
  if (S.errorCount() > ErrorsBefore)
    return statusFromSink(S);

  AnalysisInput Local = Input;
  std::unique_ptr<cfg::ProgramAnalysis> OwnedPA;
  if (Local.PA == nullptr) {
    OwnedPA = std::make_unique<cfg::ProgramAnalysis>(*Input.P);
    Local.PA = OwnedPA.get();
  }
  checkAnnotationConsistency(Local, S);
  checkCfmLegality(Local, S);
  checkProfileSanity(Local, S);
  return statusFromSink(S);
}

void lintDivergeMapText(const std::string &Text, DiagnosticSink &Sink) {
  std::istringstream In(Text);
  std::string Line;
  // branch-addr -> first line number it appeared on.
  std::unordered_map<uint32_t, unsigned> Seen;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.rfind("branch ", 0) != 0)
      continue;
    // Parse just the address token; full validation is parseDivergeMap's
    // job — a malformed line is its Corrupt, not our ANN07.
    uint64_t Addr = 0;
    if (!parseU64(Line.substr(7, Line.find(' ', 7) - 7), Addr) ||
        Addr > UINT32_MAX)
      continue;
    auto [It, Inserted] = Seen.emplace(static_cast<uint32_t>(Addr), LineNo);
    if (!Inserted)
      Sink.report(
          DiagCode::AnnDuplicateEntry, DiagLocation::program(),
          formatString("duplicate entry for branch %llu on line %u shadows "
                       "the entry on line %u",
                       static_cast<unsigned long long>(Addr), LineNo,
                       It->second));
  }
}

} // namespace dmp::analyze
