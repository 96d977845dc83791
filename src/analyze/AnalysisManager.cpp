//===- analyze/AnalysisManager.cpp - Pass pipeline driver ---------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "analyze/Analyze.h"

#include "support/StringUtils.h"

#include <cstdint>
#include <sstream>
#include <unordered_map>

namespace dmp::analyze {

AnalysisManager AnalysisManager::standardPipeline() {
  AnalysisManager AM;
  AM.addPass(createIRLintPass());
  AM.addPass(createAnnotationConsistencyPass());
  AM.addPass(createCfmLegalityPass());
  AM.addPass(createProfileSanityPass());
  return AM;
}

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

Status AnalysisManager::run(const AnalysisInput &Input,
                            DiagnosticSink &Sink) const {
  if (Input.P == nullptr)
    return Status::invariant("analysis input has no program", "analyze");

  // IRLint first: everything downstream (including cfg::ProgramAnalysis
  // construction) assumes a structurally valid program.
  const size_t ErrorsBefore = Sink.errorCount();
  bool RanIrLint = false;
  for (const auto &P : Passes) {
    if (std::string(P->name()) == "IRLint") {
      P->run(Input, Sink);
      RanIrLint = true;
      break;
    }
  }
  if (RanIrLint && Sink.errorCount() > ErrorsBefore)
    return statusFromSink(Sink);

  // Build a local ProgramAnalysis when a later pass needs one and the
  // caller didn't supply it.  Safe now: IRLint passed (or wasn't
  // registered, in which case the caller vouches for the program).
  AnalysisInput Local = Input;
  std::unique_ptr<cfg::ProgramAnalysis> OwnedPA;
  for (const auto &P : Passes) {
    if (std::string(P->name()) != "IRLint" && P->needsAnalysis() &&
        Local.PA == nullptr) {
      OwnedPA = std::make_unique<cfg::ProgramAnalysis>(*Input.P);
      Local.PA = OwnedPA.get();
      break;
    }
  }

  for (const auto &P : Passes) {
    if (std::string(P->name()) == "IRLint")
      continue;
    P->run(Local, Sink);
  }
  return statusFromSink(Sink);
}

Status lintProgram(const ir::Program &P, DiagnosticSink *Sink) {
  DiagnosticSink LocalSink;
  DiagnosticSink &S = Sink ? *Sink : LocalSink;
  AnalysisManager AM;
  AM.addPass(createIRLintPass());
  AnalysisInput Input;
  Input.P = &P;
  return AM.run(Input, S);
}

Status lintAll(const AnalysisInput &Input, DiagnosticSink *Sink) {
  DiagnosticSink LocalSink;
  DiagnosticSink &S = Sink ? *Sink : LocalSink;
  return AnalysisManager::standardPipeline().run(Input, S);
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
