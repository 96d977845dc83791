//===- check/Oracle.cpp - Differential oracle for dynamic predication ---------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "check/Oracle.h"

#include "analyze/Analyze.h"
#include "core/DivergeSelector.h"
#include "profile/Emulator.h"
#include "profile/Profiler.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

using namespace dmp;
using namespace dmp::check;

bool OracleReport::ok() const {
  if (!GenErrors.empty())
    return false;
  for (const LegResult &Leg : Legs)
    if (!Leg.Errors.empty())
      return false;
  return true;
}

std::string OracleReport::summary() const {
  std::string S;
  for (const std::string &E : GenErrors)
    S += "generator: " + E + "\n";
  for (const LegResult &Leg : Legs)
    for (const std::string &E : Leg.Errors)
      S += Leg.Name + ": " + E + "\n";
  return S;
}

sim::FinalState check::runReference(const ir::Program &P,
                                    const std::vector<int64_t> &Image,
                                    uint64_t MaxInstrs) {
  sim::FinalState Out;
  profile::Emulator Emu(P, Image);
  profile::DynInstr D;
  // Same stepping discipline as DmpCore::run, so capped runs retire the
  // same instruction count as every simulator leg — but through
  // stepReference, the preserved original interpreter, so the oracle's
  // ground truth stays independent of the decoded fast path it checks.
  while (Emu.executedCount() < MaxInstrs && Emu.stepReference(D))
    if (D.I->Op == ir::Opcode::Store)
      Out.Stores.push_back({D.Addr, D.MemAddr, Emu.memWord(D.MemAddr)});
  sim::captureArchState(Emu, Out);
  return Out;
}

core::DivergeMap
check::adversarialAnnotations(const cfg::ProgramAnalysis &PA) {
  const ir::Program &P = PA.getProgram();
  core::DivergeMap Map;
  for (uint32_t Addr : P.condBranchAddrs()) {
    const ir::Instruction &I = P.instrAt(Addr);
    const ir::BasicBlock *B = P.blockAt(Addr);
    const cfg::FunctionAnalysis &FA = PA.atAddr(Addr);

    core::DivergeAnnotation Ann;
    Ann.AlwaysPredicate = true;

    const ir::BasicBlock *Taken = I.Target;
    const ir::BasicBlock *Fall = B->getFallthrough();
    const cfg::Loop *L = FA.LI.loopFor(B);
    const bool BackEdge =
        L && (Taken == L->getHeader() || Fall == L->getHeader());
    const bool ExitsLoop =
        L && (!L->contains(Taken) || (Fall && !L->contains(Fall)));
    if (BackEdge || ExitsLoop) {
      Ann.Kind = core::DivergeKind::Loop;
      Ann.LoopHeaderAddr = L->getHeader()->getStartAddr();
      Ann.LoopSelectUops = L->writtenRegCount();
      Ann.LoopStayTaken = L->contains(Taken);
    } else if (const ir::BasicBlock *Ipd = FA.PDT.ipostdom(B)) {
      Ann.Kind = core::DivergeKind::SimpleHammock;
      Ann.Cfms.push_back(core::CfmPoint::atAddress(Ipd->getStartAddr(), 1.0));
    } else {
      // Paths only rejoin after the function returns (Section 3.5).
      Ann.Kind = core::DivergeKind::SimpleHammock;
      Ann.Cfms.push_back(core::CfmPoint::atReturn(1.0));
    }
    Map.add(Addr, std::move(Ann));
  }
  return Map;
}

namespace {

std::string fmt(const char *Format, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buf, sizeof(Buf), Format, Args);
  va_end(Args);
  return Buf;
}

/// Asserts bit-identical retired architectural state vs the reference.
void compareStates(const sim::FinalState &Ref, LegResult &Leg) {
  const sim::FinalState &S = Leg.State;
  for (unsigned R = 0; R < ir::NumRegs; ++R)
    if (S.Regs[R] != Ref.Regs[R])
      Leg.Errors.push_back(fmt("final r%u mismatch (sim %lld != ref %lld)", R,
                               static_cast<long long>(S.Regs[R]),
                               static_cast<long long>(Ref.Regs[R])));
  if (S.MemoryWords != Ref.MemoryWords)
    Leg.Errors.push_back(fmt("memory size mismatch (sim %llu != ref %llu)",
                             static_cast<unsigned long long>(S.MemoryWords),
                             static_cast<unsigned long long>(Ref.MemoryWords)));
  if (S.MemoryFingerprint != Ref.MemoryFingerprint)
    Leg.Errors.push_back(
        fmt("memory fingerprint mismatch (sim %016llx != ref %016llx)",
            static_cast<unsigned long long>(S.MemoryFingerprint),
            static_cast<unsigned long long>(Ref.MemoryFingerprint)));
  if (S.Stores.size() != Ref.Stores.size())
    Leg.Errors.push_back(fmt("retired store count mismatch (sim %zu != ref "
                             "%zu)",
                             S.Stores.size(), Ref.Stores.size()));
  const size_t N = std::min(S.Stores.size(), Ref.Stores.size());
  for (size_t I = 0; I < N; ++I)
    if (!(S.Stores[I] == Ref.Stores[I])) {
      Leg.Errors.push_back(
          fmt("retired store %zu mismatch (sim pc=%u [%llu]=%lld != ref "
              "pc=%u [%llu]=%lld)",
              I, S.Stores[I].InstrAddr,
              static_cast<unsigned long long>(S.Stores[I].WordAddr),
              static_cast<long long>(S.Stores[I].Value),
              Ref.Stores[I].InstrAddr,
              static_cast<unsigned long long>(Ref.Stores[I].WordAddr),
              static_cast<long long>(Ref.Stores[I].Value)));
      break; // First divergence point is the useful one.
    }
  if (S.RetiredInstrs != Ref.RetiredInstrs)
    Leg.Errors.push_back(fmt("retired instr count mismatch (sim %llu != ref "
                             "%llu)",
                             static_cast<unsigned long long>(S.RetiredInstrs),
                             static_cast<unsigned long long>(Ref.RetiredInstrs)));
  if (S.Halted != Ref.Halted)
    Leg.Errors.push_back(fmt("halt state mismatch (sim %d != ref %d)",
                             S.Halted, Ref.Halted));
}

/// Internal-consistency checks on the simulator's own counters.
void checkInvariants(bool IsDmp, LegResult &Leg) {
  const sim::SimStats &S = Leg.Stats;
  if (S.Mispredictions > S.CondBranches)
    Leg.Errors.push_back(fmt("mispredictions %llu > cond branches %llu",
                             (unsigned long long)S.Mispredictions,
                             (unsigned long long)S.CondBranches));
  if (S.LowConfBranches > S.CondBranches)
    Leg.Errors.push_back(fmt("low-conf branches %llu > cond branches %llu",
                             (unsigned long long)S.LowConfBranches,
                             (unsigned long long)S.CondBranches));
  if (S.LowConfMispredicted > S.LowConfBranches)
    Leg.Errors.push_back(fmt("low-conf mispredicted %llu > low-conf %llu",
                             (unsigned long long)S.LowConfMispredicted,
                             (unsigned long long)S.LowConfBranches));

  if (!IsDmp) {
    // Without dpred every misprediction (branch or return) flushes, and
    // nothing else does.
    if (S.DpredEntries != 0 || S.SelectUops != 0 || S.DpredActiveAtEnd != 0)
      Leg.Errors.push_back("dpred counters nonzero in baseline run");
    if (S.Flushes != S.Mispredictions + S.RasMispredicts)
      Leg.Errors.push_back(
          fmt("baseline flushes %llu != mispredictions %llu + ras %llu",
              (unsigned long long)S.Flushes,
              (unsigned long long)S.Mispredictions,
              (unsigned long long)S.RasMispredicts));
    return;
  }

  // Dynamic predication may only remove flushes, never add them.
  if (S.Flushes > S.Mispredictions + S.RasMispredicts)
    Leg.Errors.push_back(
        fmt("dmp flushes %llu > mispredictions %llu + ras %llu",
            (unsigned long long)S.Flushes,
            (unsigned long long)S.Mispredictions,
            (unsigned long long)S.RasMispredicts));

  // Episode accounting: every entered episode terminates in exactly one
  // way (or was still active when the run ended).
  const uint64_t Ended = S.DpredMerged + S.DpredNoMerge + S.DpredAborted +
                         S.LoopCorrect + S.LoopEarlyExit + S.LoopLateExit +
                         S.LoopNoExit + S.DpredActiveAtEnd;
  if (S.DpredEntries != Ended)
    Leg.Errors.push_back(fmt("episode accounting broken: %llu entries != "
                             "%llu outcomes",
                             (unsigned long long)S.DpredEntries,
                             (unsigned long long)Ended));
  if (S.DpredEntriesLoop > S.DpredEntries ||
      S.DpredEntriesAlways > S.DpredEntries)
    Leg.Errors.push_back("episode kind counters exceed total entries");
  if (S.DpredSavedFlushes > S.DpredEntries)
    Leg.Errors.push_back(fmt("saved flushes %llu > episodes %llu",
                             (unsigned long long)S.DpredSavedFlushes,
                             (unsigned long long)S.DpredEntries));
}

} // namespace

OracleReport check::runOracle(const ir::Program &P,
                              const cfg::ProgramAnalysis &PA,
                              const std::vector<int64_t> &Image,
                              const OracleOptions &Opts) {
  OracleReport Report;
  // Fast pre-oracle: a structurally invalid program would surface as a
  // confusing leg divergence; lint it into precise diagnostics instead.
  analyze::DiagnosticSink LintSink;
  analyze::lintProgram(P, &LintSink);
  for (const analyze::Diagnostic &D : LintSink.diagnostics())
    if (D.Sev == analyze::Severity::Error)
      Report.GenErrors.push_back(D.renderText());
  if (!Report.GenErrors.empty())
    return Report; // Invalid program: nothing else is meaningful.

  Report.Reference = runReference(P, Image, Opts.MaxInstrs);

  const auto RunLeg = [&](const std::string &Name,
                          const core::DivergeMap &Diverge,
                          unsigned InjectFault) {
    LegResult Leg;
    Leg.Name = Name;
    sim::SimConfig Cfg = Opts.Sim;
    Cfg.MaxInstrs = Opts.MaxInstrs;
    Cfg.InjectFault = InjectFault;
    Leg.Stats = sim::simulateDmp(P, Diverge, Image, Cfg, &Leg.State);
    compareStates(Report.Reference, Leg);
    checkInvariants(!Diverge.empty(), Leg);
    Report.Legs.push_back(std::move(Leg));
  };

  RunLeg("baseline", core::DivergeMap(), 0);

  if (Opts.RunSelected) {
    profile::ProfileOptions ProfOpts;
    ProfOpts.MaxInstrs = Opts.MaxInstrs;
    const profile::ProfileData Prof =
        profile::collectProfile(P, PA, Image, ProfOpts);
    const core::DivergeMap Selected = core::selectDivergeBranches(
        PA, Prof, core::SelectionConfig(),
        core::SelectionFeatures::allBestHeur());
    RunLeg("dmp-selected", Selected, Opts.InjectFault);
  }

  if (Opts.RunAdversarial) {
    const core::DivergeMap Adversarial = adversarialAnnotations(PA);
    RunLeg("dmp-adversarial", Adversarial, 0);
  }

  return Report;
}
