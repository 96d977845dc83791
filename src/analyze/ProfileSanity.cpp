//===- analyze/ProfileSanity.cpp - Edge-profile consistency checks ------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ProfileSanity (PROF01-PROF04): an edge profile is only trustworthy when
/// it is internally consistent with the program it claims to describe —
/// per-block inflow matches execution counts (flow conservation),
/// taken+not-taken matches the executions of the branch's block, and every
/// profiled address actually names a conditional branch / block start.
/// Small slack is allowed everywhere: the profiler may stop at its
/// instruction budget mid-path, leaving the final trace's blocks one count
/// short.
///
//===----------------------------------------------------------------------===//

#include "analyze/Checks.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dmp::analyze {
namespace {

/// Allowed absolute discrepancy for a block executed \p Exec times: a
/// truncated final trace plus ~0.1% relative slack.
uint64_t toleranceFor(uint64_t Exec) { return 2 + Exec / 1024; }

uint64_t absDiff(uint64_t A, uint64_t B) { return A > B ? A - B : B - A; }

/// Every profiled address must exist in this program: branch counts on
/// conditional branches, block counts on block starts.
void checkAddresses(const ir::Program &P, const cfg::EdgeProfile &Prof,
                    DiagnosticSink &Sink) {
  std::vector<uint32_t> Addrs;
  for (const auto &[Addr, Counts] : Prof.branches())
    Addrs.push_back(Addr);
  std::sort(Addrs.begin(), Addrs.end());
  for (uint32_t Addr : Addrs) {
    if (Addr >= P.instrCount())
      Sink.report(DiagCode::ProfUnknownAddr, DiagLocation::program(),
                  formatString("profiled branch address %u is outside the "
                               "program (%u instructions)",
                               Addr, P.instrCount()));
    else if (!P.instrAt(Addr).isCondBr())
      Sink.report(DiagCode::ProfUnknownAddr, DiagLocation::program(),
                  formatString("profiled branch address %u is a '%s', not "
                               "a conditional branch",
                               Addr, ir::opcodeName(P.instrAt(Addr).Op)));
  }

  Addrs.clear();
  for (const auto &[Addr, Count] : Prof.blockExecCounts())
    Addrs.push_back(Addr);
  std::sort(Addrs.begin(), Addrs.end());
  for (uint32_t Addr : Addrs) {
    if (Addr >= P.instrCount())
      Sink.report(DiagCode::ProfUnknownAddr, DiagLocation::program(),
                  formatString("profiled block address %u is outside the "
                               "program (%u instructions)",
                               Addr, P.instrCount()));
    else if (P.blockAt(Addr)->getStartAddr() != Addr)
      Sink.report(DiagCode::ProfUnknownAddr, DiagLocation::program(),
                  formatString("profiled block address %u is not a block "
                               "start",
                               Addr));
  }
}

/// taken + not-taken of a branch must match the executions of its block:
/// a terminator runs exactly once per block entry (modulo truncation).
void checkBranchTotals(const ir::Program &P, const cfg::EdgeProfile &Prof,
                       DiagnosticSink &Sink) {
  std::vector<uint32_t> Addrs;
  for (const auto &[Addr, Counts] : Prof.branches())
    if (Addr < P.instrCount() && P.instrAt(Addr).isCondBr())
      Addrs.push_back(Addr);
  std::sort(Addrs.begin(), Addrs.end());
  for (uint32_t Addr : Addrs) {
    const ir::BasicBlock *B = P.blockAt(Addr);
    const uint64_t BlockExec = Prof.blockExecCount(B->getStartAddr());
    const uint64_t Total = Prof.branchCounts(Addr).total();
    if (absDiff(Total, BlockExec) > toleranceFor(BlockExec))
      Sink.report(DiagCode::ProfBranchTotalsMismatch,
                  DiagLocation::inBlock(B->getParent()->getName(),
                                        B->getName(), Addr),
                  formatString("branch executed %llu times but its block "
                               "executed %llu times",
                               static_cast<unsigned long long>(Total),
                               static_cast<unsigned long long>(BlockExec)));
  }
}

/// Kirchhoff over the CFG: what flows into a block must match how often
/// it ran.  Function entries are excluded (their inflow is calls, which
/// edge profiles don't record).
void checkFlowConservation(const AnalysisInput &Input,
                           DiagnosticSink &Sink) {
  const ir::Program &P = *Input.P;
  const cfg::EdgeProfile &Prof = *Input.Profile;

  for (const auto &F : P.functions()) {
    const cfg::CFGView &View = Input.PA->forFunction(*F).View;
    for (const auto &B : F->blocks()) {
      if (B.get() == F->getEntry() || !View.isReachable(B.get()))
        continue;
      uint64_t Inflow = 0;
      for (const ir::BasicBlock *Pred : View.predecessors(B->getId())) {
        const ir::Instruction *T = Pred->getTerminator();
        if (T != nullptr && T->isCondBr()) {
          const cfg::BranchCounts Counts = Prof.branchCounts(T->Addr);
          if (T->Target == B.get())
            Inflow += Counts.Taken;
          if (Pred->getFallthrough() == B.get())
            Inflow += Counts.NotTaken;
        } else {
          // Fall-through or jmp: the whole block flows in.
          Inflow += Prof.blockExecCount(Pred->getStartAddr());
        }
      }
      const uint64_t Exec = Prof.blockExecCount(B->getStartAddr());
      if (absDiff(Inflow, Exec) >
          toleranceFor(std::max(Inflow, Exec)))
        Sink.report(DiagCode::ProfFlowNotConserved,
                    DiagLocation::inBlock(F->getName(), B->getName(),
                                          B->getStartAddr()),
                    formatString("block executed %llu times but profiled "
                                 "inflow is %llu",
                                 static_cast<unsigned long long>(Exec),
                                 static_cast<unsigned long long>(Inflow)));
    }
  }
}

} // namespace

void checkProfileSanity(const AnalysisInput &Input, DiagnosticSink &Sink) {
  if (Input.Profile == nullptr)
    return;
  const ir::Program &P = *Input.P;
  const cfg::EdgeProfile &Prof = *Input.Profile;

  checkAddresses(P, Prof, Sink);
  checkBranchTotals(P, Prof, Sink);
  checkFlowConservation(Input, Sink);

  if (Input.Annotations != nullptr)
    for (uint32_t BranchAddr : Input.Annotations->sortedAddrs()) {
      if (BranchAddr >= P.instrCount() ||
          !P.instrAt(BranchAddr).isCondBr())
        continue; // ANN01/ANN02's findings.
      if (!Prof.wasExecuted(BranchAddr)) {
        const ir::BasicBlock *B = P.blockAt(BranchAddr);
        Sink.report(DiagCode::ProfAnnotatedNeverExecuted,
                    DiagLocation::inBlock(B->getParent()->getName(),
                                          B->getName(), BranchAddr),
                    "annotated diverge branch never executed in this "
                    "profile: its merge probabilities are guesses");
      }
    }
}

} // namespace dmp::analyze
