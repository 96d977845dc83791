//===- analyze/CfmLegality.cpp - Structural legality of CFM points -------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CfmLegality (CFM01-CFM13): the legality contract every selection
/// algorithm must honor.  Exact-kind CFM points (simple/nested hammocks
/// claiming MergeProb ~ 1) must post-dominate their diverge branch — the
/// paper's definition of an exact CFM (Section 3.1); simple-hammock
/// annotations must name straight-line hammocks (Section 3.4's
/// always-predicate shape); loop annotations must name real LoopInfo loops
/// whose annotated branch is a loop exit with the stated stay direction
/// (Section 5).  Frequently-executed-path CFMs (Alg-freq) are approximate
/// by design, so for those only reachability and probability sanity apply.
///
/// Entries whose addresses AnnotationConsistency would reject are skipped
/// here (cheap inline re-checks) so one bad address yields one ANN code,
/// not a cascade.
///
//===----------------------------------------------------------------------===//

#include "analyze/Checks.h"

#include "cfg/PathEnumerator.h"
#include "dataflow/Dataflow.h"
#include "support/StringUtils.h"

#include <queue>
#include <unordered_set>

namespace dmp::analyze {
namespace {

/// A CFM point claiming at least this merge probability is "exact": both
/// paths always rejoin there, i.e. it must post-dominate the branch.
constexpr double ExactMergeProb = 0.999;

/// Claimed-vs-profiled disagreement thresholds for CFM13.
constexpr double ClaimedProbFloor = 0.01;
constexpr double ProfiledProbCeiling = 1e-9;

/// DF01: the dataflow layer's per-block side-effect summaries applied to
/// the hammock region of one exact CFM point.  A halt or ret anywhere on
/// a branch-to-merge path means that path can end without reaching the
/// merge, contradicting the ~1.0 merge-probability claim.
void checkExactRegionEffects(const cfg::FunctionAnalysis &FA,
                             const ir::BasicBlock *Taken,
                             const ir::BasicBlock *Fall,
                             const ir::BasicBlock *CfmBlock,
                             uint32_t CfmAddr, const DiagLocation &Loc,
                             DiagnosticSink &Sink) {
  const std::vector<dataflow::BlockEffects> Effects =
      dataflow::computeBlockEffects(FA.View);
  std::unordered_set<const ir::BasicBlock *> Region{CfmBlock};
  std::vector<const ir::BasicBlock *> Work;
  for (const ir::BasicBlock *Side : {Taken, Fall})
    if (Region.insert(Side).second)
      Work.push_back(Side);
  while (!Work.empty()) {
    const ir::BasicBlock *B = Work.back();
    Work.pop_back();
    const dataflow::BlockEffects &E = Effects[B->getId()];
    if (E.HasHalt || E.HasRet) {
      Sink.report(DiagCode::DfExactCfmImpure, Loc,
                  formatString("exact cfm point %u claims both paths "
                               "always merge, but block '%s' in the "
                               "hammock region ends execution with a %s",
                               CfmAddr, B->getName().c_str(),
                               E.HasHalt ? "halt" : "ret"));
      return; // One finding per CFM point.
    }
    for (const ir::BasicBlock *Succ : B->successors())
      if (Region.insert(Succ).second)
        Work.push_back(Succ);
  }
}

bool functionHasRet(const ir::Function &F) {
  for (const auto &B : F.blocks())
    for (const ir::Instruction &Inst : B->instructions())
      if (Inst.Op == ir::Opcode::Ret)
        return true;
  return false;
}

/// Blocks reachable from \p Start by intra-function successor edges
/// (including \p Start itself).
std::unordered_set<const ir::BasicBlock *>
reachableFrom(const ir::BasicBlock *Start) {
  std::unordered_set<const ir::BasicBlock *> Seen{Start};
  std::vector<const ir::BasicBlock *> Work{Start};
  while (!Work.empty()) {
    const ir::BasicBlock *B = Work.back();
    Work.pop_back();
    for (const ir::BasicBlock *Succ : B->successors())
      if (Seen.insert(Succ).second)
        Work.push_back(Succ);
  }
  return Seen;
}

/// A simple hammock is straight-line on both sides: each side either is
/// the CFM or runs single-successor blocks into it (paper Figure 3(a)).
void checkSimpleHammock(const ir::BasicBlock *Taken,
                        const ir::BasicBlock *Fall,
                        const ir::BasicBlock *CfmBlock,
                        const DiagLocation &Loc, DiagnosticSink &Sink) {
  if (CfmBlock == nullptr) {
    Sink.report(DiagCode::CfmNotSimpleHammock, Loc,
                "simple-hammock annotation has no address cfm point");
    return;
  }
  const auto SideIsStraightLine = [&](const ir::BasicBlock *Side) {
    const ir::BasicBlock *Cur = Side;
    for (unsigned Steps = 0; Steps < 256; ++Steps) {
      if (Cur == CfmBlock)
        return true;
      const std::vector<ir::BasicBlock *> Succs = Cur->successors();
      if (Succs.size() != 1)
        return false; // Inner branch or dead end: not a simple hammock.
      Cur = Succs.front();
    }
    return false;
  };
  if (!SideIsStraightLine(Taken) || !SideIsStraightLine(Fall))
    Sink.report(DiagCode::CfmNotSimpleHammock, Loc,
                "simple-hammock annotation, but the region between branch "
                "and cfm is not two straight-line sides");
}

void checkLoop(const ir::Program &P, const cfg::FunctionAnalysis &FA,
               uint32_t BranchAddr, const core::DivergeAnnotation &Ann,
               const DiagLocation &Loc, DiagnosticSink &Sink) {
  // Skip entries ANN05 already faulted.
  if (Ann.LoopHeaderAddr >= P.instrCount())
    return;
  const ir::BasicBlock *Header = P.blockAt(Ann.LoopHeaderAddr);
  if (Header->getStartAddr() != Ann.LoopHeaderAddr)
    return;

  const ir::BasicBlock *BranchBlock = P.blockAt(BranchAddr);
  if (Header->getParent() != BranchBlock->getParent()) {
    Sink.report(DiagCode::CfmLoopHeaderNotLoop, Loc,
                formatString("loop header %u is in a different function",
                             Ann.LoopHeaderAddr));
    return;
  }

  const cfg::Loop *L = FA.LI.loopWithHeader(Header);
  if (L == nullptr) {
    Sink.report(DiagCode::CfmLoopHeaderNotLoop, Loc,
                formatString("block '%s' (%u) heads no natural loop",
                             Header->getName().c_str(),
                             Ann.LoopHeaderAddr));
    return;
  }
  if (!L->contains(BranchBlock)) {
    Sink.report(DiagCode::CfmLoopHeaderNotLoop, Loc,
                formatString("diverge branch is outside the loop headed "
                             "by '%s'",
                             Header->getName().c_str()));
    return;
  }

  // A loop diverge branch is an exit branch: one successor stays in the
  // loop, the other leaves it, and LoopStayTaken names the staying side.
  const ir::Instruction &Branch = P.instrAt(BranchAddr);
  const ir::BasicBlock *Taken = Branch.Target;
  const ir::BasicBlock *Fall = BranchBlock->getFallthrough();
  if (Taken == nullptr || Fall == nullptr)
    return; // IRLint faulted the branch already.
  const bool TakenIn = L->contains(Taken);
  const bool FallIn = L->contains(Fall);
  if (TakenIn == FallIn) {
    Sink.report(DiagCode::CfmLoopBranchNotExit, Loc,
                TakenIn ? "annotated loop branch never exits the loop "
                          "(both successors stay inside)"
                        : "annotated loop branch is not an exit branch "
                          "(both successors leave the loop)");
    return;
  }
  if (Ann.LoopStayTaken != TakenIn)
    Sink.report(DiagCode::CfmLoopBranchNotExit, Loc,
                formatString("annotation says the %s direction stays in "
                             "the loop, but the cfg says the %s direction "
                             "does",
                             Ann.LoopStayTaken ? "taken" : "fall-through",
                             TakenIn ? "taken" : "fall-through"));
}

/// Flags another annotated diverge branch inside this one's hammock
/// region whose own merge point escapes the region: nested dpred-mode
/// would overrun the outer CFM (the overlap restriction of Section 3.6).
void checkNestedConflicts(
    const AnalysisInput &Input, uint32_t OuterAddr,
    const ir::BasicBlock *Taken, const ir::BasicBlock *Fall,
    const ir::BasicBlock *OuterCfm,
    const std::unordered_set<const ir::BasicBlock *> &TakenReach,
    const std::unordered_set<const ir::BasicBlock *> &FallReach,
    const DiagLocation &Loc, DiagnosticSink &Sink) {
  const ir::Program &P = *Input.P;

  // Region: blocks on paths from either side to the outer CFM, found by
  // BFS that refuses to step through the CFM.
  std::unordered_set<const ir::BasicBlock *> Region;
  std::vector<const ir::BasicBlock *> Work;
  for (const ir::BasicBlock *Side : {Taken, Fall})
    if (Side != OuterCfm && Region.insert(Side).second)
      Work.push_back(Side);
  while (!Work.empty()) {
    const ir::BasicBlock *B = Work.back();
    Work.pop_back();
    for (const ir::BasicBlock *Succ : B->successors())
      if (Succ != OuterCfm && Region.insert(Succ).second)
        Work.push_back(Succ);
  }

  for (uint32_t InnerAddr : Input.Annotations->sortedAddrs()) {
    if (InnerAddr == OuterAddr || InnerAddr >= P.instrCount() ||
        !P.instrAt(InnerAddr).isCondBr())
      continue;
    const ir::BasicBlock *InnerBlock = P.blockAt(InnerAddr);
    if (Region.count(InnerBlock) == 0)
      continue;
    const core::DivergeAnnotation &Inner =
        *Input.Annotations->find(InnerAddr);
    for (const core::CfmPoint &Cfm : Inner.Cfms) {
      if (Cfm.PointKind != core::CfmPoint::Kind::Address ||
          Cfm.Addr >= P.instrCount())
        continue;
      const ir::BasicBlock *InnerCfm = P.blockAt(Cfm.Addr);
      if (InnerCfm != OuterCfm && Region.count(InnerCfm) == 0 &&
          (TakenReach.count(InnerCfm) != 0 ||
           FallReach.count(InnerCfm) != 0)) {
        Sink.report(DiagCode::CfmNestedConflict, Loc,
                    formatString("nested diverge branch at %u merges at "
                                 "%u, outside this branch's hammock "
                                 "region",
                                 InnerAddr, Cfm.Addr));
        break;
      }
    }
  }
}

void checkAnnotation(const AnalysisInput &Input, uint32_t BranchAddr,
                     const core::DivergeAnnotation &Ann,
                     DiagnosticSink &Sink) {
  const ir::Program &P = *Input.P;
  const ir::BasicBlock *BranchBlock = P.blockAt(BranchAddr);
  const ir::Function *F = BranchBlock->getParent();
  const cfg::FunctionAnalysis &FA = Input.PA->forFunction(*F);
  const ir::Instruction &Branch = P.instrAt(BranchAddr);
  const DiagLocation Loc = DiagLocation::inBlock(
      F->getName(), BranchBlock->getName(), BranchAddr);

  // Per-annotation CFM list sanity: duplicates, probability range/sum.
  std::unordered_set<uint32_t> SeenAddrs;
  bool SeenReturn = false;
  double ProbSum = 0.0;
  for (const core::CfmPoint &Cfm : Ann.Cfms) {
    if (Cfm.PointKind == core::CfmPoint::Kind::Address) {
      if (!SeenAddrs.insert(Cfm.Addr).second)
        Sink.report(DiagCode::CfmDuplicatePoint, Loc,
                    formatString("cfm point %u listed more than once",
                                 Cfm.Addr));
    } else {
      if (SeenReturn)
        Sink.report(DiagCode::CfmDuplicatePoint, Loc,
                    "return cfm point listed more than once");
      SeenReturn = true;
    }
    if (Cfm.MergeProb < 0.0 || Cfm.MergeProb > 1.0)
      Sink.report(DiagCode::CfmMergeProbRange, Loc,
                  formatString("cfm merge probability %g outside [0, 1]",
                               Cfm.MergeProb));
    else
      ProbSum += Cfm.MergeProb;
  }
  if (ProbSum > 1.0 + 1e-6)
    Sink.report(DiagCode::CfmMergeProbSum, Loc,
                formatString("cfm merge probabilities sum to %g (> 1): "
                             "first-merge probabilities must partition",
                             ProbSum));

  if (SeenReturn && !functionHasRet(*F))
    Sink.report(DiagCode::CfmReturnUnreachable, Loc,
                "return cfm point in a function with no ret instruction");

  if (Ann.Kind == core::DivergeKind::Loop) {
    checkLoop(P, FA, BranchAddr, Ann, Loc, Sink);
    return; // Loop CFMs are exit targets, not post-dominators.
  }

  const ir::BasicBlock *Taken = Branch.Target;
  const ir::BasicBlock *Fall = BranchBlock->getFallthrough();
  if (Taken == nullptr || Fall == nullptr)
    return; // IRLint faulted the branch (IR07/IR10) already.

  // Blocks each side can reach within the function.
  const auto TakenReach = reachableFrom(Taken);
  const auto FallReach = reachableFrom(Fall);

  const ir::BasicBlock *FirstCfmBlock = nullptr;
  for (const core::CfmPoint &Cfm : Ann.Cfms) {
    if (Cfm.PointKind != core::CfmPoint::Kind::Address)
      continue;
    if (Cfm.Addr >= P.instrCount())
      continue; // ANN03's finding.
    const ir::BasicBlock *CfmBlock = P.blockAt(Cfm.Addr);
    if (CfmBlock->getStartAddr() != Cfm.Addr)
      continue; // ANN04's finding.
    if (FirstCfmBlock == nullptr)
      FirstCfmBlock = CfmBlock;

    if (CfmBlock->getParent() != F) {
      Sink.report(DiagCode::CfmCrossFunction, Loc,
                  formatString("cfm point %u is in function '%s', not the "
                               "diverge branch's function",
                               Cfm.Addr,
                               CfmBlock->getParent()->getName().c_str()));
      continue; // Intra-function checks don't apply.
    }

    const bool FromTaken = TakenReach.count(CfmBlock) != 0;
    const bool FromFall = FallReach.count(CfmBlock) != 0;
    if (!FromTaken && !FromFall)
      Sink.report(DiagCode::CfmUnreachable, Loc,
                  formatString("cfm point %u ('%s') is reachable from "
                               "neither side of the branch",
                               Cfm.Addr, CfmBlock->getName().c_str()));
    else if (!FromTaken || !FromFall)
      Sink.report(DiagCode::CfmOneSidedMerge, Loc,
                  formatString("cfm point %u ('%s') is reachable only "
                               "from the %s side: the paths cannot merge "
                               "there",
                               Cfm.Addr, CfmBlock->getName().c_str(),
                               FromTaken ? "taken" : "fall-through"));

    // Exact CFMs must post-dominate the branch: dpred-mode must be
    // guaranteed to end at the merge point (Section 3.1).
    const bool ExactKind = Ann.Kind == core::DivergeKind::SimpleHammock ||
                           Ann.Kind == core::DivergeKind::NestedHammock;
    if (ExactKind && Cfm.MergeProb >= ExactMergeProb &&
        !FA.PDT.postDominates(CfmBlock, BranchBlock))
      Sink.report(DiagCode::CfmNotPostDominator, Loc,
                  formatString("%s cfm point %u ('%s') claims merge "
                               "probability %g but does not post-dominate "
                               "the diverge branch",
                               core::divergeKindName(Ann.Kind), Cfm.Addr,
                               CfmBlock->getName().c_str(), Cfm.MergeProb));

    // Side-effect cross-check (DF01): an exact-CFM claim says both paths
    // always rejoin at the merge point, so the region between branch and
    // CFM cannot terminate execution (halt) or leave the function (ret)
    // — the block-effect summaries prove it can't.
    if (ExactKind && Cfm.MergeProb >= ExactMergeProb)
      checkExactRegionEffects(FA, Taken, Fall, CfmBlock, Cfm.Addr, Loc,
                              Sink);

    // Profile cross-check: a claimed merge the profile says essentially
    // never happens suggests a stale or mismatched annotation.
    if (Input.Profile != nullptr && Cfm.MergeProb >= ClaimedProbFloor &&
        Input.Profile->wasExecuted(BranchAddr)) {
      cfg::PathLimits Generous;
      Generous.MaxInstr = 400;
      Generous.MaxCondBr = 20;
      Generous.MinExecProb = 0.0005;
      const double PT =
          cfg::enumeratePaths(Taken, CfmBlock, *Input.Profile, Generous)
              .reachProb(CfmBlock);
      const double PNT =
          cfg::enumeratePaths(Fall, CfmBlock, *Input.Profile, Generous)
              .reachProb(CfmBlock);
      if (PT * PNT < ProfiledProbCeiling)
        Sink.report(DiagCode::CfmImprobableMerge, Loc,
                    formatString("cfm point %u claims merge probability "
                                 "%g but the profile gives the paths "
                                 "essentially no chance of merging there",
                                 Cfm.Addr, Cfm.MergeProb));
    }
  }

  if (Ann.Kind == core::DivergeKind::SimpleHammock)
    checkSimpleHammock(Taken, Fall, FirstCfmBlock, Loc, Sink);

  if (FirstCfmBlock != nullptr && FirstCfmBlock->getParent() == F)
    checkNestedConflicts(Input, BranchAddr, Taken, Fall, FirstCfmBlock,
                         TakenReach, FallReach, Loc, Sink);
}

} // namespace

void checkCfmLegality(const AnalysisInput &Input, DiagnosticSink &Sink) {
  if (Input.Annotations == nullptr)
    return;
  const ir::Program &P = *Input.P;

  for (uint32_t BranchAddr : Input.Annotations->sortedAddrs()) {
    // AnnotationConsistency territory; skip what it already faulted.
    if (BranchAddr >= P.instrCount() || !P.instrAt(BranchAddr).isCondBr())
      continue;
    checkAnnotation(Input, BranchAddr,
                    *Input.Annotations->find(BranchAddr), Sink);
  }
}

} // namespace dmp::analyze
