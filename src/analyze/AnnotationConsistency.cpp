//===- analyze/AnnotationConsistency.cpp - Annotation/program cross-check -===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AnnotationConsistency (ANN01-ANN06): every DivergeMap entry must
/// reference this exact program — branch addresses inside the address
/// table and naming conditional branches, CFM/loop-header addresses naming
/// block starts, and no annotation pinned to a block the CFG says is dead.
/// (ANN07, duplicate serialized entries, lives in lintDivergeMapText: the
/// in-memory map is address-keyed and cannot hold duplicates.)
///
//===----------------------------------------------------------------------===//

#include "analyze/Checks.h"

#include "support/StringUtils.h"

namespace dmp::analyze {

void checkAnnotationConsistency(const AnalysisInput &Input,
                                DiagnosticSink &Sink) {
  if (Input.Annotations == nullptr)
    return;
  const ir::Program &P = *Input.P;
  const cfg::ProgramAnalysis &PA = *Input.PA;

  for (uint32_t BranchAddr : Input.Annotations->sortedAddrs()) {
    const core::DivergeAnnotation &Ann =
        *Input.Annotations->find(BranchAddr);

    if (BranchAddr >= P.instrCount()) {
      Sink.report(DiagCode::AnnBranchAddrOutOfRange, DiagLocation::program(),
                  formatString("annotated branch address %u is outside the "
                               "program (%u instructions)",
                               BranchAddr, P.instrCount()));
      continue; // Nothing else about this entry can be resolved.
    }

    const ir::BasicBlock *BranchBlock = P.blockAt(BranchAddr);
    const ir::Function *F = BranchBlock->getParent();
    const DiagLocation BranchLoc = DiagLocation::inBlock(
        F->getName(), BranchBlock->getName(), BranchAddr);

    if (!P.instrAt(BranchAddr).isCondBr())
      Sink.report(DiagCode::AnnNotCondBr, BranchLoc,
                  formatString("annotated address %u is a '%s', not a "
                               "conditional branch",
                               BranchAddr,
                               ir::opcodeName(P.instrAt(BranchAddr).Op)));
    else if (!PA.forFunction(*F).View.isReachable(BranchBlock))
      Sink.report(DiagCode::AnnDeadBlock, BranchLoc,
                  "annotated diverge branch sits in an unreachable block");

    for (const core::CfmPoint &Cfm : Ann.Cfms) {
      if (Cfm.PointKind != core::CfmPoint::Kind::Address)
        continue;
      if (Cfm.Addr >= P.instrCount()) {
        Sink.report(DiagCode::AnnCfmAddrOutOfRange, BranchLoc,
                    formatString("cfm address %u is outside the program "
                                 "(%u instructions)",
                                 Cfm.Addr, P.instrCount()));
        continue;
      }
      const ir::BasicBlock *CfmBlock = P.blockAt(Cfm.Addr);
      if (CfmBlock->getStartAddr() != Cfm.Addr)
        Sink.report(DiagCode::AnnCfmNotBlockStart, BranchLoc,
                    formatString("cfm address %u is not a block start "
                                 "(block '%s' starts at %u)",
                                 Cfm.Addr, CfmBlock->getName().c_str(),
                                 CfmBlock->getStartAddr()));
      else if (!PA.forFunction(*CfmBlock->getParent())
                    .View.isReachable(CfmBlock))
        Sink.report(DiagCode::AnnDeadBlock, BranchLoc,
                    formatString("cfm point %u names unreachable block "
                                 "'%s'",
                                 Cfm.Addr, CfmBlock->getName().c_str()));
    }

    if (Ann.Kind == core::DivergeKind::Loop) {
      if (Ann.LoopHeaderAddr >= P.instrCount())
        Sink.report(DiagCode::AnnLoopHeaderBad, BranchLoc,
                    formatString("loop header address %u is outside the "
                                 "program (%u instructions)",
                                 Ann.LoopHeaderAddr, P.instrCount()));
      else if (P.blockAt(Ann.LoopHeaderAddr)->getStartAddr() !=
               Ann.LoopHeaderAddr)
        Sink.report(DiagCode::AnnLoopHeaderBad, BranchLoc,
                    formatString("loop header address %u is not a block "
                                 "start",
                                 Ann.LoopHeaderAddr));
    }
  }
}

} // namespace dmp::analyze
