//===- uarch/ConfidenceEstimator.cpp - JRS confidence estimation --------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "uarch/ConfidenceEstimator.h"

using namespace dmp;
using namespace dmp::uarch;

ConfidenceEstimator::ConfidenceEstimator(unsigned IndexBits,
                                         unsigned HistoryBits)
    : IndexBits(IndexBits), HistoryBits(HistoryBits), Table(1u << IndexBits) {
  // Counters start saturated (high confidence).  Hardware resets to zero,
  // but simulation runs here are orders of magnitude shorter than SPEC
  // runs; starting warm reproduces the steady-state behavior the paper's
  // Acc_Conf = 15%-50% range describes instead of a permanently cold
  // table that flags everything low-confidence.
  for (auto &MDC : Table)
    MDC.reset(SaturatingCounter<4>::Max);
}

unsigned ConfidenceEstimator::indexFor(uint32_t Addr) const {
  const uint64_t HistMask = (1ull << HistoryBits) - 1;
  const uint64_t IdxMask = (1ull << IndexBits) - 1;
  return static_cast<unsigned>((Addr ^ (History & HistMask)) & IdxMask);
}

void ConfidenceEstimator::update(uint32_t Addr, bool PredictedCorrectly,
                                 bool Taken) {
  SaturatingCounter<4> &MDC = Table[indexFor(Addr)];
  if (PredictedCorrectly)
    MDC.increment();
  else
    MDC.reset(0);
  History = (History << 1) | (Taken ? 1 : 0);
}
