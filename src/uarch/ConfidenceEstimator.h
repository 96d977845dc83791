//===- uarch/ConfidenceEstimator.h - JRS confidence estimation -----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enhanced JRS confidence estimator (Jacobsen, Rotenberg & Smith MICRO-29;
/// enhancements per Grunwald et al. ISCA-25): Table 1's "2KB (12-bit
/// history, threshold 14) enhanced JRS confidence estimator".
///
/// DMP enters dpred-mode only for *low-confidence* diverge branches: the
/// correct-path recorder stores each branch's counter() and the replay
/// compares it with SimConfig::ConfThreshold, so the estimator itself holds
/// no threshold.  The accuracy of that estimate (PVN) is the Acc_Conf input
/// of the paper's cost-benefit model (Section 4.1), measured by
/// sim::SimStats::accConf().
///
//===----------------------------------------------------------------------===//

#ifndef DMP_UARCH_CONFIDENCEESTIMATOR_H
#define DMP_UARCH_CONFIDENCEESTIMATOR_H

#include "support/Saturating.h"

#include <cstdint>
#include <vector>

namespace dmp::uarch {

/// Miss-distance-counter confidence table indexed by pc XOR branch history.
class ConfidenceEstimator {
public:
  /// \p IndexBits selects table size (4096 entries = 2KB of 4-bit MDCs),
  /// \p HistoryBits the amount of local history XORed into the index.
  explicit ConfidenceEstimator(unsigned IndexBits = 12,
                               unsigned HistoryBits = 12);

  /// The miss-distance counter the branch at \p Addr currently reads (0 to
  /// 15): correct predictions since its last misprediction, saturating.  A
  /// branch is low-confidence when it is below the threshold.
  unsigned counter(uint32_t Addr) const { return Table[indexFor(Addr)].get(); }

  /// Updates with the resolved outcome: correct predictions increment the
  /// miss distance counter, mispredictions reset it.  Also advances the
  /// internal outcome history.
  void update(uint32_t Addr, bool PredictedCorrectly, bool Taken);

private:
  unsigned indexFor(uint32_t Addr) const;

  unsigned IndexBits;
  unsigned HistoryBits;
  std::vector<SaturatingCounter<4>> Table;
  uint64_t History = 0;
};

} // namespace dmp::uarch

#endif // DMP_UARCH_CONFIDENCEESTIMATOR_H
