//===- core/DivergeInfo.h - Diverge branch annotations --------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler-to-hardware interface of DMP: which conditional branches are
/// diverge branches, of which kind, and where their CFM points are.  In the
/// paper this information is "attached to the binary and passed to the
/// simulator" (Section 6.1); here a DivergeMap plays that role.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_CORE_DIVERGEINFO_H
#define DMP_CORE_DIVERGEINFO_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace dmp::core {

/// CFG type a diverge branch belongs to (paper Figure 3).
enum class DivergeKind : uint8_t {
  SimpleHammock, ///< if / if-else with no control flow inside.
  NestedHammock, ///< if-else with nested branches; exact CFM.
  FreqHammock,   ///< hammock only on frequently executed paths; approx CFM.
  Loop,          ///< loop exit branch (Section 5).
  NoCfm,         ///< diverge branch without CFM points: pure dual-path
                 ///< execution until resolution (used by the simple
                 ///< selectors of Section 7.2).
};

const char *divergeKindName(DivergeKind Kind);

/// One control-flow merge point.
struct CfmPoint {
  enum class Kind : uint8_t {
    Address, ///< dpred-mode ends when fetch reaches this address.
    Return,  ///< dpred-mode ends when a return executes (Section 3.5).
  };

  Kind PointKind = Kind::Address;
  /// Target address (block start) for Address kind; unused for Return.
  uint32_t Addr = 0;
  /// Profile-estimated probability of both paths merging here (first
  /// merge; footnote 3 correction applied for chains).
  double MergeProb = 0.0;

  static CfmPoint atAddress(uint32_t Addr, double MergeProb) {
    CfmPoint P;
    P.PointKind = Kind::Address;
    P.Addr = Addr;
    P.MergeProb = MergeProb;
    return P;
  }

  static CfmPoint atReturn(double MergeProb) {
    CfmPoint P;
    P.PointKind = Kind::Return;
    P.MergeProb = MergeProb;
    return P;
  }
};

/// Everything the ISA conveys about one diverge branch.
struct DivergeAnnotation {
  DivergeKind Kind = DivergeKind::NoCfm;
  /// Short hammocks are predicated regardless of confidence (Section 3.4).
  bool AlwaysPredicate = false;
  /// Up to MAX_CFM selected merge points, highest merge probability first.
  std::vector<CfmPoint> Cfms;
  /// For Loop kind: the loop header's start address.
  uint32_t LoopHeaderAddr = 0;
  /// For Loop kind: number of select-µops per predicated iteration
  /// (distinct registers written in the loop body).
  uint32_t LoopSelectUops = 0;
  /// For Loop kind: true when the taken direction of the branch stays in
  /// the loop (the not-taken direction exits), false when taken exits.
  bool LoopStayTaken = false;

  /// Sum of per-CFM merge probabilities (Eq. 17's sum; capped at 1).
  double totalMergeProb() const;
};

/// The "marked binary": static branch address -> annotation.
class DivergeMap {
public:
  void add(uint32_t BranchAddr, DivergeAnnotation Annotation) {
    Map[BranchAddr] = std::move(Annotation);
  }

  const DivergeAnnotation *find(uint32_t BranchAddr) const {
    auto It = Map.find(BranchAddr);
    return It == Map.end() ? nullptr : &It->second;
  }

  bool contains(uint32_t BranchAddr) const { return Map.count(BranchAddr); }

  size_t size() const { return Map.size(); }
  bool empty() const { return Map.empty(); }

  const std::unordered_map<uint32_t, DivergeAnnotation> &all() const {
    return Map;
  }

  /// Branch addresses in ascending order (deterministic iteration).
  std::vector<uint32_t> sortedAddrs() const;

  /// Average number of CFM points per diverge branch (Table 2's
  /// "Avg. # CFM" column).  Loop and NoCfm entries count their CFM lists
  /// as-is.
  double avgCfmPoints() const;

  /// Number of entries of each kind, for reports.
  std::unordered_map<std::string, size_t> kindCounts() const;

private:
  std::unordered_map<uint32_t, DivergeAnnotation> Map;
};

} // namespace dmp::core

#endif // DMP_CORE_DIVERGEINFO_H
