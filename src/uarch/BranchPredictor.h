//===- uarch/BranchPredictor.h - Direction predictors --------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Branch direction predictors.
///
/// The simulated processor uses the paper's configuration: a 16KB perceptron
/// predictor (64-bit global history, 256 entries; Jiménez & Lin, HPCA-7).
/// The profiling compiler uses a smaller gshare predictor — deliberately a
/// different design from the runtime predictor, mirroring the reality that
/// a profiler only approximates the target machine's prediction behavior.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_UARCH_BRANCHPREDICTOR_H
#define DMP_UARCH_BRANCHPREDICTOR_H

#include "support/Saturating.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace dmp::uarch {

/// Abstract direction predictor with immediate (trace-driven) update.
///
/// predict() is const so that dpred-mode wrong-path exploration can query
/// directions without disturbing predictor state; update() feeds back the
/// actual outcome and advances the global history.
class BranchPredictor {
public:
  virtual ~BranchPredictor();

  /// Predicts the direction of the conditional branch at \p Addr.
  virtual bool predict(uint32_t Addr) const = 0;

  /// Predicts with an explicit (speculative) history instead of the global
  /// history register.  dpred-mode path walkers shift their own predicted
  /// outcomes into this history, as speculative history update does in
  /// hardware — without it, a walker's prediction for a loop branch could
  /// never change across iterations and late exits would never occur.
  virtual bool predictWithHistory(uint32_t Addr,
                                  uint64_t SpecHistory) const = 0;

  /// Trains with the actual outcome and shifts the global history.
  /// Returns whether the tables were trained (a perceptron skips training
  /// on a confident correct prediction).
  virtual bool update(uint32_t Addr, bool Taken) = 0;

  /// Replays an update() whose training decision \p Trained was recorded
  /// earlier: the tables and history end exactly as update() left them,
  /// without recomputing the prediction.  The default simply updates.
  virtual void replayUpdate(uint32_t Addr, bool Taken, bool Trained) {
    (void)Trained;
    update(Addr, Taken);
  }

  /// Low bits of the global history register (for confidence indexing).
  virtual uint64_t history() const = 0;

  /// Resets all tables and history.
  virtual void reset() = 0;
};

/// Perceptron predictor (Jiménez & Lin, HPCA-7 2001): Table 1's
/// "16KB (64-bit history, 256-entry) perceptron branch predictor".
class PerceptronPredictor final : public BranchPredictor {
public:
  /// \p NumEntries perceptrons, \p HistoryBits of global history.  The
  /// training threshold uses the paper's recommended 1.93*h + 14.
  explicit PerceptronPredictor(unsigned NumEntries = 256,
                               unsigned HistoryBits = 64);

  bool predict(uint32_t Addr) const override;
  bool predictWithHistory(uint32_t Addr, uint64_t SpecHistory) const override;
  bool update(uint32_t Addr, bool Taken) override;
  void replayUpdate(uint32_t Addr, bool Taken, bool Trained) override;
  uint64_t history() const override { return History; }
  void reset() override;

  /// Bytes of weight storage: NumEntries x (HistoryBits + 1), one byte each.
  size_t tableBytes() const { return Weights.size() * sizeof(Weights[0]); }

private:
  int dotProduct(uint32_t Addr, uint64_t Hist) const;
  unsigned indexFor(uint32_t Addr) const;
  /// Moves the weights of \p Addr toward \p Taken under the current history.
  void train(uint32_t Addr, bool Taken);

  unsigned NumEntries;
  unsigned HistoryBits;
  int Threshold;
  // Entry layout: [bias, w_1 .. w_HistoryBits] signed 8-bit saturating.
  std::vector<SaturatingWeight<-128, 127>> Weights;
  uint64_t History = 0;

  // Memo of the last predict() dot product.  The simulator predicts and
  // then immediately trains each branch, so update() recomputing the
  // 65-term sum would double the predictor cost for nothing; the memo is
  // keyed on (Addr, History) and dropped whenever any weight changes, so
  // reuse is exact.  predictWithHistory (speculative history) bypasses it.
  mutable uint32_t MemoAddr = 0;
  mutable uint64_t MemoHist = 0;
  mutable int MemoSum = 0;
  mutable bool MemoValid = false;
};

/// gshare predictor (global history XOR pc indexing 2-bit counters).  Used
/// as the profiling-time predictor for branch-misprediction profiles.
class GSharePredictor final : public BranchPredictor {
public:
  explicit GSharePredictor(unsigned IndexBits = 14);

  bool predict(uint32_t Addr) const override;
  bool predictWithHistory(uint32_t Addr, uint64_t SpecHistory) const override;
  bool update(uint32_t Addr, bool Taken) override;
  uint64_t history() const override { return History; }
  void reset() override;

private:
  unsigned indexFor(uint32_t Addr, uint64_t Hist) const;

  unsigned IndexBits;
  std::vector<SaturatingCounter<2>> Counters;
  uint64_t History = 0;
};

/// Factory for the predictor kinds the experiments use.
enum class PredictorKind { Perceptron, GShare };

std::unique_ptr<BranchPredictor> createPredictor(PredictorKind Kind);

} // namespace dmp::uarch

#endif // DMP_UARCH_BRANCHPREDICTOR_H
