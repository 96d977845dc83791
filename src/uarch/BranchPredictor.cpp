//===- uarch/BranchPredictor.cpp - Direction predictors -----------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "uarch/BranchPredictor.h"

#include "support/Compiler.h"

#include <cmath>

using namespace dmp;
using namespace dmp::uarch;

BranchPredictor::~BranchPredictor() = default;

//===----------------------------------------------------------------------===//
// PerceptronPredictor
//===----------------------------------------------------------------------===//

PerceptronPredictor::PerceptronPredictor(unsigned NumEntries,
                                         unsigned HistoryBits)
    : NumEntries(NumEntries), HistoryBits(HistoryBits),
      Threshold(static_cast<int>(1.93 * HistoryBits + 14)),
      Weights(static_cast<size_t>(NumEntries) * (HistoryBits + 1)) {
  assert(HistoryBits <= 64 && "history register is 64 bits");
  assert(NumEntries > 0 && "need at least one perceptron");
}

unsigned PerceptronPredictor::indexFor(uint32_t Addr) const {
  // Power-of-two tables (the Table 1 configuration) index with a mask; the
  // modulo only survives for odd experimental sizes.
  if ((NumEntries & (NumEntries - 1)) == 0)
    return Addr & (NumEntries - 1);
  return Addr % NumEntries;
}

int PerceptronPredictor::dotProduct(uint32_t Addr, uint64_t Hist) const {
  const size_t Base =
      static_cast<size_t>(indexFor(Addr)) * (HistoryBits + 1);
  // sum(X_b * w_b) with X_b = +/-1 equals 2*sum(w_b where bit set) - sum(w_b):
  // accumulating the selected and total sums branchlessly keeps the loop a
  // straight line the compiler can vectorize.
  const SaturatingWeight<-128, 127> *W = &Weights[Base + 1];
  int Selected = 0;
  int Total = 0;
  for (unsigned Bit = 0; Bit < HistoryBits; ++Bit) {
    const int V = W[Bit].get();
    Total += V;
    Selected += V & -static_cast<int>((Hist >> Bit) & 1);
  }
  return Weights[Base].get() + 2 * Selected - Total;
}

bool PerceptronPredictor::predict(uint32_t Addr) const {
  const int Sum = dotProduct(Addr, History);
  MemoAddr = Addr;
  MemoHist = History;
  MemoSum = Sum;
  MemoValid = true;
  return Sum >= 0;
}

bool PerceptronPredictor::predictWithHistory(uint32_t Addr,
                                             uint64_t SpecHistory) const {
  return dotProduct(Addr, SpecHistory) >= 0;
}

void PerceptronPredictor::train(uint32_t Addr, bool Taken) {
  const size_t Base = static_cast<size_t>(indexFor(Addr)) * (HistoryBits + 1);
  const int T = Taken ? 1 : -1;
  Weights[Base].add(T);
  for (unsigned Bit = 0; Bit < HistoryBits; ++Bit) {
    const int X = ((History >> Bit) & 1) ? 1 : -1;
    Weights[Base + 1 + Bit].add(T * X);
  }
  MemoValid = false; // Weights changed; any memoized sum is stale.
}

bool PerceptronPredictor::update(uint32_t Addr, bool Taken) {
  const int Output = (MemoValid && MemoAddr == Addr && MemoHist == History)
                         ? MemoSum
                         : dotProduct(Addr, History);
  const bool Predicted = Output >= 0;
  const bool Trained = Predicted != Taken || std::abs(Output) <= Threshold;
  if (Trained)
    train(Addr, Taken);
  History = (History << 1) | (Taken ? 1 : 0);
  return Trained;
}

void PerceptronPredictor::replayUpdate(uint32_t Addr, bool Taken,
                                       bool Trained) {
  if (Trained)
    train(Addr, Taken);
  History = (History << 1) | (Taken ? 1 : 0);
}

void PerceptronPredictor::reset() {
  for (auto &W : Weights)
    W.add(-W.get());
  History = 0;
  MemoValid = false;
}

//===----------------------------------------------------------------------===//
// GSharePredictor
//===----------------------------------------------------------------------===//

GSharePredictor::GSharePredictor(unsigned IndexBits)
    : IndexBits(IndexBits), Counters(1u << IndexBits) {
  assert(IndexBits >= 4 && IndexBits <= 24 && "unreasonable gshare size");
  // Initialize counters to weakly-taken so cold branches bias taken,
  // matching the common hardware reset state.
  for (auto &C : Counters)
    C.reset(2);
}

unsigned GSharePredictor::indexFor(uint32_t Addr, uint64_t Hist) const {
  const uint64_t Mask = (1ull << IndexBits) - 1;
  return static_cast<unsigned>((Addr ^ Hist) & Mask);
}

bool GSharePredictor::predict(uint32_t Addr) const {
  return Counters[indexFor(Addr, History)].isWeaklySet();
}

bool GSharePredictor::predictWithHistory(uint32_t Addr,
                                         uint64_t SpecHistory) const {
  return Counters[indexFor(Addr, SpecHistory)].isWeaklySet();
}

bool GSharePredictor::update(uint32_t Addr, bool Taken) {
  SaturatingCounter<2> &C = Counters[indexFor(Addr, History)];
  if (Taken)
    C.increment();
  else
    C.decrement();
  History = (History << 1) | (Taken ? 1 : 0);
  return true;
}

void GSharePredictor::reset() {
  for (auto &C : Counters)
    C.reset(2);
  History = 0;
}

std::unique_ptr<BranchPredictor> uarch::createPredictor(PredictorKind Kind) {
  switch (Kind) {
  case PredictorKind::Perceptron:
    return std::make_unique<PerceptronPredictor>();
  case PredictorKind::GShare:
    return std::make_unique<GSharePredictor>();
  }
  DMP_UNREACHABLE("unknown predictor kind");
}
