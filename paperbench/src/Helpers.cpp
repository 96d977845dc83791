//===- paperbench/src/Helpers.cpp - Seeds, draws and statistics -----------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Helpers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace dmp;

namespace paperbench {

uint64_t SeedStream::next() {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

std::vector<size_t> seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  SeedStream S(Seed ^ 0x6F72646572ULL); // "order"
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[S.below(I)]);
  return Order;
}

std::vector<workloads::BenchmarkSpec> seededSuite(uint64_t Seed) {
  std::vector<workloads::BenchmarkSpec> Suite = workloads::specSuite();
  for (workloads::BenchmarkSpec &Spec : Suite)
    Spec.Seed += Seed;
  return Suite;
}

std::optional<Percentile> nearestRank(std::vector<double> Sample, double P,
                                      size_t MinAbove) {
  if (Sample.empty() || !(P > 0.0 && P <= 100.0))
    return std::nullopt;
  std::sort(Sample.begin(), Sample.end());
  const size_t N = Sample.size();
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(N)));
  Rank = std::clamp<size_t>(Rank, 1, N);
  const size_t Above = N - Rank;
  if (Above < MinAbove)
    return std::nullopt;
  return Percentile{Sample[Rank - 1], N, Above};
}

std::optional<double> geomeanGainPct(const std::vector<double> &GainsPct) {
  if (GainsPct.empty())
    return std::nullopt;
  double LogSum = 0.0;
  for (double G : GainsPct) {
    if (!(G > -100.0))
      return std::nullopt;
    LogSum += std::log1p(G / 100.0);
  }
  return std::expm1(LogSum / double(GainsPct.size())) * 100.0;
}

double median(std::vector<double> Sample) {
  std::sort(Sample.begin(), Sample.end());
  const size_t N = Sample.size();
  return N % 2 ? Sample[N / 2] : (Sample[N / 2 - 1] + Sample[N / 2]) / 2;
}

const std::vector<std::string> &serveAlgos() {
  static const std::vector<std::string> Algos = {
      "exact",     "freq",      "short",    "ret",       "all",
      "cost-long", "cost-edge", "all-cost", "every-br",  "random-50",
      "high-bp-5", "immediate", "if-else"};
  return Algos;
}

const std::vector<unsigned> &serveMaxInstrs() {
  static const std::vector<unsigned> Values = {10, 50, 100, 200};
  return Values;
}

const std::vector<double> &serveMergeProbs() {
  static const std::vector<double> Values = {0.01, 0.05, 0.30, 0.90};
  return Values;
}

size_t servePaperCells() { return 2 * workloads::specSuite().size(); }

harness::CellSpec serveCell(uint64_t Seed, size_t Index) {
  const std::vector<workloads::BenchmarkSpec> &Suite = workloads::specSuite();
  harness::CellSpec Spec;
  if (Index < servePaperCells()) {
    const size_t Slot = seededOrder(servePaperCells(), Seed)[Index];
    Spec.Benchmark = Suite[Slot / 2].Name;
    Spec.Algo = Slot % 2 == 0 ? "all" : "all-cost";
    return Spec;
  }
  SeedStream S(Seed * 0x100000001B3ULL + Index);
  Spec.Benchmark = Suite[S.below(Suite.size())].Name;
  Spec.Algo = serveAlgos()[S.below(serveAlgos().size())];
  Spec.MaxInstr = serveMaxInstrs()[S.below(serveMaxInstrs().size())];
  Spec.MinMergeProb = serveMergeProbs()[S.below(serveMergeProbs().size())];
  return Spec;
}

std::string fullDigits(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace paperbench
