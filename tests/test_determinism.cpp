//===- tests/test_determinism.cpp - Engine determinism tests ------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// The hard requirement of the parallel experiment engine: results are
// bit-identical for any --jobs value, and a cache replay is bit-identical
// to recomputation.  Budgets are reduced so the matrix stays test-sized;
// identity is what is under test, not the numbers themselves.
//
//===----------------------------------------------------------------------===//

#include "harness/Engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace dmp;

namespace {

/// Three small benchmarks cover hammock-, loop-, and call-heavy shapes.
std::vector<workloads::BenchmarkSpec> miniSuite() {
  const std::vector<workloads::BenchmarkSpec> &Suite = workloads::specSuite();
  std::vector<workloads::BenchmarkSpec> Mini(Suite.begin(),
                                             Suite.begin() + 3);
  return Mini;
}

harness::ExperimentOptions miniOptions() {
  harness::ExperimentOptions Options;
  Options.Profile.MaxInstrs = 200'000;
  Options.Sim.MaxInstrs = 100'000;
  return Options;
}

/// The full SimStats of every (benchmark, config) cell under \p Jobs.
std::vector<std::vector<StatusOr<sim::SimStats>>>
runCells(unsigned Jobs,
         const std::shared_ptr<serialize::ArtifactCache> &Cache) {
  harness::EngineOptions EngineOpts;
  EngineOpts.Jobs = Jobs;
  // An explicit cache (or none) is injected below; keep the engine from
  // creating or clearing one on its own.
  EngineOpts.UseCache = Cache != nullptr;
  harness::ExperimentOptions Options = miniOptions();
  Options.Cache = Cache;
  harness::ExperimentEngine Engine(Options, EngineOpts);

  const core::SelectionFeatures Configs[] = {
      core::SelectionFeatures::exactOnly(),
      core::SelectionFeatures::allBestHeur(),
      core::SelectionFeatures::allBestCost(),
  };
  return Engine.runMatrix<sim::SimStats>(
      miniSuite(), std::size(Configs), [&Configs](harness::Cell &C) {
        return C.Bench.simulateWith(
            C.Bench.select(Configs[C.Config], workloads::InputSetKind::Run));
      });
}

bool identical(const std::vector<std::vector<StatusOr<sim::SimStats>>> &A,
               const std::vector<std::vector<StatusOr<sim::SimStats>>> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    if (A[I].size() != B[I].size())
      return false;
    for (size_t J = 0; J < A[I].size(); ++J) {
      if (!A[I][J].ok() || !B[I][J].ok())
        return false;
      if (std::memcmp(&*A[I][J], &*B[I][J], sizeof(sim::SimStats)) != 0)
        return false;
    }
  }
  return true;
}

} // namespace

TEST(DeterminismTest, SameResultsForAnyJobCount) {
  const auto Serial = runCells(1, nullptr);
  const auto Parallel = runCells(8, nullptr);
  EXPECT_TRUE(identical(Serial, Parallel));
  const auto Parallel3 = runCells(3, nullptr);
  EXPECT_TRUE(identical(Serial, Parallel3));
}

TEST(DeterminismTest, CacheReplayIsBitIdentical) {
  const std::filesystem::path Dir =
      std::filesystem::temp_directory_path() /
      ("dmp-determinism-" + std::to_string(::getpid()));
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);

  const auto Uncached = runCells(2, nullptr);
  auto Cache = std::make_shared<serialize::ArtifactCache>(Dir.string());
  const auto Cold = runCells(2, Cache);
  EXPECT_TRUE(identical(Uncached, Cold));
  EXPECT_GT(Cache->stores(), 0u);

  auto Warm = std::make_shared<serialize::ArtifactCache>(Dir.string());
  const auto Replayed = runCells(4, Warm);
  EXPECT_TRUE(identical(Uncached, Replayed));
  EXPECT_GT(Warm->hits(), 0u);

  std::filesystem::remove_all(Dir, EC);
}

