//===- paperbench/src/HostSpeed.cpp - How fast the host runs now ----------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Helpers.h"

#include <chrono>
#include <cstdint>

namespace paperbench {

namespace {

using Clock = std::chrono::steady_clock;

volatile uint64_t ProbeSink;

} // namespace

double HostSpeed::probeOnce() {
  // 2 MB: fits a core's L2, as the simulator's working set does.
  thread_local std::vector<uint64_t> Table(uint64_t(1) << 18, 1);
  const uint64_t Mask = Table.size() - 1;
  uint64_t X = 0, Acc = 0;
  const Clock::time_point Start = Clock::now();
  for (unsigned I = 0; I < 1'000'000; ++I) {
    // SplitMix64 picks the slot, so the walk defeats the prefetcher.
    X += 0x9E3779B97F4A7C15ull;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    Z ^= Z >> 31;
    Table[Z & Mask] += Z;
    Acc ^= Table[(Z * 7) & Mask];
  }
  ProbeSink = Acc;
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

HostSpeed::HostSpeed() {
  // Room for an hour of samples, so the probe thread does not allocate
  // while the run forks its serve workers.
  Samples.reserve(3600'000 / kIntervalMs);
  Probe = std::thread([this] {
    do {
      Samples.push_back(probeOnce());
      for (unsigned Ms = 0; Ms < kIntervalMs && !Stop; Ms += 10)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } while (!Stop);
  });
}

void HostSpeed::stop() {
  Stop = true;
  if (Probe.joinable())
    Probe.join();
}

double HostSpeed::setUpSeconds(const std::function<void()> &SetUp) {
  const double Before = probeOnce();
  const Clock::time_point Start = Clock::now();
  SetUp();
  const double Seconds =
      std::chrono::duration<double>(Clock::now() - Start).count();
  const double After = probeOnce();
  return Seconds * kReferenceProbeMs / ((Before + After) / 2);
}

double HostSpeed::slowdown() const {
  return nearestRank(Samples, 10, 0)->Value / kReferenceProbeMs;
}

} // namespace paperbench
