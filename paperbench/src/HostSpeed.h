//===- paperbench/src/HostSpeed.h - How fast the host runs now --*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared host changes speed for minutes at a time: over one 150-s
/// stretch the same DMP simulations took 83-94 ms at best, then 150-157 ms
/// at best for the rest of it.  A run's timings follow such a change
/// whatever statistic the run takes over them, so the benchmark measures
/// the host's speed beside them and states its timings at a reference
/// speed.
///
/// HostSpeed runs a fixed probe on a thread of its own while a run
/// executes: random read-modify-writes over a 2 MB table, which lives in
/// a core's L2 cache like the simulator's working set and, in that stretch,
/// slowed by 1.7x where the simulations slowed by 1.8x (a sort slowed by
/// only 1.35x).  The probe is the benchmark's own code, so no change to
/// the program changes it.  The 10th percentile of its times over the run,
/// against the same on the host the bounds were set on, is the run's
/// slowdown: the fastest single probe can catch a moment of a few
/// milliseconds that a pass or session never sees, and over five runs
/// each of paper-cold and serve-cells the 10th percentile left the
/// smallest spread.
///
//===----------------------------------------------------------------------===//

#ifndef PAPERBENCH_HOSTSPEED_H
#define PAPERBENCH_HOSTSPEED_H

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

namespace paperbench {

class HostSpeed {
public:
  /// The probe's 10th percentile on the host the bounds in BENCHMARK.json
  /// were set on (a 4-vCPU Xeon VM, in a fast stretch).
  static constexpr double kReferenceProbeMs = 3.5;
  /// Pause between two probes: the probe thread is busy about 3 % of the
  /// time, so the workloads' threads keep their cores.
  static constexpr unsigned kIntervalMs = 100;

  /// Starts probing.
  HostSpeed();
  ~HostSpeed() { stop(); }
  HostSpeed(const HostSpeed &) = delete;
  HostSpeed &operator=(const HostSpeed &) = delete;

  /// Stops probing and waits for the probe thread; idempotent.
  void stop();

  /// After stop(): the probe's times in ms, at least one.
  const std::vector<double> &probeMs() const { return Samples; }

  /// After stop(): the probes' 10th percentile over kReferenceProbeMs; 2
  /// means the host ran at half the reference speed.
  double slowdown() const;

  /// One probe, in ms.
  static double probeOnce();

  /// Runs \p SetUp between two probes on the calling thread and returns
  /// its time in seconds at the reference speed: over the probes' mean.
  /// One thread's speed flips between two levels about 1.45x apart for
  /// stretches of a second or so (another machine's work sharing its core,
  /// it seems), which a thread of its own does not see; probes next to a
  /// set-up on the same thread do.  Over eight runs of 300 suite builds,
  /// the builds' median spread 2.5-3.8 ms and the median of build over
  /// probe 0.74-0.80.
  static double setUpSeconds(const std::function<void()> &SetUp);

private:
  std::atomic<bool> Stop{false};
  std::vector<double> Samples;
  std::thread Probe;
};

} // namespace paperbench

#endif // PAPERBENCH_HOSTSPEED_H
