//===- chaos/ChaosProxy.h - Deterministic socket-chaos relay ----*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small Unix-socket relay that sits between a serve client and the
/// daemon and injects transport hostility: chopped forwards (the peer sees
/// partial reads of every frame), delays, and mid-chunk connection cuts
/// (the peer sees a truncated frame then EOF).  In the spirit of
/// fault::Plan, every injection decision is a pure function of
/// (seed, site, op-index) — the same plan replays the same schedule, so a
/// chaos test that fails is a chaos test you can rerun.
///
/// Sites: each proxied connection contributes two sites (client->server
/// and server->client), numbered 2*conn and 2*conn+1 in accept order; the
/// op index counts forwarded chunks per site.  The proxy never rewrites
/// bytes — protocol corruption is the frame-fuzz tests' job; this is the
/// torn-transport instrument.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_CHAOS_CHAOSPROXY_H
#define DMP_CHAOS_CHAOSPROXY_H

#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace dmp::serve {

/// The deterministic chaos schedule.  Rates are probabilities in [0, 1]
/// evaluated per forwarded chunk from the (Seed, site, op) hash.
struct ChaosPlan {
  uint64_t Seed = 1;
  /// Chance a chunk is forwarded in tiny pieces instead of one write.
  double ChopRate = 0.0;
  /// Piece size bound when chopping (>= 1).
  unsigned ChopBytesMax = 3;
  /// Chance a chunk is delayed before forwarding.
  double DelayRate = 0.0;
  unsigned DelayMs = 1;
  /// Chance the connection is cut after forwarding only half the chunk —
  /// a mid-frame disconnect for both peers.
  double DropRate = 0.0;
  /// Total cuts across the proxy's lifetime; once spent, traffic flows
  /// (chopped/delayed but uncut), so a retrying client can finish.
  unsigned MaxDrops = 0;
};

/// Relay between ListenPath (where the client connects) and TargetPath
/// (the real daemon socket).  One background thread, any number of
/// concurrent proxied connections.
class ChaosProxy {
public:
  ChaosProxy(std::string ListenPath, std::string TargetPath, ChaosPlan Plan);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy &) = delete;
  ChaosProxy &operator=(const ChaosProxy &) = delete;

  /// Binds ListenPath and spawns the relay thread.
  Status start();
  /// Stops the relay, closes every proxied connection, joins the thread.
  /// Idempotent.
  void stop();

  /// The injection decision for op \p Op at \p Site under \p Plan against
  /// \p Rate: pure, exposed so tests can predict (and replay) schedules.
  static bool decide(const ChaosPlan &Plan, uint64_t Site, uint64_t Op,
                     double Rate);

  uint64_t drops() const { return Drops.load(std::memory_order_relaxed); }
  uint64_t chunksForwarded() const {
    return Chunks.load(std::memory_order_relaxed);
  }

private:
  void run();
  /// Forwards \p N bytes to \p Dst with the plan's injections applied.
  /// Returns false when the link must be cut (drop fired or write failed).
  bool forward(int Dst, const uint8_t *Data, size_t N, uint64_t Site,
               uint64_t &Op);

  std::string ListenPath;
  std::string TargetPath;
  ChaosPlan Plan;

  int ListenFd = -1;
  int StopPipe[2] = {-1, -1};
  std::thread Relay;
  bool Running = false;

  std::atomic<uint64_t> Drops{0};
  std::atomic<uint64_t> Chunks{0};
};

} // namespace dmp::serve

#endif // DMP_CHAOS_CHAOSPROXY_H
