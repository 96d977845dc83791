//===- chaos/HostileClient.h - Deterministic adversarial client -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic hostile-client generator for the serve liveness tests
/// (DESIGN.md "Liveness & overload").  Where ChaosProxy perturbs a
/// *cooperating* byte stream, HostileClient IS the misbehaving peer: it
/// opens real connections to the daemon and runs one of four classic
/// denial patterns against it —
///
///   HalfOpen     connect, send at most one byte, then hold the socket
///                open and silent (an accept-slot squatter).  Exercises
///                the --max-conns accept cap and the idle-shed path.
///   DripHeader   send a valid frame one byte at a time with long pauses
///                (slowloris).  Exercises the partial-frame read
///                deadline.
///   NeverRead    pump PING frames forever without ever reading a reply,
///                so PONGs pile up in the server's outbound queue.
///                Exercises the per-connection write-buffer budget.
///   SubmitStorm  well-formed SUBMITs varied per-op so the idempotency
///                key cannot dedup them, as fast as the pacing allows.
///                Exercises admission control and the brownout sheds.
///
/// Determinism contract (the ChaosProxy / fault::Plan model): every
/// behavioral choice is a pure function of (Seed, Site, Op) where Site is
/// the connection's serial number and Op a per-connection counter — no
/// wall-clock or PRNG state.  Two runs with the same plan produce the
/// same byte schedule, so a liveness failure reproduces under the same
/// seed.  The daemon's *responses* are not deterministic (sheds depend on
/// timing); the tests assert liveness properties, not exact counts.
///
/// The attack loop runs on one background thread, like ChaosProxy:
/// start() spawns it, stop() is idempotent and joins it.  Connection
/// failures are expected mid-attack (the daemon shedding us is the point)
/// and are recycled, not reported; connects() and ops() expose progress
/// for the harness.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_CHAOS_HOSTILECLIENT_H
#define DMP_CHAOS_HOSTILECLIENT_H

#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace dmp::serve {

enum class HostileAttack : uint8_t {
  HalfOpen,
  DripHeader,
  NeverRead,
  SubmitStorm,
};

/// Stable lowercase name ("half-open", "drip-header", "never-read",
/// "submit-storm") for logs and bench output.
const char *hostileAttackName(HostileAttack Kind);

struct HostilePlan {
  uint64_t Seed = 1;
  HostileAttack Kind = HostileAttack::HalfOpen;
  /// Concurrent connections the attacker tries to keep alive.  When the
  /// daemon sheds one (or refuses the connect), the slot recycles.
  unsigned Connections = 8;
  /// Ops per connection before it is voluntarily recycled: bytes dripped
  /// (DripHeader), frames pumped (NeverRead), submits sent (SubmitStorm).
  /// Ignored by HalfOpen, whose whole point is to do nothing.
  unsigned OpsPerConn = 32;
  /// Pause between attack ticks, the attacker's pacing knob.  Small for
  /// floods (NeverRead/SubmitStorm), larger for the slowloris drip.
  unsigned PaceUs = 1000;
};

class HostileClient {
public:
  /// \p TargetPath is the daemon's Unix socket.
  HostileClient(std::string TargetPath, HostilePlan Plan);
  ~HostileClient();

  HostileClient(const HostileClient &) = delete;
  HostileClient &operator=(const HostileClient &) = delete;

  /// Pure (Seed, Site, Op) mix in [0, 2^64): the single source of every
  /// per-op variation (storm spec parameters, half-open first-byte
  /// choice).  Exposed for the determinism test.
  static uint64_t mix(const HostilePlan &Plan, uint64_t Site, uint64_t Op);

  /// Spawns the attack thread.  Invariant if already started.
  Status start();
  /// Stops and joins the attack thread; closes every socket.  Idempotent.
  void stop();

  /// Connections successfully established so far.
  uint64_t connects() const {
    return Connects.load(std::memory_order_relaxed);
  }
  /// Attack ops completed (bytes dripped / frames sent / submits sent).
  uint64_t ops() const { return Ops.load(std::memory_order_relaxed); }

private:
  void run();

  std::string TargetPath;
  HostilePlan Plan;
  int StopPipe[2] = {-1, -1};
  std::thread Attacker;
  bool Running = false;
  std::atomic<uint64_t> Connects{0};
  std::atomic<uint64_t> Ops{0};
};

} // namespace dmp::serve

#endif // DMP_CHAOS_HOSTILECLIENT_H
