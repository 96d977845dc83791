//===- fault/Fault.h - Deterministic fault injection ------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the campaign execution stack.  A
/// fault::Plan is a seeded schedule of fault sites; a fault::Injector
/// evaluates the plan at instrumented hook points:
///
///   CacheLoad     serialize::ArtifactCache::load    (read shim)
///   CacheStore    serialize::ArtifactCache::store   (write shim)
///   TaskRun       harness::ExperimentEngine cells   (task execution)
///   ProfileDecode harness::BenchContext cached-blob decode
///
/// One further site is a *crashpoint* rather than a fault return: when the
/// plan selects it, Injector::maybeCrash() _exit(137)s the process at the
/// most hostile instant of the cache's write protocol.  It exists solely
/// for the fork-based crash harness (tests/test_crash.cpp), which forks a
/// child with such a plan and verifies the parent-side recovery
/// guarantees:
///
///   CrashMidStore ArtifactCache::store, after the temp file is written
///                 but before the atomic rename
///
/// Whether an operation faults is a *pure function* of (plan seed, site,
/// operation key, attempt number) — no wall-clock, no global counters — so
/// a fault schedule is reproducible across runs and independent of thread
/// scheduling.  Transient faults clear after Plan::MaxFaultsPerOp attempts,
/// which is what makes bounded retry provably terminate; combined with the
/// engine's fall-back-to-recompute semantics for cache faults, the campaign
/// result digest stays bit-identical to a fault-free run for any --jobs
/// value (see tests/test_fault.cpp).
///
/// Injection *counters* (how many faults actually fired per site) are kept
/// for reports and tests; they are scheduling-dependent only in the sense
/// that concurrent duplicate operations may each consult the plan.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_FAULT_FAULT_H
#define DMP_FAULT_FAULT_H

#include "support/Status.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace dmp::fault {

/// Instrumented hook points in the execution stack.
enum class Site : uint8_t {
  CacheLoad = 0,
  CacheStore,
  TaskRun,
  ProfileDecode,
  CrashMidStore,
};

constexpr size_t kNumSites = 5;

/// Stable lowercase name of \p S ("cache-load", ...).
const char *siteName(Site S);

/// Per-site schedule knobs.
struct SiteSpec {
  /// Fraction of operation keys that fault at this site, in [0, 1].
  double Rate = 0.0;
  /// A faulted key stops faulting after this many attempts; ~0u makes the
  /// fault permanent (never clears, exhausting any bounded retry).
  unsigned MaxFaultsPerOp = 1;
  /// The code injected failures carry (Transient by default; Invariant
  /// models a permanent per-cell defect).
  ErrorCode Code = ErrorCode::Transient;
};

/// A seeded schedule of fault sites.  Value type; cheap to copy.
struct Plan {
  uint64_t Seed = 0;
  std::array<SiteSpec, kNumSites> Sites{};

  SiteSpec &at(Site S) { return Sites[static_cast<size_t>(S)]; }
  const SiteSpec &at(Site S) const { return Sites[static_cast<size_t>(S)]; }

  /// True when some site has a non-zero rate.
  bool active() const;

  /// Pure decision function: does (\p S, \p Key) fault on \p Attempt?
  bool shouldFault(Site S, const std::string &Key, unsigned Attempt) const;

  /// Convenience: \p Rate of transient faults at every site, clearing
  /// after \p MaxFaultsPerOp attempts.
  static Plan transientEverywhere(uint64_t Seed, double Rate,
                                  unsigned MaxFaultsPerOp = 1);
};

/// Evaluates a Plan at the hook points and counts what fired.  Shared by
/// the artifact cache and the experiment engine; thread-safe.
class Injector {
public:
  explicit Injector(Plan P = Plan()) : ThePlan(P) {}

  const Plan &plan() const { return ThePlan; }
  bool active() const { return ThePlan.active(); }

  /// Consults the plan for operation (\p S, \p Key, \p Attempt).  Returns
  /// ok when the operation should proceed; otherwise an injected Status
  /// carrying the site's error code, and bumps the site's counter.
  Status check(Site S, const std::string &Key, unsigned Attempt = 0) const;

  /// Crashpoint hook: if the plan selects (\p S, \p Key), bumps the site
  /// counter and kills the process with ::_exit(exitcode::CrashChild) —
  /// no destructors, no stdio flush, exactly like a kill -9 landing at
  /// this instruction.  Only meaningful for CrashMidStore; a plan
  /// with Rate 0 there (the default) makes this a no-op.
  void maybeCrash(Site S, const std::string &Key) const;

  /// How many injected faults fired at \p S so far.
  uint64_t injected(Site S) const {
    return Counts[static_cast<size_t>(S)].load(std::memory_order_relaxed);
  }
  uint64_t totalInjected() const;

private:
  Plan ThePlan;
  mutable std::array<std::atomic<uint64_t>, kNumSites> Counts{};
};

} // namespace dmp::fault

#endif // DMP_FAULT_FAULT_H
