//===- fault/Fault.cpp - Deterministic fault injection --------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "fault/Fault.h"
#include "support/ExitCodes.h"

#include <unistd.h>

using namespace dmp;
using namespace dmp::fault;

const char *fault::siteName(Site S) {
  switch (S) {
  case Site::CacheLoad:
    return "cache-load";
  case Site::CacheStore:
    return "cache-store";
  case Site::TaskRun:
    return "task-run";
  case Site::ProfileDecode:
    return "profile-decode";
  case Site::CrashMidStore:
    return "crash-mid-store";
  }
  return "unknown";
}

namespace {

/// SplitMix64 finalizer: the same mixer RNG.h uses for seeding, good
/// enough to turn (seed, site, key) into an i.i.d.-looking uniform draw.
uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// FNV-1a over the key bytes, folded with the plan seed and site.
uint64_t opHash(uint64_t Seed, Site S, const std::string &Key) {
  uint64_t H = 0xCBF29CE484222325ULL ^ mix64(Seed);
  for (unsigned char C : Key) {
    H ^= C;
    H *= 0x100000001B3ULL;
  }
  return mix64(H ^ (static_cast<uint64_t>(S) + 1) * 0xD1B54A32D192ED03ULL);
}

} // namespace

bool Plan::active() const {
  for (const SiteSpec &Spec : Sites)
    if (Spec.Rate > 0.0)
      return true;
  return false;
}

bool Plan::shouldFault(Site S, const std::string &Key,
                       unsigned Attempt) const {
  const SiteSpec &Spec = at(S);
  if (Spec.Rate <= 0.0 || Attempt >= Spec.MaxFaultsPerOp)
    return false;
  // Top 53 bits as a uniform double in [0, 1).
  const double Draw =
      static_cast<double>(opHash(Seed, S, Key) >> 11) * 0x1.0p-53;
  return Draw < Spec.Rate;
}

Plan Plan::transientEverywhere(uint64_t Seed, double Rate,
                               unsigned MaxFaultsPerOp) {
  Plan P;
  P.Seed = Seed;
  // Fault-return sites only: "everywhere" deliberately excludes the
  // CrashMidStore crashpoint, which kills the process instead of returning
  // a Status and is armed individually by the crash harness.
  for (Site S : {Site::CacheLoad, Site::CacheStore, Site::TaskRun,
                 Site::ProfileDecode}) {
    SiteSpec &Spec = P.at(S);
    Spec.Rate = Rate;
    Spec.MaxFaultsPerOp = MaxFaultsPerOp;
    Spec.Code = ErrorCode::Transient;
  }
  return P;
}

Status Injector::check(Site S, const std::string &Key,
                       unsigned Attempt) const {
  if (!ThePlan.shouldFault(S, Key, Attempt))
    return Status();
  Counts[static_cast<size_t>(S)].fetch_add(1, std::memory_order_relaxed);
  return Status::make(ThePlan.at(S).Code,
                      std::string("injected fault at ") + siteName(S) +
                          " (op " + Key + ", attempt " +
                          std::to_string(Attempt) + ")",
                      "fault");
}

void Injector::maybeCrash(Site S, const std::string &Key) const {
  // Crashpoints fire at most once per key (Attempt 0 semantics): after the
  // crashed child is reaped and the operation retried in a fresh process,
  // the same plan fires again — which is exactly what the harness wants,
  // so recovery tests re-arm with a different plan (or different key) for
  // the rerun.
  if (!ThePlan.shouldFault(S, Key, /*Attempt=*/0))
    return;
  Counts[static_cast<size_t>(S)].fetch_add(1, std::memory_order_relaxed);
  ::_exit(exitcode::CrashChild);
}

uint64_t Injector::totalInjected() const {
  uint64_t Total = 0;
  for (const auto &C : Counts)
    Total += C.load(std::memory_order_relaxed);
  return Total;
}
