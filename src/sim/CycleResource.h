//===- sim/CycleResource.h - Per-cycle bandwidth tracking -----------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CycleResource: a ring-buffer tracker for resources with a fixed per-cycle
/// capacity (issue ports, retire slots).  reserve(Earliest) returns the
/// first cycle at or after Earliest with a free slot and consumes it.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SIM_CYCLERESOURCE_H
#define DMP_SIM_CYCLERESOURCE_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace dmp::sim {

/// Tracks per-cycle slot usage over a sliding window of cycles.
///
/// The ring must be large enough to cover the maximum spread between
/// concurrently live reservations (bounded by ROB size times the longest
/// latency); its 2^18 cycles are far beyond anything the model produces.
/// The size is a compile-time constant so that a probe's index and tag are
/// an immediate mask and shift.
///
/// Each slot packs an epoch tag (the cycle divided by the ring size, i.e.
/// which lap of the ring last wrote the slot) and the booked count into one
/// 32-bit word, so a probe is a single aligned load and staleness is one
/// compare.  Two live cycles never share a slot (the ring covers the live
/// window), so a tag mismatch always means the slot is stale; the 28-bit
/// tag itself aliases only after 2^(kRingBits+28) cycles — beyond any run
/// the model's instruction budgets allow.  A zeroed slot reads as "epoch 0,
/// count 0", which is exactly right for first-lap cycles and stale for
/// every later lap, so construction is a plain zero-fill.
class CycleResource {
  static constexpr unsigned kCountBits = 4;

public:
  /// The largest per-cycle capacity the packed count field holds.
  static constexpr unsigned kMaxCapacity = (1u << kCountBits) - 1;

  explicit CycleResource(unsigned Capacity)
      : Capacity(Capacity), Slots(kRingSize) {
    assert(Capacity > 0 && "zero-capacity resource");
    assert(Capacity <= kMaxCapacity && "capacity exceeds count field");
  }

  /// Returns the first cycle >= \p Earliest with spare capacity and books
  /// one slot in it.
  uint64_t reserve(uint64_t Earliest) {
    uint64_t Cycle = Earliest;
    while (true) {
      uint32_t &S = Slots[Cycle & (kRingSize - 1)];
      const uint32_t Tag =
          static_cast<uint32_t>(Cycle >> kRingBits) & kTagMask;
      uint32_t Packed = S;
      if ((Packed >> kCountBits) != Tag)
        Packed = Tag << kCountBits; // Stale slot: reset to count 0.
      if ((Packed & kCountMask) < Capacity) {
        S = Packed + 1;
        return Cycle;
      }
      ++Cycle;
    }
  }

private:
  static constexpr unsigned kRingBits = 18;
  static constexpr uint64_t kRingSize = 1ull << kRingBits;
  static constexpr uint32_t kCountMask = (1u << kCountBits) - 1;
  static constexpr uint32_t kTagMask = (1u << (32 - kCountBits)) - 1;

  unsigned Capacity;
  std::vector<uint32_t> Slots;
};

} // namespace dmp::sim

#endif // DMP_SIM_CYCLERESOURCE_H
