//===- sim/CycleResource.h - Per-cycle bandwidth tracking -----------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CycleResource: a ring-buffer tracker for resources with a fixed per-cycle
/// capacity (issue ports).  reserve(Earliest) returns the first cycle at or
/// after Earliest with a free slot and consumes it; reserveMany(Earliest, N)
/// books N such slots at once.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SIM_CYCLERESOURCE_H
#define DMP_SIM_CYCLERESOURCE_H

#include <algorithm>
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
/// which lap of the ring last wrote the slot) above the booked count in one
/// 32-bit word, so a probe is a single aligned load.  Two live cycles never
/// share a slot (the ring covers the live window), so a slot holds the
/// probed cycle's lap or an earlier, stale one, whose word compares below
/// the probed lap's empty word: the max of the two is the probed cycle's
/// booked word.  The 28-bit tag wraps only after 2^(kRingBits+28) cycles —
/// beyond any run the model's instruction budgets allow.  A zeroed slot
/// reads as "epoch 0, count 0", which is exactly right for first-lap cycles
/// and stale for every later lap, so construction is a plain zero-fill.
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
    for (uint64_t Cycle = Earliest;; ++Cycle) {
      uint32_t &S = slot(Cycle);
      const uint32_t Empty = emptyWord(Cycle);
      const uint32_t Packed = std::max(S, Empty);
      if (Packed - Empty < Capacity) {
        S = Packed + 1;
        return Cycle;
      }
    }
  }

  /// Books \p Count slots exactly as \p Count calls of reserve(Earliest)
  /// would: fills each cycle's spare slots from \p Earliest on.
  void reserveMany(uint64_t Earliest, unsigned Count) {
    for (uint64_t Cycle = Earliest; Count != 0; ++Cycle) {
      uint32_t &S = slot(Cycle);
      const uint32_t Empty = emptyWord(Cycle);
      const uint32_t Packed = std::max(S, Empty);
      const unsigned Booked = std::min(Count, Empty + Capacity - Packed);
      S = Packed + Booked;
      Count -= Booked;
    }
  }

private:
  static constexpr unsigned kRingBits = 18;
  static constexpr uint64_t kRingSize = 1ull << kRingBits;

  uint32_t &slot(uint64_t Cycle) { return Slots[Cycle & (kRingSize - 1)]; }
  /// The word of \p Cycle's slot with nothing booked: its lap's tag above a
  /// zero count.  A stale slot holds an earlier lap's tag, so its word
  /// compares below this one.
  static uint32_t emptyWord(uint64_t Cycle) {
    return static_cast<uint32_t>(Cycle >> kRingBits) << kCountBits;
  }

  unsigned Capacity;
  std::vector<uint32_t> Slots;
};

} // namespace dmp::sim

#endif // DMP_SIM_CYCLERESOURCE_H
