//===- support/Saturating.h - Saturating counters ---------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-width saturating up/down counters, the basic storage element of the
/// branch predictors and the JRS confidence estimator.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SUPPORT_SATURATING_H
#define DMP_SUPPORT_SATURATING_H

#include <cassert>
#include <cstdint>
#include <type_traits>

namespace dmp {

/// An N-bit saturating counter.  Counts in [0, 2^Bits - 1].
template <unsigned Bits> class SaturatingCounter {
  static_assert(Bits >= 1 && Bits <= 16, "unsupported counter width");

public:
  static constexpr uint16_t Max = (1u << Bits) - 1;

  SaturatingCounter() = default;
  explicit SaturatingCounter(uint16_t Initial) : Value(Initial) {
    assert(Initial <= Max && "initial value out of range");
  }

  void increment() {
    if (Value < Max)
      ++Value;
  }

  void decrement() {
    if (Value > 0)
      --Value;
  }

  void reset(uint16_t NewValue = 0) {
    assert(NewValue <= Max && "reset value out of range");
    Value = NewValue;
  }

  uint16_t get() const { return Value; }

  /// Returns true when the counter is in its upper half; the usual
  /// taken/not-taken interpretation for 2-bit predictor counters.
  bool isWeaklySet() const { return Value > Max / 2; }

  /// Returns true when the counter is saturated at its maximum.
  bool isSaturated() const { return Value == Max; }

private:
  uint16_t Value = 0;
};

/// A signed saturating weight, used by the perceptron predictor.  Stored in
/// the narrowest type that holds the range (a byte for the perceptron's
/// [-128, 127], so its table is Table 1's 16KB).
template <int MinValue, int MaxValue> class SaturatingWeight {
  static_assert(MinValue < MaxValue, "degenerate weight range");
  using Storage =
      std::conditional_t<MinValue >= INT8_MIN && MaxValue <= INT8_MAX,
                         int8_t, int>;

public:
  int get() const { return Value; }

  void add(int Delta) {
    int Next = Value + Delta;
    if (Next > MaxValue)
      Next = MaxValue;
    if (Next < MinValue)
      Next = MinValue;
    Value = static_cast<Storage>(Next);
  }

private:
  Storage Value = 0;
};

} // namespace dmp

#endif // DMP_SUPPORT_SATURATING_H
