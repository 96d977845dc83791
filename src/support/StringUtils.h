//===- support/StringUtils.h - Formatting helpers ---------------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style std::string formatting and small string helpers, so library
/// code never needs <iostream>.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SUPPORT_STRINGUTILS_H
#define DMP_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <vector>

namespace dmp {

/// printf into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Formats a ratio as a signed percentage with one decimal, e.g. "+20.4%".
std::string formatPercent(double Fraction);

/// Formats a double with \p Decimals digits after the point.
std::string formatDouble(double Value, int Decimals = 2);

/// Splits \p Text on \p Separator (no empty-token suppression).
std::vector<std::string> splitString(const std::string &Text, char Separator);

/// Strict decimal parsing for command-line values: the whole of \p Text
/// must be the number.  Empty input, a leading sign or whitespace, trailing
/// bytes and out-of-range values all fail (leaving \p Out untouched), so a
/// sweep never runs on a silently mangled threshold.
bool parseU64(const std::string &Text, uint64_t &Out);
/// Also rejects inf/nan and hex floats; an exponent may carry a sign.
bool parseF64(const std::string &Text, double &Out);

} // namespace dmp

#endif // DMP_SUPPORT_STRINGUTILS_H
