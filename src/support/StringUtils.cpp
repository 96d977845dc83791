//===- support/StringUtils.cpp - Formatting helpers ------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

using namespace dmp;

std::string dmp::formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  const int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result;
  if (Needed > 0) {
    Result.resize(static_cast<size_t>(Needed));
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  }
  va_end(ArgsCopy);
  return Result;
}

std::string dmp::formatPercent(double Fraction) {
  return formatString("%+.1f%%", Fraction * 100.0);
}

std::string dmp::formatDouble(double Value, int Decimals) {
  return formatString("%.*f", Decimals, Value);
}

std::vector<std::string> dmp::splitString(const std::string &Text,
                                          char Separator) {
  std::vector<std::string> Parts;
  size_t Start = 0;
  while (true) {
    const size_t Pos = Text.find(Separator, Start);
    if (Pos == std::string::npos) {
      Parts.push_back(Text.substr(Start));
      return Parts;
    }
    Parts.push_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

bool dmp::parseU64(const std::string &Text, uint64_t &Out) {
  // from_chars takes no sign or whitespace for an unsigned type.
  uint64_t Value = 0;
  const char *End = Text.data() + Text.size();
  const auto [Ptr, Err] = std::from_chars(Text.data(), End, Value);
  if (Err != std::errc() || Ptr != End)
    return false;
  Out = Value;
  return true;
}

bool dmp::parseF64(const std::string &Text, double &Out) {
  // from_chars would take a leading '-' and inf/nan: require a digit or
  // the decimal point up front.
  if (Text.empty() || !(std::isdigit(static_cast<unsigned char>(Text[0])) ||
                        Text[0] == '.'))
    return false;
  double Value = 0.0;
  const char *End = Text.data() + Text.size();
  const auto [Ptr, Err] = std::from_chars(Text.data(), End, Value);
  if (Err != std::errc() || Ptr != End)
    return false;
  Out = Value;
  return true;
}
