//===- core/AnnotationIO.cpp - DivergeMap serialization -----------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/AnnotationIO.h"

#include "support/StringUtils.h"

#include <cstdint>

using namespace dmp;
using namespace dmp::core;

static const char *kindToken(DivergeKind Kind) { return divergeKindName(Kind); }

static bool kindFromToken(const std::string &Token, DivergeKind &Kind) {
  for (DivergeKind K :
       {DivergeKind::SimpleHammock, DivergeKind::NestedHammock,
        DivergeKind::FreqHammock, DivergeKind::Loop, DivergeKind::NoCfm}) {
    if (Token == divergeKindName(K)) {
      Kind = K;
      return true;
    }
  }
  return false;
}

std::string core::serializeDivergeMap(const DivergeMap &Map) {
  std::string Out = "# dmp-diverge-map v1\n";
  for (uint32_t Addr : Map.sortedAddrs()) {
    const DivergeAnnotation &Ann = *Map.find(Addr);
    Out += formatString("branch %u kind=%s always=%d", Addr,
                        kindToken(Ann.Kind), Ann.AlwaysPredicate ? 1 : 0);
    if (Ann.Kind == DivergeKind::Loop)
      Out += formatString(" header=%u selects=%u stay=%s", Ann.LoopHeaderAddr,
                          Ann.LoopSelectUops,
                          Ann.LoopStayTaken ? "taken" : "nottaken");
    for (const CfmPoint &Cfm : Ann.Cfms) {
      if (Cfm.PointKind == CfmPoint::Kind::Return)
        Out += formatString(" cfm=ret:%.6f", Cfm.MergeProb);
      else
        Out += formatString(" cfm=addr:%u:%.6f", Cfm.Addr, Cfm.MergeProb);
    }
    Out += '\n';
  }
  return Out;
}

/// Strict u32 parse: the whole token must be a decimal number that fits,
/// so garbage like "12x", "+12" or "99999999999" is a diagnostic, not a
/// silent 0.
static bool parseU32(const std::string &Token, uint32_t &Out) {
  uint64_t V = 0;
  if (!parseU64(Token, V) || V > UINT32_MAX)
    return false;
  Out = static_cast<uint32_t>(V);
  return true;
}

/// A probability in [0, 1], in the strict form parseF64 takes.
static bool parseProb(const std::string &Token, double &Out) {
  double V = 0.0;
  if (!parseF64(Token, V) || V > 1.0)
    return false;
  Out = V;
  return true;
}

Status core::parseDivergeMap(const std::string &Text, DivergeMap &Map) {
  const auto Fail = [](std::string Msg) {
    return Status::corrupt(std::move(Msg), "core::AnnotationIO");
  };
  const std::vector<std::string> Lines = splitString(Text, '\n');
  DivergeMap Out;
  bool SawHeader = false;
  for (size_t LineNo = 0; LineNo < Lines.size(); ++LineNo) {
    const std::string &Line = Lines[LineNo];
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      if (Line.find("dmp-diverge-map v1") != std::string::npos)
        SawHeader = true;
      continue;
    }
    if (!SawHeader)
      return Fail(formatString("line %zu: missing dmp-diverge-map v1 header",
                               LineNo + 1));

    const std::vector<std::string> Tokens = splitString(Line, ' ');
    if (Tokens.size() < 3 || Tokens[0] != "branch")
      return Fail(formatString("line %zu: expected 'branch <addr> ...'",
                               LineNo + 1));
    DivergeAnnotation Ann;
    uint32_t Addr = 0;
    if (!parseU32(Tokens[1], Addr))
      return Fail(formatString("line %zu: invalid branch address '%s'",
                               LineNo + 1, Tokens[1].c_str()));

    for (size_t T = 2; T < Tokens.size(); ++T) {
      const std::string &Token = Tokens[T];
      if (Token.empty())
        continue;
      const size_t Eq = Token.find('=');
      if (Eq == std::string::npos)
        return Fail(formatString("line %zu: malformed token '%s'", LineNo + 1,
                                 Token.c_str()));
      const std::string Key = Token.substr(0, Eq);
      const std::string Value = Token.substr(Eq + 1);
      if (Key == "kind") {
        if (!kindFromToken(Value, Ann.Kind))
          return Fail(formatString("line %zu: unknown kind '%s'", LineNo + 1,
                                   Value.c_str()));
      } else if (Key == "always") {
        Ann.AlwaysPredicate = (Value == "1");
      } else if (Key == "header") {
        if (!parseU32(Value, Ann.LoopHeaderAddr))
          return Fail(formatString("line %zu: invalid header '%s'",
                                   LineNo + 1, Value.c_str()));
      } else if (Key == "selects") {
        if (!parseU32(Value, Ann.LoopSelectUops))
          return Fail(formatString("line %zu: invalid selects '%s'",
                                   LineNo + 1, Value.c_str()));
      } else if (Key == "stay") {
        Ann.LoopStayTaken = (Value == "taken");
      } else if (Key == "cfm") {
        const std::vector<std::string> Parts = splitString(Value, ':');
        double Prob = 0.0;
        uint32_t CfmAddr = 0;
        if (Parts.size() == 2 && Parts[0] == "ret" &&
            parseProb(Parts[1], Prob)) {
          Ann.Cfms.push_back(CfmPoint::atReturn(Prob));
        } else if (Parts.size() == 3 && Parts[0] == "addr" &&
                   parseU32(Parts[1], CfmAddr) &&
                   parseProb(Parts[2], Prob)) {
          Ann.Cfms.push_back(CfmPoint::atAddress(CfmAddr, Prob));
        } else {
          return Fail(formatString("line %zu: malformed cfm '%s'", LineNo + 1,
                                   Value.c_str()));
        }
      } else {
        return Fail(formatString("line %zu: unknown key '%s'", LineNo + 1,
                                 Key.c_str()));
      }
    }
    Out.add(Addr, std::move(Ann));
  }
  if (!SawHeader)
    return Fail("missing dmp-diverge-map v1 header");
  Map = std::move(Out);
  return Status();
}
