//===- sim/SimConfig.cpp - Machine configuration -------------------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "sim/SimConfig.h"

#include "sim/CycleResource.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace dmp;
using namespace dmp::sim;

RunGuard::RunGuard(const SimConfig &Config)
    : Watchdog(Config.WatchdogInstrBudget), Cancel(Config.Cancel),
      Progress(Config.Progress), Polls(Cancel || Progress), NextCheck(0) {
  check(0);
}

void RunGuard::check(uint64_t Count) {
  if (Watchdog && Count > Watchdog)
    throw StatusError(Status::resourceExhausted(
        "simulation exceeded watchdog budget of " + std::to_string(Watchdog) +
            " instructions",
        "sim::DmpCore"));
  if (Polls && Count != 0 && Count % kCancelPollInstrs == 0) {
    if (Progress)
      Progress();
    if (Cancel) {
      const Status S = Cancel->check("sim::DmpCore");
      if (!S.ok())
        throw StatusError(S);
    }
  }
  uint64_t Next = ~0ull;
  if (Polls)
    Next = (Count / kCancelPollInstrs + 1) * kCancelPollInstrs;
  if (Watchdog)
    Next = std::min(Next, Watchdog + 1);
  NextCheck = Next;
}

Status SimConfig::check() const {
  if (FetchWidth == 0 || RetireWidth == 0 || RobSize == 0)
    return Status::invariant(
        formatString("fetch width %u, retire width %u and ROB size %u must "
                     "all be positive",
                     FetchWidth, RetireWidth, RobSize),
        "sim::SimConfig");
  if (IssueWidth == 0 || IssueWidth > CycleResource::kMaxCapacity)
    return Status::invariant(formatString("issue width %u is outside [1, %u]",
                                          IssueWidth,
                                          CycleResource::kMaxCapacity),
                             "sim::SimConfig");
  return Status();
}

unsigned SimConfig::latencyFor(ir::Opcode Op) const {
  switch (Op) {
  case ir::Opcode::Mul:
  case ir::Opcode::MulI:
    return 3;
  case ir::Opcode::Div:
    return 12;
  case ir::Opcode::CondBr:
    return 4; // Resolution depth beyond dispatch.
  default:
    return 1;
  }
}

std::string SimConfig::toString() const {
  std::string Out;
  Out += formatString("Front end      : %u-wide fetch, up to %u not-taken "
                      "branches/cycle, %u-deep front end\n",
                      FetchWidth, MaxNotTakenBranchesPerFetch, FrontEndDepth);
  Out += formatString("Predictors     : %s, %u-entry BTB, %u-entry RAS\n",
                      Predictor == uarch::PredictorKind::Perceptron
                          ? "perceptron (64-bit history, 256 entries)"
                          : "gshare",
                      BtbEntries, RasEntries);
  Out += formatString("Execution core : %u-wide issue/retire, %u-entry ROB, "
                      "128-entry LSQ\n",
                      IssueWidth, RobSize);
  Out += formatString("Memory         : IL1 %lluKB/%u-way/%uc, DL1 "
                      "%lluKB/%u-way/%uc, L2 %lluKB/%u-way/%uc, mem %uc\n",
                      static_cast<unsigned long long>(Memory.IL1Size / 1024),
                      Memory.IL1Assoc, Memory.IL1Latency,
                      static_cast<unsigned long long>(Memory.DL1Size / 1024),
                      Memory.DL1Assoc, Memory.DL1Latency,
                      static_cast<unsigned long long>(Memory.L2Size / 1024),
                      Memory.L2Assoc, Memory.L2Latency, Memory.MemoryLatency);
  Out += formatString("DMP support    : enabled, JRS conf (%u-bit history, "
                      "threshold %u), 32 predicate regs, 3 CFM regs\n",
                      ConfHistoryBits, ConfThreshold);
  return Out;
}
