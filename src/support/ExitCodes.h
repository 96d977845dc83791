//===- support/ExitCodes.h - Standard tool exit codes -----------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process exit codes every CLI tool in this repo uses (dmpc, fuzz_dmp,
/// and the bench drivers), so scripts and CI can distinguish "the run
/// failed" from "you typed the command wrong" from "the run was interrupted
/// but kept its completed work".  See DESIGN.md "Shutdown, deadlines,
/// and crash recovery".
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SUPPORT_EXITCODES_H
#define DMP_SUPPORT_EXITCODES_H

namespace dmp::exitcode {

/// Everything the tool was asked to do succeeded.
inline constexpr int Ok = 0;

/// The tool ran but the work failed (oracle divergence, failed cells the
/// caller asked to treat as fatal, unwritable output, ...).
inline constexpr int Failure = 1;

/// The command line was malformed: unknown flag, bad value, missing
/// operand.  Nothing was run.
inline constexpr int Usage = 2;

/// The run was interrupted by SIGINT/SIGTERM after draining in-flight work;
/// every stage that completed is in the artifact cache, so a rerun with the
/// same --cache-dir recomputes only the rest.  128 + SIGINT, the
/// conventional interrupted-by-signal code.
inline constexpr int Interrupted = 130;

/// The run was terminated by SIGTERM (128 + SIGTERM).  Only dmp_served
/// distinguishes SIGTERM from SIGINT — a service manager's stop is not an
/// operator's ^C — via guard::lastSignal(); the one-shot drivers keep
/// exiting Interrupted for both.
inline constexpr int Terminated = 143;

/// The exit code crashpoint-harness children die with (mimicking SIGKILL's
/// 128 + 9), so tests/test_crash.cpp can tell an injected crash from an
/// ordinary failure.
inline constexpr int CrashChild = 137;

} // namespace dmp::exitcode

#endif // DMP_SUPPORT_EXITCODES_H
