//===- guard/Guard.h - Cancellation, deadlines, graceful shutdown -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dmp::guard: the operational-robustness layer of the campaign stack
/// (DESIGN.md "Shutdown, deadlines, and crash recovery").  Three pieces:
///
///  - CancelToken: a cooperative, async-signal-safe cancellation flag that
///    carries an ErrorCode + reason.  Producers (signal handlers, deadline
///    watchdogs, tests) trip it; consumers (TaskGraph::runAll task starts,
///    ExperimentEngine cell attempts, the DmpCore inner loop) poll it and
///    convert a trip into a dmp::Status instead of a hang or a lost
///    campaign.  First trip wins; trips are atomic stores only, so tripping
///    from a signal handler is safe.
///
///  - Deadline / DeadlineWatchdog: a wall-clock budget and a background
///    thread that trips a token when the budget runs out.  The watchdog is
///    how `--deadline` bounds a whole campaign and `fuzz_dmp --time-budget`
///    bounds a fuzzing sweep: work stops being *launched* at the deadline
///    and in-flight work drains (or, where a token is wired into the
///    simulator inner loop, aborts at the next poll).
///
///  - Signal handling: installSignalHandlers() arms SIGINT/SIGTERM with an
///    async-signal-safe handler (sig_atomic_t flag + self-pipe write +
///    processToken() trip).  The first signal requests a graceful drain —
///    drivers stop launching cells, let in-flight cells finish (their
///    stages land in the artifact cache, the campaign's checkpoint),
///    print a partial report, and exit exitcode::Interrupted (130).  A
///    second signal hard-exits immediately with the same code.
///
/// Everything here is deliberately *cooperative*: nothing is ever killed
/// mid-write, which is what keeps the artifact cache crash-consistent
/// (serialize::ArtifactCache handles the non-cooperative cases — kill -9,
/// power loss — with its recovery sweep).
///
//===----------------------------------------------------------------------===//

#ifndef DMP_GUARD_GUARD_H
#define DMP_GUARD_GUARD_H

#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

namespace dmp::guard {

/// A one-way cooperative cancellation flag.  cancel() is async-signal-safe
/// (atomic stores of a code and a pointer to a string literal; no
/// allocation, no locks); everything else is ordinary thread-safe reads.
class CancelToken {
public:
  CancelToken() = default;
  CancelToken(const CancelToken &) = delete;
  CancelToken &operator=(const CancelToken &) = delete;

  /// Trips the token.  First trip wins; later calls are no-ops.  \p Reason
  /// must point to storage that outlives the token (a string literal).
  void cancel(ErrorCode Code = ErrorCode::Cancelled,
              const char *Reason = "cancelled") noexcept {
    const char *ExpectedReason = nullptr;
    TripReason.compare_exchange_strong(ExpectedReason, Reason,
                                       std::memory_order_relaxed);
    uint8_t ExpectedState = 0;
    State.compare_exchange_strong(ExpectedState, static_cast<uint8_t>(Code),
                                  std::memory_order_release);
  }

  bool cancelled() const noexcept {
    return State.load(std::memory_order_acquire) != 0;
  }

  /// Ok while live; after a trip, the Status the trip carried (origin
  /// "guard").
  Status status() const {
    const uint8_t S = State.load(std::memory_order_acquire);
    if (S == 0)
      return Status();
    const char *Reason = TripReason.load(std::memory_order_relaxed);
    return Status::make(static_cast<ErrorCode>(S),
                        Reason ? Reason : "cancelled", "guard");
  }

  /// status() with \p Where folded into the message, for call sites that
  /// want to say what was skipped.
  Status check(const char *Where) const {
    const Status S = status();
    if (S.ok())
      return S;
    return Status::make(S.code(), S.message() + " (" + Where + ")",
                        S.origin());
  }

  /// Re-arms a tripped token.  For tests only — never reset a token that
  /// live consumers may still poll.
  void reset() noexcept {
    State.store(0, std::memory_order_release);
    TripReason.store(nullptr, std::memory_order_relaxed);
  }

private:
  std::atomic<uint8_t> State{0}; ///< 0 = live, else the ErrorCode.
  std::atomic<const char *> TripReason{nullptr};
};

/// A wall-clock budget: either "never" or a fixed number of seconds from
/// construction.  Value type; cheap to copy.
class Deadline {
public:
  /// A deadline that never expires.
  Deadline() = default;

  /// Expires \p Seconds from now (fractional seconds allowed).
  explicit Deadline(double Seconds)
      : Never(false),
        At(std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(Seconds < 0 ? 0 : Seconds))) {}

  bool never() const { return Never; }
  bool expired() const {
    return !Never && std::chrono::steady_clock::now() >= At;
  }
  /// Seconds left (0 when expired; a very large value when never()).
  double remainingSeconds() const;
  std::chrono::steady_clock::time_point at() const { return At; }

private:
  bool Never = true;
  std::chrono::steady_clock::time_point At{};
};

/// Trips \p Token with (\p Code, \p Reason) when \p D expires.  The
/// deadline is monitored by a dedicated thread so compute-bound work gets
/// cancelled even if it never polls a clock; destroying the watchdog
/// before expiry disarms it without tripping.  A never() deadline spawns
/// no thread.
class DeadlineWatchdog {
public:
  DeadlineWatchdog(Deadline D, CancelToken &Token,
                   ErrorCode Code = ErrorCode::ResourceExhausted,
                   const char *Reason = "deadline exceeded");
  ~DeadlineWatchdog();

  DeadlineWatchdog(const DeadlineWatchdog &) = delete;
  DeadlineWatchdog &operator=(const DeadlineWatchdog &) = delete;

private:
  std::mutex Mutex;
  std::condition_variable Cv;
  bool Stop = false;
  std::thread Thread;
};

/// The process-wide token tripped by SIGINT/SIGTERM.  Consumers poll it
/// (directly or via ExperimentEngine's drain path) to stop launching new
/// work after an interrupt.
CancelToken &processToken();

/// Arms SIGINT and SIGTERM with the graceful-shutdown handler: the first
/// signal trips processToken() (code Cancelled, reason "interrupted by
/// signal") and writes a byte to the self-pipe; a second signal hard-exits
/// with exitcode::Interrupted.  Idempotent; call once near the top of
/// main() in every driver.
void installSignalHandlers();

/// True once a first signal has been seen (i.e. processToken() was tripped
/// by the handler).
bool interrupted();

/// The signal number that tripped processToken() (SIGINT or SIGTERM), or 0
/// before any signal.  Lets long-lived services exit 128+sig — dmp_served
/// reports exitcode::Interrupted (130) for SIGINT and exitcode::Terminated
/// (143) for SIGTERM — while the one-shot drivers keep their uniform 130.
int lastSignal();

/// Read end of the self-pipe the handler writes to (for callers that block
/// in poll/select rather than compute), or -1 before installSignalHandlers().
int wakeupFd();

} // namespace dmp::guard

#endif // DMP_GUARD_GUARD_H
