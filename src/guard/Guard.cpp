//===- guard/Guard.cpp - Cancellation, deadlines, graceful shutdown -------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "guard/Guard.h"
#include "support/ExitCodes.h"

#include <csignal>
#include <limits>
#include <unistd.h>

#include <fcntl.h>

namespace dmp::guard {

double Deadline::remainingSeconds() const {
  if (Never)
    return std::numeric_limits<double>::max();
  const auto Now = std::chrono::steady_clock::now();
  if (Now >= At)
    return 0.0;
  return std::chrono::duration<double>(At - Now).count();
}

DeadlineWatchdog::DeadlineWatchdog(Deadline D, CancelToken &Token,
                                   ErrorCode Code, const char *Reason) {
  if (D.never())
    return;
  Thread = std::thread([this, D, &Token, Code, Reason] {
    std::unique_lock<std::mutex> Lock(Mutex);
    // Spurious wakeups just re-check; a Stop wakeup disarms without trip.
    while (!Stop) {
      if (Cv.wait_until(Lock, D.at(), [this] { return Stop; }))
        return;
      if (D.expired()) {
        Token.cancel(Code, Reason);
        return;
      }
    }
  });
}

DeadlineWatchdog::~DeadlineWatchdog() {
  if (!Thread.joinable())
    return;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stop = true;
  }
  Cv.notify_all();
  Thread.join();
}

CancelToken &processToken() {
  static CancelToken Token;
  return Token;
}

namespace {

// Everything the handler touches must be async-signal-safe: a
// sig_atomic_t flag, atomic stores inside CancelToken::cancel, a write()
// to the self-pipe, and _exit().
volatile std::sig_atomic_t SignalSeen = 0;
volatile std::sig_atomic_t SignalNumber = 0;
int SelfPipe[2] = {-1, -1};

extern "C" void handleShutdownSignal(int Sig) {
  if (SignalSeen) {
    // Second signal: the user really means it.  No draining — the cache's
    // atomic stores and recovery sweep cover whatever was in flight.  128+sig keeps the conventional identity
    // (130 for ^C^C, 143 for a double SIGTERM).
    ::_exit(128 + Sig);
  }
  SignalSeen = 1;
  SignalNumber = Sig;
  processToken().cancel(ErrorCode::Cancelled, "interrupted by signal");
  if (SelfPipe[1] != -1) {
    const char Byte = 1;
    // Best-effort; a full pipe still leaves the flag + token set.
    (void)!::write(SelfPipe[1], &Byte, 1);
  }
}

} // namespace

void installSignalHandlers() {
  static bool Installed = false;
  if (Installed)
    return;
  Installed = true;

  if (::pipe(SelfPipe) == 0) {
    for (int Fd : SelfPipe) {
      ::fcntl(Fd, F_SETFD, FD_CLOEXEC);
      ::fcntl(Fd, F_SETFL, O_NONBLOCK);
    }
  } else {
    SelfPipe[0] = SelfPipe[1] = -1;
  }

  struct sigaction Action = {};
  Action.sa_handler = handleShutdownSignal;
  sigemptyset(&Action.sa_mask);
  // No SA_RESTART: blocking syscalls should return EINTR so drivers
  // notice the interrupt promptly.
  Action.sa_flags = 0;
  ::sigaction(SIGINT, &Action, nullptr);
  ::sigaction(SIGTERM, &Action, nullptr);
}

bool interrupted() { return SignalSeen != 0; }

int lastSignal() { return static_cast<int>(SignalNumber); }

int wakeupFd() { return SelfPipe[0]; }

} // namespace dmp::guard
