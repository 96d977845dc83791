//===- serve/Client.h - Campaign-service client library ---------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of serve::Protocol: a blocking, one-request-at-a-time
/// connection to a dmp_served daemon.  `dmpc --remote` is a thin wrapper
/// around this class; the protocol tests use it directly (and use fd() to
/// inject raw malformed bytes around the typed API).
///
/// Every RPC is a roundTrip(): write one frame, read one frame, and decode
/// a server Error frame back into the dmp::Status it carries — so a
/// rejected SUBMIT surfaces as the same ResourceExhausted/Corrupt taxonomy
/// the rest of the stack speaks.  The server answers every request at
/// once, so the read waits at most kReplyTimeoutMs: a reply lost on the way
/// (a relay that keeps the connection open but never forwards it) is a
/// Transient transport failure, not a wait without end.  A *transport*
/// failure (the write or the read died or timed out, the stream
/// desynchronized) closes the socket, so
/// connected() afterwards distinguishes "the server answered an error"
/// (still connected) from "the connection is gone" (reconnect and retry).
///
/// runCampaign() is crash-resilient (DESIGN.md "Recovery & idempotency"):
/// when the daemon blips or restarts mid-campaign it reconnects under a
/// bounded deterministic backoff (seeded jitter, Transient-only), compares
/// the server's per-boot epoch from the PONG health reply, and resubmits
/// idempotently — the request digest dedups onto surviving work, so the
/// final results are bit-identical to an uninterrupted run.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERVE_CLIENT_H
#define DMP_SERVE_CLIENT_H

#include "serve/Protocol.h"

namespace dmp::serve {

/// How long roundTrip() waits for a reply frame.  Generous, because an
/// in-process server runs a cell on its event loop between replies.
constexpr int kReplyTimeoutMs = 30'000;

/// Reconnect/resubmit policy for runCampaign() and connectWithRetry().
/// Deterministic: the delay before attempt N is a pure function of
/// (Seed, N), in the spirit of fault::Plan.
struct RetryPolicy {
  /// Connection attempts per re-establishment (including the first).
  unsigned ConnectAttempts = 10;
  /// Exponential backoff base; the pre-jitter delay before retry N is
  /// BaseDelayMs << N, capped at MaxDelayMs.
  unsigned BaseDelayMs = 10;
  unsigned MaxDelayMs = 2000;
  /// How many times runCampaign() may (re)submit the request before
  /// giving up.  Idempotent dedup makes every resubmit safe.
  unsigned MaxResubmits = 8;
  /// Jitter seed; same seed, same schedule.
  uint64_t Seed = 0;
};

class Client {
public:
  Client() = default;
  ~Client();

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  Client(Client &&Other) noexcept;
  Client &operator=(Client &&Other) noexcept;

  /// Connects to the daemon's Unix socket.  Transient on refusal (daemon
  /// not up, socket stale); Invariant when the path exceeds the AF_UNIX
  /// sun_path limit.
  Status connect(const std::string &SocketPath);

  /// connect() under \p Retry: bounded attempts with deterministic seeded
  /// backoff, retrying Transient refusals only (an Invariant — e.g. an
  /// overlong path — fails immediately).
  Status connectWithRetry(const std::string &SocketPath,
                          const RetryPolicy &Retry);

  /// The delay before retry \p Attempt (0-based): exponential, capped,
  /// with seeded jitter in [cap/2, cap].  Pure function, exposed for
  /// tests.  \p RetryAfterHintMs, when nonzero, is a server brownout hint
  /// (the retry-after carried on a ResourceExhausted shed): it replaces
  /// the policy's base delay — the backoff becomes hint-scaled
  /// exponential, still jittered deterministically from the seed, with
  /// the delay ceiling never clamped below the hint.
  static unsigned backoffDelayMs(const RetryPolicy &Retry, unsigned Attempt,
                                 uint32_t RetryAfterHintMs = 0);

  void close();
  bool connected() const { return Fd != -1; }

  /// Raw socket fd, for tests that write malformed bytes directly.
  int fd() const { return Fd; }

  /// One request/reply exchange.  A server Error frame is decoded into its
  /// carried Status; an unexpected reply type is Corrupt.  On a transport
  /// failure, no reply within kReplyTimeoutMs included, the socket is
  /// closed (connected() turns false).
  StatusOr<Frame> roundTrip(MsgType Type,
                            const std::vector<uint8_t> &Payload);

  Status ping();
  /// PING decoded as a health check: returns the server's per-boot epoch
  /// (never 0).  A changed epoch means the daemon restarted and in-memory
  /// job ids from before are dead.
  StatusOr<uint64_t> health();
  /// PING decoded as a load probe: the daemon's jobs/cells in flight and
  /// shed counters (PongLoad), plus the epoch via \p EpochOut.
  StatusOr<PongLoad> serverLoad(uint64_t *EpochOut = nullptr);
  /// The retry-after-ms hint carried by the most recent server Error reply
  /// (0 when the last error had none, or the last reply succeeded).  The
  /// brownout contract: nonzero marks a shed as transient saturation worth
  /// riding out; zero marks it permanent.
  uint32_t lastRetryAfterMs() const { return LastRetryAfterMs; }
  /// Returns the accepted job id.
  StatusOr<uint64_t> submit(const SubmitRequest &Req);
  StatusOr<JobStatusReply> status(uint64_t Job);
  /// Fetches a finished job's per-cell outcomes.  Idempotent: the server
  /// keeps the job (and its durable record) until ack().  Transient while
  /// the job still runs.
  StatusOr<FetchReplyData> fetch(uint64_t Job);
  /// Tells the server the results were consumed; the job and its durable
  /// record are released.  Idempotent — acking an unknown id is Ok.
  Status ack(uint64_t Job);
  Status cancel(uint64_t Job);
  /// Asks the daemon to drain and exit.
  Status shutdownServer();

  /// Convenience: submit, poll status until the job finishes, fetch.
  /// This is the whole of `dmpc --remote`.  Rides through daemon blips
  /// and restarts under \p Retry (reconnect, epoch check, idempotent
  /// resubmit); does NOT ack — the caller does, once it has consumed the
  /// results.
  StatusOr<FetchReplyData> runCampaign(const SubmitRequest &Req,
                                       unsigned PollIntervalMs = 20,
                                       const RetryPolicy &Retry = {});

private:
  int Fd = -1;
  /// Remembered by connect() so runCampaign() can re-establish.
  std::string Path;
  /// Brownout hint from the most recent Error reply (see lastRetryAfterMs).
  uint32_t LastRetryAfterMs = 0;
};

} // namespace dmp::serve

#endif // DMP_SERVE_CLIENT_H
