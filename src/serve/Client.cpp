//===- serve/Client.cpp - Campaign-service client library -----------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace dmp;
using namespace dmp::serve;

Client::~Client() { close(); }

Client::Client(Client &&Other) noexcept
    : Fd(Other.Fd), Path(std::move(Other.Path)) {
  Other.Fd = -1;
}

Client &Client::operator=(Client &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Path = std::move(Other.Path);
    Other.Fd = -1;
  }
  return *this;
}

void Client::close() {
  if (Fd != -1)
    ::close(Fd);
  Fd = -1;
}

Status Client::connect(const std::string &SocketPath) {
  close();
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return Status::invariant(
        "socket path too long: " + std::to_string(SocketPath.size()) +
            " bytes exceeds the AF_UNIX sun_path limit of " +
            std::to_string(sizeof(Addr.sun_path) - 1) + " (" + SocketPath +
            ")",
        "serve::Client");
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  const int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0)
    return Status::transient(std::string("socket(): ") + std::strerror(errno),
                             "serve::Client");
  while (::connect(S, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)) != 0) {
    if (errno == EINTR) {
      // A signal landed mid-handshake.  The connection may still complete
      // in the background; retrying yields EISCONN when it did.
      continue;
    }
    if (errno == EISCONN)
      break;
    const Status St = Status::transient(std::string("connect(") + SocketPath +
                                            "): " + std::strerror(errno),
                                        "serve::Client");
    ::close(S);
    return St;
  }
  Fd = S;
  Path = SocketPath;
  return Status();
}

unsigned Client::backoffDelayMs(const RetryPolicy &Retry, unsigned Attempt,
                                uint32_t RetryAfterHintMs) {
  const uint64_t Shift = std::min<unsigned>(Attempt, 20);
  const uint64_t Base =
      RetryAfterHintMs ? RetryAfterHintMs : Retry.BaseDelayMs;
  // A brownout hint overrides the policy base (the server knows its own
  // backlog better than our default does) and also raises the cap floor:
  // the ceiling is never allowed below the hint, even when the policy's
  // MaxDelayMs is tighter.
  const uint64_t Ceiling =
      std::max<uint64_t>(Retry.MaxDelayMs, RetryAfterHintMs);
  uint64_t Cap = std::min<uint64_t>(Base << Shift, Ceiling);
  if (Cap == 0)
    return 0;
  // splitmix64 over (Seed, Attempt): same seed, same schedule — the
  // fault::Plan determinism model applied to backoff jitter.
  uint64_t X = Retry.Seed + 0x9E3779B97F4A7C15ull * (uint64_t(Attempt) + 1);
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBull;
  X ^= X >> 31;
  const uint64_t Half = Cap / 2;
  return static_cast<unsigned>(Half + X % (Cap - Half + 1));
}

Status Client::connectWithRetry(const std::string &SocketPath,
                                const RetryPolicy &Retry) {
  Status Last = Status::transient("no connection attempts allowed",
                                  "serve::Client");
  const unsigned Attempts = std::max(1u, Retry.ConnectAttempts);
  for (unsigned A = 0; A < Attempts; ++A) {
    if (A > 0)
      ::usleep(backoffDelayMs(Retry, A - 1) * 1000u);
    Last = connect(SocketPath);
    if (Last.ok())
      return Last;
    if (Last.code() != ErrorCode::Transient)
      return Last; // an Invariant (bad path) never heals by retrying
  }
  return Status::transient("connect(" + SocketPath + ") failed after " +
                               std::to_string(Attempts) +
                               " attempts: " + Last.message(),
                           "serve::Client");
}

StatusOr<Frame> Client::roundTrip(MsgType Type,
                                  const std::vector<uint8_t> &Payload) {
  if (Fd == -1)
    return Status::invariant("client is not connected", "serve::Client");
  LastRetryAfterMs = 0;
  if (Status S = writeFrame(Fd, Type, Payload); !S.ok()) {
    close(); // transport failure: the stream is unusable
    return S;
  }
  StatusOr<Frame> Reply = readFrame(Fd, kReplyTimeoutMs);
  if (!Reply.ok()) {
    close(); // EOF, read error, silence, or desynchronized stream
    return Reply.status();
  }
  if (Reply->Type == MsgType::Error) {
    Status Carried;
    uint32_t Hint = 0;
    if (Status S = decodeStatusPayload(Reply->Payload, Carried, &Hint);
        !S.ok()) {
      close();
      return S;
    }
    LastRetryAfterMs = Hint;
    return Carried;
  }
  return Reply;
}

Status Client::ping() {
  StatusOr<Frame> R = roundTrip(MsgType::Ping, {});
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::Pong)
    return Status::corrupt("expected PONG, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  return Status();
}

StatusOr<uint64_t> Client::health() {
  StatusOr<Frame> R = roundTrip(MsgType::Ping, {});
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::Pong)
    return Status::corrupt("expected PONG, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  uint64_t Epoch = 0;
  if (Status S = decodePong(R->Payload, Epoch); !S.ok())
    return S;
  return Epoch;
}

StatusOr<PongLoad> Client::serverLoad(uint64_t *EpochOut) {
  StatusOr<Frame> R = roundTrip(MsgType::Ping, {});
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::Pong)
    return Status::corrupt("expected PONG, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  uint64_t Epoch = 0;
  PongLoad Load;
  if (Status S = decodePong(R->Payload, Epoch, &Load); !S.ok())
    return S;
  if (EpochOut)
    *EpochOut = Epoch;
  return Load;
}

StatusOr<uint64_t> Client::submit(const SubmitRequest &Req) {
  StatusOr<Frame> R = roundTrip(MsgType::Submit, encodeSubmit(Req));
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::SubmitOk)
    return Status::corrupt("expected SUBMIT-OK, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  uint64_t Job = 0;
  uint32_t Cells = 0;
  if (Status S = decodeSubmitOk(R->Payload, Job, Cells); !S.ok())
    return S;
  return Job;
}

StatusOr<JobStatusReply> Client::status(uint64_t Job) {
  StatusOr<Frame> R = roundTrip(MsgType::StatusReq, encodeJobId(Job));
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::StatusReply)
    return Status::corrupt("expected STATUS-REPLY, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  JobStatusReply Reply;
  if (Status S = decodeStatusReply(R->Payload, Reply); !S.ok())
    return S;
  return Reply;
}

StatusOr<FetchReplyData> Client::fetch(uint64_t Job) {
  StatusOr<Frame> R = roundTrip(MsgType::FetchReq, encodeJobId(Job));
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::FetchReply)
    return Status::corrupt("expected FETCH-REPLY, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  FetchReplyData Reply;
  if (Status S = decodeFetchReply(R->Payload, Reply); !S.ok())
    return S;
  return Reply;
}

Status Client::ack(uint64_t Job) {
  StatusOr<Frame> R = roundTrip(MsgType::AckReq, encodeJobId(Job));
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::AckOk)
    return Status::corrupt("expected ACK-OK, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  return Status();
}

Status Client::cancel(uint64_t Job) {
  StatusOr<Frame> R = roundTrip(MsgType::CancelReq, encodeJobId(Job));
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::CancelOk)
    return Status::corrupt("expected CANCEL-OK, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  return Status();
}

Status Client::shutdownServer() {
  StatusOr<Frame> R = roundTrip(MsgType::Shutdown, {});
  if (!R.ok())
    return R.status();
  if (R->Type != MsgType::ShutdownOk)
    return Status::corrupt("expected SHUTDOWN-OK, got message type " +
                               std::to_string(static_cast<unsigned>(R->Type)),
                           "serve::Client");
  return Status();
}

StatusOr<FetchReplyData> Client::runCampaign(const SubmitRequest &Req,
                                             unsigned PollIntervalMs,
                                             const RetryPolicy &Retry) {
  if (Fd == -1)
    return Status::invariant("client is not connected", "serve::Client");

  // The resilience invariant throughout: resubmitting is ALWAYS safe,
  // because the server dedups on the request digest — at worst it answers
  // with the id of work it already owns.  The epoch only optimizes the
  // same-daemon blip (keep the job id, skip the resubmit).
  uint64_t Epoch = 0; // 0 = unknown
  if (StatusOr<uint64_t> H = health(); H.ok())
    Epoch = *H;

  uint64_t Job = 0;
  bool HaveJob = false;
  unsigned Resubmits = 0;

  while (true) {
    if (!connected()) {
      if (Status S = connectWithRetry(Path, Retry); !S.ok())
        return S;
      StatusOr<uint64_t> H = health();
      if (!H.ok()) {
        if (connected())
          return H.status();
        continue; // the daemon died again under the ping; reconnect
      }
      if (*H != Epoch)
        HaveJob = false; // restarted (or never read): resubmit idempotently
      Epoch = *H;
    }

    if (!HaveJob) {
      if (Resubmits++ >= std::max(1u, Retry.MaxResubmits))
        return Status::transient("campaign did not survive the daemon: " +
                                     std::to_string(Resubmits - 1) +
                                     " (re)submits exhausted",
                                 "serve::Client");
      StatusOr<uint64_t> JobOr = submit(Req);
      if (!JobOr.ok()) {
        if (!connected())
          continue; // transport died mid-submit; reconnect and retry
        if (JobOr.status().code() == ErrorCode::ResourceExhausted &&
            lastRetryAfterMs() != 0) {
          // Overload brownout: the shed carried a retry-after hint, so the
          // saturation is transient — back off (hint-based, deterministic
          // from the seed) and resubmit instead of giving up.  Bounded by
          // MaxResubmits like every other resubmit.
          ::usleep(backoffDelayMs(Retry, Resubmits, lastRetryAfterMs()) *
                   1000u);
          continue;
        }
        return JobOr.status(); // the server answered: a real rejection
      }
      Job = *JobOr;
      HaveJob = true;
    }

    StatusOr<JobStatusReply> S = status(Job);
    if (!S.ok()) {
      if (!connected())
        continue;
      if (S.status().code() == ErrorCode::NotFound) {
        HaveJob = false; // job evaporated (restart without durability, GC)
        continue;
      }
      return S.status();
    }
    if (S->State == JobState::Done || S->State == JobState::Cancelled) {
      StatusOr<FetchReplyData> R = fetch(Job);
      if (R.ok())
        return R;
      if (!connected())
        continue;
      if (R.status().code() == ErrorCode::NotFound) {
        HaveJob = false;
        continue;
      }
      if (R.status().code() == ErrorCode::Transient) {
        // A deduped resubmit can briefly disagree about doneness.
        ::usleep(PollIntervalMs * 1000);
        continue;
      }
      return R.status();
    }
    ::usleep(PollIntervalMs * 1000);
  }
}
