//===- serve/Protocol.cpp - Length-prefixed campaign-service protocol -----===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dmp;
using namespace dmp::serve;

namespace {

Status corrupt(std::string Msg) {
  return Status::corrupt(std::move(Msg), "serve::Protocol");
}

bool validType(uint8_t T) {
  return (T >= static_cast<uint8_t>(MsgType::Submit) &&
          T <= static_cast<uint8_t>(MsgType::AckOk)) ||
         T == static_cast<uint8_t>(MsgType::RunCell) ||
         T == static_cast<uint8_t>(MsgType::CellDone) ||
         T == static_cast<uint8_t>(MsgType::CellProgress);
}

uint32_t readU32At(const std::vector<uint8_t> &B, size_t At) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= uint32_t(B[At + I]) << (8 * I);
  return V;
}

uint64_t readU64At(const std::vector<uint8_t> &B, size_t At) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= uint64_t(B[At + I]) << (8 * I);
  return V;
}

/// Exact-match guard shared by every payload decoder.
Status finishDecode(const serialize::ByteReader &R, const char *What) {
  if (!R.ok())
    return corrupt(std::string("truncated ") + What + " payload");
  if (!R.atEnd())
    return corrupt(std::string(What) + " payload has trailing bytes");
  return Status();
}

} // namespace

std::vector<uint8_t> serve::encodeFrame(MsgType Type,
                                        const std::vector<uint8_t> &Payload) {
  serialize::ByteWriter W;
  W.writeU32(kFrameMagic);
  W.writeU32(kProtocolVersion);
  W.writeU8(static_cast<uint8_t>(Type));
  W.writeU64(Payload.size());
  W.writeBytes(Payload.data(), Payload.size());
  return W.take();
}

void FrameDecoder::feed(const void *Data, size_t Size) {
  if (Broken)
    return;
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  Buffer.insert(Buffer.end(), Bytes, Bytes + Size);
}

FrameDecoder::Outcome FrameDecoder::next(Frame &Out, Status &Err) {
  if (Broken) {
    Err = corrupt("frame stream is desynchronized");
    return Outcome::Fatal;
  }
  if (Buffer.size() < kFrameHeaderBytes)
    return Outcome::NeedMore;

  const uint32_t Magic = readU32At(Buffer, 0);
  if (Magic != kFrameMagic) {
    Broken = true;
    Err = corrupt("bad frame magic");
    return Outcome::Fatal;
  }
  const uint64_t Length = readU64At(Buffer, 9);
  if (Length > kMaxFramePayload) {
    Broken = true;
    Err = corrupt("frame payload length exceeds the protocol bound");
    return Outcome::Fatal;
  }
  if (Buffer.size() < kFrameHeaderBytes + Length)
    return Outcome::NeedMore;

  const uint32_t Version = readU32At(Buffer, 4);
  const uint8_t RawType = Buffer[8];
  Frame F;
  F.Type = static_cast<MsgType>(RawType);
  F.Payload.assign(Buffer.begin() + kFrameHeaderBytes,
                   Buffer.begin() + kFrameHeaderBytes + Length);
  Buffer.erase(Buffer.begin(),
               Buffer.begin() + kFrameHeaderBytes + Length);

  if (Version != kProtocolVersion) {
    // The frame was framed correctly, so the stream stays in sync; the
    // message itself is unusable.
    Err = corrupt("unsupported protocol version " + std::to_string(Version) +
                  " (this server speaks " +
                  std::to_string(kProtocolVersion) + ")");
    return Outcome::Skew;
  }
  if (!validType(RawType)) {
    Err = corrupt("unknown frame type " + std::to_string(RawType));
    return Outcome::Skew;
  }
  Out = std::move(F);
  return Outcome::Got;
}

Status serve::writeFrame(int Fd, MsgType Type,
                         const std::vector<uint8_t> &Payload) {
  const std::vector<uint8_t> Bytes = encodeFrame(Type, Payload);
  size_t Sent = 0;
  while (Sent < Bytes.size()) {
    const ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                             MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::transient(std::string("frame write failed: ") +
                                   std::strerror(errno),
                               "serve::Protocol");
    }
    Sent += static_cast<size_t>(N);
  }
  return Status();
}

StatusOr<Frame> serve::readFrame(int Fd, int TimeoutMs) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(std::max(TimeoutMs, 0));
  FrameDecoder Decoder;
  uint8_t Chunk[4096];
  while (true) {
    Frame F;
    Status Err;
    switch (Decoder.next(F, Err)) {
    case FrameDecoder::Outcome::Got:
      return F;
    case FrameDecoder::Outcome::Skew:
    case FrameDecoder::Outcome::Fatal:
      return Err;
    case FrameDecoder::Outcome::NeedMore:
      break;
    }
    if (TimeoutMs >= 0) {
      const long long Left =
          std::chrono::ceil<std::chrono::milliseconds>(Deadline - Clock::now())
              .count();
      pollfd P = {Fd, POLLIN, 0};
      const int Ready = ::poll(&P, 1, static_cast<int>(std::max(Left, 0LL)));
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        return Status::transient(std::string("frame poll failed: ") +
                                     std::strerror(errno),
                                 "serve::Protocol");
      }
      if (Ready == 0)
        return Status::transient("no frame within " +
                                     std::to_string(TimeoutMs) + " ms",
                                 "serve::Protocol");
    }
    const ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Status::transient(std::string("frame read failed: ") +
                                   std::strerror(errno),
                               "serve::Protocol");
    }
    if (N == 0) {
      if (Decoder.midFrame())
        return corrupt("connection closed mid-frame (truncated frame)");
      return Status::notFound("connection closed", "serve::Protocol");
    }
    Decoder.feed(Chunk, static_cast<size_t>(N));
  }
}

const char *serve::jobStateName(JobState State) {
  switch (State) {
  case JobState::Queued:
    return "queued";
  case JobState::Running:
    return "running";
  case JobState::Done:
    return "done";
  case JobState::Cancelled:
    return "cancelled";
  }
  return "unknown";
}

std::vector<uint8_t> serve::encodeSubmit(const SubmitRequest &Req) {
  serialize::ByteWriter W;
  W.writeU32(static_cast<uint32_t>(Req.Cells.size()));
  for (const harness::CellSpec &Spec : Req.Cells)
    harness::encodeCellSpec(W, Spec);
  W.writeDouble(Req.DeadlineSeconds);
  return W.take();
}

serialize::Digest serve::requestKey(const SubmitRequest &Req) {
  // The domain prefix keeps submit keys disjoint from every other SHA-256
  // use in the artifact cache; the canonical encodeSubmit bytes make the
  // key a pure function of the request contents.
  serialize::Hasher H;
  const char Domain[] = "dmp-serve-submit-v1\n";
  H.update(Domain, sizeof(Domain) - 1);
  const std::vector<uint8_t> Bytes = encodeSubmit(Req);
  H.update(Bytes.data(), Bytes.size());
  return H.finish();
}

Status serve::decodeSubmit(const std::vector<uint8_t> &Payload,
                           SubmitRequest &Req) {
  serialize::ByteReader R(Payload);
  const uint32_t Count = R.readU32();
  if (!R.ok())
    return corrupt("truncated submit payload");
  if (Count == 0)
    return corrupt("submit carries zero cells");
  if (Count > kMaxCellsPerSubmit)
    return corrupt("submit cell count exceeds the protocol bound");
  SubmitRequest Out;
  Out.Cells.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    harness::CellSpec Spec;
    if (Status S = harness::decodeCellSpec(R, Spec); !S.ok())
      return S;
    Out.Cells.push_back(std::move(Spec));
  }
  Out.DeadlineSeconds = R.readDouble();
  if (Status S = finishDecode(R, "submit"); !S.ok())
    return S;
  if (!(Out.DeadlineSeconds >= 0.0) || Out.DeadlineSeconds > 1e9)
    return corrupt("submit deadline out of range");
  Req = std::move(Out);
  return Status();
}

std::vector<uint8_t> serve::encodeSubmitOk(uint64_t Job, uint32_t Cells) {
  serialize::ByteWriter W;
  W.writeU64(Job);
  W.writeU32(Cells);
  return W.take();
}

Status serve::decodeSubmitOk(const std::vector<uint8_t> &Payload,
                             uint64_t &Job, uint32_t &Cells) {
  serialize::ByteReader R(Payload);
  Job = R.readU64();
  Cells = R.readU32();
  return finishDecode(R, "submit-ok");
}

std::vector<uint8_t> serve::encodeJobId(uint64_t Job) {
  serialize::ByteWriter W;
  W.writeU64(Job);
  return W.take();
}

Status serve::decodeJobId(const std::vector<uint8_t> &Payload,
                          uint64_t &Job) {
  serialize::ByteReader R(Payload);
  Job = R.readU64();
  return finishDecode(R, "job-id");
}

std::vector<uint8_t> serve::encodeStatusReply(const JobStatusReply &Reply) {
  serialize::ByteWriter W;
  W.writeU64(Reply.Job);
  W.writeU8(static_cast<uint8_t>(Reply.State));
  W.writeU32(Reply.Total);
  W.writeU32(Reply.Done);
  W.writeU32(Reply.Failed);
  return W.take();
}

Status serve::decodeStatusReply(const std::vector<uint8_t> &Payload,
                                JobStatusReply &Reply) {
  serialize::ByteReader R(Payload);
  JobStatusReply Out;
  Out.Job = R.readU64();
  const uint8_t State = R.readU8();
  Out.Total = R.readU32();
  Out.Done = R.readU32();
  Out.Failed = R.readU32();
  if (Status S = finishDecode(R, "status-reply"); !S.ok())
    return S;
  if (State > static_cast<uint8_t>(JobState::Cancelled))
    return corrupt("status-reply has an invalid job state");
  Out.State = static_cast<JobState>(State);
  Reply = Out;
  return Status();
}

std::vector<uint8_t> serve::encodeStatusPayload(const Status &S,
                                                uint32_t RetryAfterMs) {
  serialize::ByteWriter W;
  W.writeU8(static_cast<uint8_t>(S.code()));
  W.writeString(S.message());
  W.writeString(S.origin());
  // The brownout hint trails the base encoding and is omitted when zero,
  // so hint-free payloads are byte-identical to the pre-hint protocol.
  if (RetryAfterMs != 0)
    W.writeU32(RetryAfterMs);
  return W.take();
}

Status serve::decodeStatusPayload(const std::vector<uint8_t> &Payload,
                                  Status &S, uint32_t *RetryAfterMs) {
  serialize::ByteReader R(Payload);
  const uint8_t Code = R.readU8();
  std::string Message = R.readString();
  std::string Origin = R.readString();
  uint32_t Hint = 0;
  if (R.ok() && !R.atEnd())
    Hint = R.readU32();
  if (Status E = finishDecode(R, "status"); !E.ok())
    return E;
  if (Code == 0 ||
      Code > static_cast<uint8_t>(ErrorCode::ResourceExhausted))
    return corrupt("status payload has an invalid error code");
  S = Status::make(static_cast<ErrorCode>(Code), std::move(Message),
                   std::move(Origin));
  if (RetryAfterMs)
    *RetryAfterMs = Hint;
  return Status();
}

std::vector<uint8_t> serve::encodePong(uint64_t Epoch) {
  serialize::ByteWriter W;
  W.writeU64(Epoch);
  return W.take();
}

std::vector<uint8_t> serve::encodePong(uint64_t Epoch,
                                       const PongLoad &Load) {
  serialize::ByteWriter W;
  W.writeU64(Epoch);
  W.writeU64(Load.JobsActive);
  W.writeU64(Load.CellsRunning);
  W.writeU64(Load.JobsShed);
  W.writeU64(Load.ConnsShed);
  return W.take();
}

Status serve::decodePong(const std::vector<uint8_t> &Payload,
                         uint64_t &Epoch, PongLoad *Load, bool *HasLoad) {
  if (Load)
    *Load = PongLoad();
  if (HasLoad)
    *HasLoad = false;
  if (Payload.empty()) {
    // A pre-epoch server answers PING with an empty PONG; treat that as
    // epoch 0 ("unknown") instead of a decode failure.
    Epoch = 0;
    return Status();
  }
  serialize::ByteReader R(Payload);
  Epoch = R.readU64();
  if (R.ok() && !R.atEnd()) {
    // The load snapshot rides behind the epoch; an epoch-only payload from
    // a pre-load server decodes with HasLoad false.
    PongLoad L;
    L.JobsActive = R.readU64();
    L.CellsRunning = R.readU64();
    L.JobsShed = R.readU64();
    L.ConnsShed = R.readU64();
    if (Status S = finishDecode(R, "pong"); !S.ok())
      return S;
    if (Load)
      *Load = L;
    if (HasLoad)
      *HasLoad = true;
    return Status();
  }
  return finishDecode(R, "pong");
}

void serve::encodeCellOutcome(serialize::ByteWriter &W,
                              const StatusOr<harness::CellResult> &Outcome) {
  W.writeU8(Outcome.ok() ? 1 : 0);
  if (Outcome.ok()) {
    const std::vector<uint8_t> Blob = harness::encodeCellResult(*Outcome);
    W.writeU64(Blob.size());
    W.writeBytes(Blob.data(), Blob.size());
  } else {
    W.writeU8(static_cast<uint8_t>(Outcome.status().code()));
    W.writeString(Outcome.status().message());
    W.writeString(Outcome.status().origin());
  }
}

Status serve::decodeCellOutcome(serialize::ByteReader &R,
                                StatusOr<harness::CellResult> &Outcome) {
  const uint8_t Ok = R.readU8();
  if (!R.ok())
    return corrupt("truncated cell outcome");
  if (Ok > 1)
    return corrupt("cell outcome has an invalid ok flag");
  if (Ok) {
    const uint64_t Size = R.readU64();
    if (!R.ok() || Size > R.remaining())
      return corrupt("cell outcome result blob is truncated");
    std::vector<uint8_t> Blob(Size);
    for (uint64_t I = 0; I < Size; ++I)
      Blob[I] = R.readU8();
    harness::CellResult Result;
    if (Status S = harness::decodeCellResult(Blob, Result); !S.ok())
      return S;
    Outcome = std::move(Result);
    return Status();
  }
  const uint8_t Code = R.readU8();
  std::string Message = R.readString();
  std::string Origin = R.readString();
  if (!R.ok())
    return corrupt("truncated cell outcome status");
  if (Code == 0 ||
      Code > static_cast<uint8_t>(ErrorCode::ResourceExhausted))
    return corrupt("cell outcome has an invalid error code");
  Outcome = Status::make(static_cast<ErrorCode>(Code), std::move(Message),
                         std::move(Origin));
  return Status();
}

std::vector<uint8_t> serve::encodeFetchReply(const FetchReplyData &Reply) {
  serialize::ByteWriter W;
  W.writeU64(Reply.Job);
  W.writeU32(static_cast<uint32_t>(Reply.Cells.size()));
  for (const StatusOr<harness::CellResult> &Cell : Reply.Cells)
    encodeCellOutcome(W, Cell);
  return W.take();
}

Status serve::decodeFetchReply(const std::vector<uint8_t> &Payload,
                               FetchReplyData &Reply) {
  serialize::ByteReader R(Payload);
  FetchReplyData Out;
  Out.Job = R.readU64();
  const uint32_t Count = R.readU32();
  if (!R.ok())
    return corrupt("truncated fetch-reply payload");
  if (Count > kMaxCellsPerSubmit)
    return corrupt("fetch-reply cell count exceeds the protocol bound");
  Out.Cells.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    StatusOr<harness::CellResult> Cell;
    if (Status S = decodeCellOutcome(R, Cell); !S.ok())
      return S;
    Out.Cells.push_back(std::move(Cell));
  }
  if (Status S = finishDecode(R, "fetch-reply"); !S.ok())
    return S;
  Reply = std::move(Out);
  return Status();
}

std::vector<uint8_t> serve::encodeRunCell(uint64_t Ticket,
                                          const harness::CellSpec &Spec) {
  serialize::ByteWriter W;
  W.writeU64(Ticket);
  harness::encodeCellSpec(W, Spec);
  return W.take();
}

Status serve::decodeRunCell(const std::vector<uint8_t> &Payload,
                            uint64_t &Ticket, harness::CellSpec &Spec) {
  serialize::ByteReader R(Payload);
  Ticket = R.readU64();
  if (Status S = harness::decodeCellSpec(R, Spec); !S.ok())
    return S;
  return finishDecode(R, "run-cell");
}

std::vector<uint8_t>
serve::encodeCellDone(uint64_t Ticket,
                      const StatusOr<harness::CellResult> &Outcome) {
  serialize::ByteWriter W;
  W.writeU64(Ticket);
  encodeCellOutcome(W, Outcome);
  return W.take();
}

Status serve::decodeCellDone(const std::vector<uint8_t> &Payload,
                             uint64_t &Ticket,
                             StatusOr<harness::CellResult> &Outcome) {
  serialize::ByteReader R(Payload);
  Ticket = R.readU64();
  if (Status S = decodeCellOutcome(R, Outcome); !S.ok())
    return S;
  return finishDecode(R, "cell-done");
}

std::vector<uint8_t> serve::encodeCellProgress(uint64_t Ticket) {
  serialize::ByteWriter W;
  W.writeU64(Ticket);
  return W.take();
}

Status serve::decodeCellProgress(const std::vector<uint8_t> &Payload,
                                 uint64_t &Ticket) {
  serialize::ByteReader R(Payload);
  Ticket = R.readU64();
  return finishDecode(R, "cell-progress");
}
