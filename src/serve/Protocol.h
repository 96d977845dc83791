//===- serve/Protocol.h - Length-prefixed campaign-service protocol -*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the dmp::serve campaign service (DESIGN.md
/// "Service architecture").  Every message is one frame:
///
///   +--------+---------+------+-------------+-----------------+
///   | magic  | version | type | payload len | payload bytes   |
///   | u32 LE | u32 LE  | u8   | u64 LE      | (len bytes)     |
///   +--------+---------+------+-------------+-----------------+
///
/// The same framing carries both planes: client <-> server (SUBMIT /
/// STATUS / FETCH-RESULTS / CANCEL / SHUTDOWN / PING over the Unix
/// socket) and supervisor <-> worker (RUN-CELL / CELL-DONE over each
/// worker's socketpair).
///
/// Robustness contract (pinned by the frame-fuzz tests): malformed input
/// is *data*, never a crash.  The incremental FrameDecoder classifies
/// every defect:
///
///  - a well-framed message with a wrong version (Skew), an unknown type,
///    or an undecodable payload is answered with an Error(Corrupt) frame
///    and the connection stays usable — the stream is still in sync;
///  - a bad magic or an oversized length desynchronizes the byte stream
///    (Fatal): the server answers Error(Corrupt) and closes that
///    connection, and only that connection;
///  - a stream that ends mid-frame is a truncated frame (Corrupt on the
///    blocking readFrame path; the poll loop simply drops the peer).
///
/// Payload codecs build on serialize::ByteStream and reject trailing
/// bytes, so every decoder is exact-match strict.
///
//===----------------------------------------------------------------------===//

#ifndef DMP_SERVE_PROTOCOL_H
#define DMP_SERVE_PROTOCOL_H

#include "harness/CellRun.h"
#include "serialize/ByteStream.h"
#include "serialize/Hash.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dmp::serve {

/// "DMPS" in little-endian byte order on the wire.
constexpr uint32_t kFrameMagic = 0x53504D44;
/// Bump on any incompatible frame or payload change; decoders reject other
/// versions with a clean Corrupt (the version-skew path), never a misparse.
constexpr uint32_t kProtocolVersion = 1;
/// Hard payload bound: anything larger is a desynchronized or hostile
/// stream, not a plausible campaign message.
constexpr uint64_t kMaxFramePayload = 16ull << 20;
/// magic u32 + version u32 + type u8 + payload-length u64.
constexpr size_t kFrameHeaderBytes = 17;
/// Protocol-level bound on cells per SUBMIT (the server's admission
/// control applies its own, configurable, lower bound).
constexpr uint32_t kMaxCellsPerSubmit = 4096;

/// Frame types.  Client-plane types are < 32; worker-plane types >= 32.
enum class MsgType : uint8_t {
  Submit = 1,      ///< client -> server: SubmitRequest
  SubmitOk = 2,    ///< server -> client: u64 job id, u32 cell count
  StatusReq = 3,   ///< client -> server: u64 job id
  StatusReply = 4, ///< server -> client: JobStatusReply
  FetchReq = 5,    ///< client -> server: u64 job id
  FetchReply = 6,  ///< server -> client: FetchReplyData
  CancelReq = 7,   ///< client -> server: u64 job id
  CancelOk = 8,    ///< server -> client: u64 job id
  Shutdown = 9,    ///< client -> server: empty (graceful drain request)
  ShutdownOk = 10, ///< server -> client: empty
  Error = 11,      ///< server -> client: an encoded Status
  Ping = 12,       ///< client -> server: empty
  Pong = 13,       ///< server -> client: u64 per-boot server epoch
  AckReq = 14,     ///< client -> server: u64 job id (results consumed)
  AckOk = 15,      ///< server -> client: u64 job id (always, idempotent)

  RunCell = 32,      ///< supervisor -> worker: u64 ticket + CellSpec
  CellDone = 33,     ///< worker -> supervisor: u64 ticket + Status/CellResult
  CellProgress = 34, ///< worker -> supervisor: u64 ticket (liveness beat)
};

struct Frame {
  MsgType Type = MsgType::Error;
  std::vector<uint8_t> Payload;
};

/// One frame, ready to write.
std::vector<uint8_t> encodeFrame(MsgType Type,
                                 const std::vector<uint8_t> &Payload);

/// Incremental frame parser for the non-blocking server loop.  feed()
/// appends raw bytes; next() pulls at most one classified frame.
class FrameDecoder {
public:
  enum class Outcome {
    NeedMore, ///< no complete frame buffered yet
    Got,      ///< a valid frame was produced
    Skew,     ///< well-framed, wrong protocol version; frame was skipped
              ///< and the stream is still in sync
    Fatal,    ///< bad magic or oversized length: stream unrecoverable
  };

  void feed(const void *Data, size_t Size);

  /// Pulls the next frame.  After Fatal, every later call returns Fatal.
  /// \p Err carries the Corrupt diagnostic for Skew and Fatal.
  Outcome next(Frame &Out, Status &Err);

  bool fatal() const { return Broken; }
  /// True when bytes of an incomplete frame are buffered (an EOF here is a
  /// truncated frame, not a clean close).
  bool midFrame() const { return !Broken && !Buffer.empty(); }

private:
  std::vector<uint8_t> Buffer;
  bool Broken = false;
};

// --- Blocking I/O helpers (client library and worker loop) --------------

/// Writes one frame, handling EINTR and partial writes; uses MSG_NOSIGNAL
/// so a dead peer is a Transient Status, not a SIGPIPE.
Status writeFrame(int Fd, MsgType Type, const std::vector<uint8_t> &Payload);

/// Blocks until one full frame arrives.  NotFound on a clean EOF at a
/// frame boundary, Corrupt on a truncated/garbled stream, Transient on
/// read errors.  \p TimeoutMs >= 0 bounds the wait for the whole frame:
/// each recv is preceded by a poll for the time left, and a frame that has
/// not fully arrived by then is Transient (a silent peer, not an error the
/// stream carries).  Negative waits forever.
StatusOr<Frame> readFrame(int Fd, int TimeoutMs = -1);

// --- Payload codecs -----------------------------------------------------
// Every decoder is exact-match strict: trailing bytes are Corrupt.

struct SubmitRequest {
  std::vector<harness::CellSpec> Cells;
  /// Per-job wall-clock budget in seconds; 0 = none.  At expiry the
  /// server sheds the job's still-pending cells as ResourceExhausted.
  double DeadlineSeconds = 0.0;
};

enum class JobState : uint8_t { Queued = 0, Running = 1, Done = 2,
                                Cancelled = 3 };

/// Stable lowercase name ("queued", "running", "done", "cancelled").
const char *jobStateName(JobState State);

struct JobStatusReply {
  uint64_t Job = 0;
  JobState State = JobState::Queued;
  uint32_t Total = 0;
  uint32_t Done = 0;
  uint32_t Failed = 0;
};

struct FetchReplyData {
  uint64_t Job = 0;
  /// Per-cell outcome in submit order: a CellResult, or the Status the
  /// cell failed/was shed with.
  std::vector<StatusOr<harness::CellResult>> Cells;
};

std::vector<uint8_t> encodeSubmit(const SubmitRequest &Req);
Status decodeSubmit(const std::vector<uint8_t> &Payload, SubmitRequest &Req);

/// Deterministic idempotency key of a SubmitRequest: SHA-256 over a domain
/// prefix plus the canonical encodeSubmit bytes.  Two byte-identical
/// requests always map to the same key, across processes and restarts; the
/// server dedups resubmits onto the live job and the durable job store
/// files its record blob under this digest.
serialize::Digest requestKey(const SubmitRequest &Req);

std::vector<uint8_t> encodeSubmitOk(uint64_t Job, uint32_t Cells);
Status decodeSubmitOk(const std::vector<uint8_t> &Payload, uint64_t &Job,
                      uint32_t &Cells);

std::vector<uint8_t> encodeJobId(uint64_t Job);
Status decodeJobId(const std::vector<uint8_t> &Payload, uint64_t &Job);

std::vector<uint8_t> encodeStatusReply(const JobStatusReply &Reply);
Status decodeStatusReply(const std::vector<uint8_t> &Payload,
                         JobStatusReply &Reply);

std::vector<uint8_t> encodeFetchReply(const FetchReplyData &Reply);
Status decodeFetchReply(const std::vector<uint8_t> &Payload,
                        FetchReplyData &Reply);

/// Status travels as code + message + origin, optionally followed by a
/// trailing retry-after-ms u32 (the overload brownout hint; see DESIGN.md
/// "Liveness & overload").  The hint is appended only when nonzero, and a
/// decoder reading a hint-free payload reports 0 — both directions stay
/// compatible with pre-hint peers.
std::vector<uint8_t> encodeStatusPayload(const Status &S,
                                         uint32_t RetryAfterMs = 0);
Status decodeStatusPayload(const std::vector<uint8_t> &Payload, Status &S,
                           uint32_t *RetryAfterMs = nullptr);

/// Daemon load snapshot carried behind the PONG epoch: the minimal health
/// probe a client (or the liveness tests) needs to see saturation without
/// a privileged interface.
struct PongLoad {
  uint64_t JobsActive = 0;   ///< queued or running jobs
  uint64_t CellsRunning = 0; ///< cells dispatched and in flight
  uint64_t JobsShed = 0;     ///< submits rejected by admission control
  uint64_t ConnsShed = 0;    ///< connections dropped by hygiene limits
};

/// PONG carries the server's per-boot epoch so a reconnecting client can
/// tell a connection blip (same epoch: in-memory job ids still valid) from
/// a daemon restart (new epoch: resubmit through the idempotency key).  An
/// empty payload decodes as epoch 0 for pre-epoch peers; the load snapshot
/// rides behind the epoch, and an epoch-only payload decodes with
/// \p HasLoad false so pre-load peers stay compatible.
std::vector<uint8_t> encodePong(uint64_t Epoch);
std::vector<uint8_t> encodePong(uint64_t Epoch, const PongLoad &Load);
Status decodePong(const std::vector<uint8_t> &Payload, uint64_t &Epoch,
                  PongLoad *Load = nullptr, bool *HasLoad = nullptr);

/// One cell outcome (ok flag, then a length-prefixed CellResult or an
/// inline Status).  Shared by CellDone, FetchReply and the durable job
/// store's record blobs.
void encodeCellOutcome(serialize::ByteWriter &W,
                       const StatusOr<harness::CellResult> &Outcome);
Status decodeCellOutcome(serialize::ByteReader &R,
                         StatusOr<harness::CellResult> &Outcome);

std::vector<uint8_t> encodeRunCell(uint64_t Ticket,
                                   const harness::CellSpec &Spec);
Status decodeRunCell(const std::vector<uint8_t> &Payload, uint64_t &Ticket,
                     harness::CellSpec &Spec);

std::vector<uint8_t>
encodeCellDone(uint64_t Ticket,
               const StatusOr<harness::CellResult> &Outcome);
Status decodeCellDone(const std::vector<uint8_t> &Payload, uint64_t &Ticket,
                      StatusOr<harness::CellResult> &Outcome);

/// CELL_PROGRESS: a worker's liveness beat while a RUN_CELL computes,
/// emitted from the DmpCore cancel-poll cadence.  The supervisor's
/// hung-worker watchdog (`--cell-wall-ms`) measures silence between beats.
std::vector<uint8_t> encodeCellProgress(uint64_t Ticket);
Status decodeCellProgress(const std::vector<uint8_t> &Payload,
                          uint64_t &Ticket);

} // namespace dmp::serve

#endif // DMP_SERVE_PROTOCOL_H
