//===- tests/test_serve.cpp - Campaign-service tests ----------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
// Four suites, split by what they may do (the TSan preset runs only the
// first two by name — they never fork):
//
//   ServeProtocolTest  pure codec/decoder tests: round-trips, frame fuzz
//                      (garbage, truncation, oversize, version skew), and
//                      the strict exact-match decode contract.
//   ServeInProcTest    a live server (Workers=0, no forks) on a background
//                      thread: submit/fetch digest parity with local
//                      execution, admission control, deadlines, cancel,
//                      malformed-frame survival, multi-client concurrency,
//                      drain via SHUTDOWN, submit dedup, and the
//                      fetch-until-ack result lifecycle.
//   ServeDurableTest   a live server with a cache-backed job store (still
//                      Workers=0, no forks): restart recovery from
//                      checkpoints, ack tombstones, and epoch changes —
//                      each asserting digest-identical results.
//   ServeWorkerTest    forked worker processes: socketpair-level worker
//                      conformance, SIGKILL isolation, and the
//                      DMP_SERVE_CRASH_TICKET deterministic crash-retry —
//                      each asserting digest-identical results.
//   ServeSoakTest      an env-gated (DMP_SERVE_SOAK=1) multi-client hammer
//                      for `scripts/check.sh --serve`.
//
//===----------------------------------------------------------------------===//

#include "harness/CellRun.h"
#include "serve/Client.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/WorkerPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace dmp;
using namespace dmp::serve;

namespace {

harness::CellSpec smallSpec(const std::string &Benchmark = "mcf",
                            const std::string &Algo = "all") {
  harness::CellSpec Spec;
  Spec.Benchmark = Benchmark;
  Spec.Algo = Algo;
  Spec.SimInstrs = 100'000;
  Spec.ProfileInstrs = 400'000;
  return Spec;
}

serialize::Digest localDigest(const harness::CellSpec &Spec) {
  StatusOr<harness::CellResult> R = harness::runCellSpec(Spec, nullptr);
  EXPECT_TRUE(R.ok()) << R.status().toString();
  return harness::cellResultDigest(*R);
}

std::string freshSocketPath(const std::string &Tag) {
  static std::atomic<unsigned> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("dmp-serve-" + Tag + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(Counter++) + ".sock"))
      .string();
}

std::vector<uint8_t> encodedPing() { return encodeFrame(MsgType::Ping, {}); }

/// Worker-plane read that skips CELL_PROGRESS liveness beats: the
/// socketpair conformance tests assert the CellDone contract, not the
/// heartbeat cadence (which is wall-clock-thinned and so not countable).
StatusOr<Frame> readFrameSkippingBeats(int Fd) {
  while (true) {
    StatusOr<Frame> F = readFrame(Fd);
    if (!F.ok() || F->Type != MsgType::CellProgress)
      return F;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// ServeProtocolTest — codecs and the incremental decoder (no I/O).
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, FrameRoundTrip) {
  const std::vector<uint8_t> Payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> Bytes = encodeFrame(MsgType::Submit, Payload);
  ASSERT_EQ(Bytes.size(), kFrameHeaderBytes + Payload.size());

  FrameDecoder D;
  D.feed(Bytes.data(), Bytes.size());
  Frame F;
  Status Err;
  ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::Got);
  EXPECT_EQ(F.Type, MsgType::Submit);
  EXPECT_EQ(F.Payload, Payload);
  EXPECT_EQ(D.next(F, Err), FrameDecoder::Outcome::NeedMore);
}

TEST(ServeProtocolTest, DecoderHandlesByteAtATimeDelivery) {
  const std::vector<uint8_t> Bytes = encodeFrame(MsgType::Pong, {9, 9});
  FrameDecoder D;
  Frame F;
  Status Err;
  for (size_t I = 0; I + 1 < Bytes.size(); ++I) {
    D.feed(&Bytes[I], 1);
    ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::NeedMore);
    EXPECT_TRUE(D.midFrame());
  }
  D.feed(&Bytes.back(), 1);
  ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::Got);
  EXPECT_EQ(F.Type, MsgType::Pong);
  EXPECT_FALSE(D.midFrame());
}

TEST(ServeProtocolTest, DecoderHandlesPipelinedFrames) {
  std::vector<uint8_t> Stream = encodeFrame(MsgType::Ping, {});
  const std::vector<uint8_t> Second = encodeFrame(MsgType::Shutdown, {});
  Stream.insert(Stream.end(), Second.begin(), Second.end());
  FrameDecoder D;
  D.feed(Stream.data(), Stream.size());
  Frame F;
  Status Err;
  ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::Got);
  EXPECT_EQ(F.Type, MsgType::Ping);
  ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::Got);
  EXPECT_EQ(F.Type, MsgType::Shutdown);
}

TEST(ServeProtocolTest, GarbageBytesAreFatal) {
  FrameDecoder D;
  const char Garbage[] = "GET / HTTP/1.1\r\nHost: not-a-dmp-client\r\n";
  D.feed(Garbage, sizeof(Garbage));
  Frame F;
  Status Err;
  ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::Fatal);
  EXPECT_EQ(Err.code(), ErrorCode::Corrupt);
  EXPECT_TRUE(D.fatal());
  // Fatal latches: even valid bytes afterwards cannot resynchronize.
  const std::vector<uint8_t> Valid = encodedPing();
  D.feed(Valid.data(), Valid.size());
  EXPECT_EQ(D.next(F, Err), FrameDecoder::Outcome::Fatal);
}

TEST(ServeProtocolTest, OversizedLengthIsFatal) {
  std::vector<uint8_t> Bytes = encodeFrame(MsgType::Submit, {1});
  // Corrupt the payload-length field (bytes 9..16) to 1 TiB.
  const uint64_t Huge = 1ull << 40;
  std::memcpy(Bytes.data() + 9, &Huge, sizeof(Huge));
  FrameDecoder D;
  D.feed(Bytes.data(), Bytes.size());
  Frame F;
  Status Err;
  ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::Fatal);
  EXPECT_EQ(Err.code(), ErrorCode::Corrupt);
}

TEST(ServeProtocolTest, VersionSkewIsSurvivableAndStreamRecovers) {
  std::vector<uint8_t> Skewed = encodeFrame(MsgType::Ping, {7, 7, 7});
  const uint32_t WrongVersion = kProtocolVersion + 1;
  std::memcpy(Skewed.data() + 4, &WrongVersion, sizeof(WrongVersion));
  FrameDecoder D;
  D.feed(Skewed.data(), Skewed.size());
  const std::vector<uint8_t> Valid = encodedPing();
  D.feed(Valid.data(), Valid.size());

  Frame F;
  Status Err;
  ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::Skew);
  EXPECT_EQ(Err.code(), ErrorCode::Corrupt);
  EXPECT_FALSE(D.fatal());
  // The well-framed skewed frame was consumed whole: the next frame parses.
  ASSERT_EQ(D.next(F, Err), FrameDecoder::Outcome::Got);
  EXPECT_EQ(F.Type, MsgType::Ping);
}

TEST(ServeProtocolTest, TruncatedFrameStaysMidFrame) {
  const std::vector<uint8_t> Bytes = encodeFrame(MsgType::Submit, {1, 2, 3});
  FrameDecoder D;
  D.feed(Bytes.data(), Bytes.size() - 1);
  Frame F;
  Status Err;
  EXPECT_EQ(D.next(F, Err), FrameDecoder::Outcome::NeedMore);
  EXPECT_TRUE(D.midFrame()); // an EOF here is a truncated frame
}

TEST(ServeProtocolTest, SubmitCodecRoundTrip) {
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec("mcf", "all"));
  Req.Cells.push_back(smallSpec("gzip", "freq"));
  Req.Cells[1].ProfileInput = workloads::InputSetKind::Train;
  Req.Cells[1].MaxInstr = 99;
  Req.Cells[1].MinMergeProb = 0.25;
  Req.DeadlineSeconds = 12.5;

  SubmitRequest Out;
  ASSERT_TRUE(decodeSubmit(encodeSubmit(Req), Out).ok());
  ASSERT_EQ(Out.Cells.size(), 2u);
  EXPECT_EQ(Out.Cells[0].Benchmark, "mcf");
  EXPECT_EQ(Out.Cells[1].Benchmark, "gzip");
  EXPECT_EQ(Out.Cells[1].Algo, "freq");
  EXPECT_EQ(Out.Cells[1].ProfileInput, workloads::InputSetKind::Train);
  EXPECT_EQ(Out.Cells[1].MaxInstr, 99u);
  EXPECT_DOUBLE_EQ(Out.Cells[1].MinMergeProb, 0.25);
  EXPECT_DOUBLE_EQ(Out.DeadlineSeconds, 12.5);
}

TEST(ServeProtocolTest, SubmitDecodeRejectsTrailingBytes) {
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  std::vector<uint8_t> Payload = encodeSubmit(Req);
  Payload.push_back(0);
  SubmitRequest Out;
  const Status S = decodeSubmit(Payload, Out);
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Corrupt);
}

TEST(ServeProtocolTest, SubmitDecodeRejectsTruncation) {
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  std::vector<uint8_t> Payload = encodeSubmit(Req);
  Payload.resize(Payload.size() / 2);
  SubmitRequest Out;
  EXPECT_EQ(decodeSubmit(Payload, Out).code(), ErrorCode::Corrupt);
}

TEST(ServeProtocolTest, SubmitDecodeRejectsZeroCells) {
  SubmitRequest Req; // no cells
  SubmitRequest Out;
  EXPECT_EQ(decodeSubmit(encodeSubmit(Req), Out).code(), ErrorCode::Corrupt);
}

TEST(ServeProtocolTest, StatusReplyRoundTrip) {
  JobStatusReply In;
  In.Job = 42;
  In.State = JobState::Running;
  In.Total = 10;
  In.Done = 3;
  In.Failed = 1;
  JobStatusReply Out;
  ASSERT_TRUE(decodeStatusReply(encodeStatusReply(In), Out).ok());
  EXPECT_EQ(Out.Job, 42u);
  EXPECT_EQ(Out.State, JobState::Running);
  EXPECT_EQ(Out.Total, 10u);
  EXPECT_EQ(Out.Done, 3u);
  EXPECT_EQ(Out.Failed, 1u);
}

TEST(ServeProtocolTest, StatusPayloadRoundTrip) {
  const Status In = Status::resourceExhausted("queue full", "serve::Server");
  Status Out;
  ASSERT_TRUE(decodeStatusPayload(encodeStatusPayload(In), Out).ok());
  EXPECT_EQ(Out.code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(Out.message(), "queue full");
  EXPECT_EQ(Out.origin(), "serve::Server");
}

TEST(ServeProtocolTest, FetchReplyRoundTripMixedOutcomes) {
  harness::CellResult R;
  R.Baseline.RetiredInstrs = 1000;
  R.Baseline.Cycles = 400;
  R.Dmp.RetiredInstrs = 1000;
  R.Dmp.Cycles = 300;
  R.DivergeBranches = 7;
  R.AvgCfmPoints = 1.5;

  FetchReplyData In;
  In.Job = 9;
  In.Cells.emplace_back(R);
  In.Cells.emplace_back(Status::cancelled("shed", "serve::Server"));

  FetchReplyData Out;
  ASSERT_TRUE(decodeFetchReply(encodeFetchReply(In), Out).ok());
  EXPECT_EQ(Out.Job, 9u);
  ASSERT_EQ(Out.Cells.size(), 2u);
  ASSERT_TRUE(Out.Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*Out.Cells[0]).hex(),
            harness::cellResultDigest(R).hex());
  ASSERT_FALSE(Out.Cells[1].ok());
  EXPECT_EQ(Out.Cells[1].status().code(), ErrorCode::Cancelled);
  EXPECT_EQ(Out.Cells[1].status().message(), "shed");
}

TEST(ServeProtocolTest, RunCellAndCellDoneRoundTrip) {
  const harness::CellSpec Spec = smallSpec("gcc", "cost-edge");
  uint64_t Ticket = 0;
  harness::CellSpec OutSpec;
  ASSERT_TRUE(decodeRunCell(encodeRunCell(77, Spec), Ticket, OutSpec).ok());
  EXPECT_EQ(Ticket, 77u);
  EXPECT_EQ(OutSpec.Benchmark, "gcc");
  EXPECT_EQ(OutSpec.Algo, "cost-edge");

  StatusOr<harness::CellResult> Outcome =
      Status::transient("worker crashed", "serve::WorkerPool");
  uint64_t DoneTicket = 0;
  StatusOr<harness::CellResult> OutOutcome;
  ASSERT_TRUE(
      decodeCellDone(encodeCellDone(77, Outcome), DoneTicket, OutOutcome)
          .ok());
  EXPECT_EQ(DoneTicket, 77u);
  ASSERT_FALSE(OutOutcome.ok());
  EXPECT_EQ(OutOutcome.status().code(), ErrorCode::Transient);
}

TEST(ServeProtocolTest, CellSpecValidateRejectsBadFields) {
  EXPECT_FALSE(harness::CellSpec().validate().ok()); // empty benchmark
  harness::CellSpec S = smallSpec();
  EXPECT_TRUE(S.validate().ok());
  S.MinMergeProb = 1.5;
  EXPECT_FALSE(S.validate().ok());
  S = smallSpec();
  S.SimInstrs = 0;
  EXPECT_FALSE(S.validate().ok());
  S = smallSpec();
  S.MaxInstr = 0;
  EXPECT_FALSE(S.validate().ok());
}

TEST(ServeProtocolTest, CellResultEncodingIsCanonical) {
  harness::CellResult R;
  R.Baseline.RetiredInstrs = 5;
  R.Dmp.RetiredInstrs = 5;
  R.DivergeBranches = 2;
  R.AvgCfmPoints = 0.5;
  const std::vector<uint8_t> A = harness::encodeCellResult(R);
  harness::CellResult Decoded;
  ASSERT_TRUE(harness::decodeCellResult(A, Decoded).ok());
  // Canonical: re-encoding the decoded result is byte-identical, so the
  // digest survives a wire round-trip.
  EXPECT_EQ(harness::encodeCellResult(Decoded), A);
  EXPECT_EQ(harness::cellResultDigest(Decoded).hex(),
            harness::cellResultDigest(R).hex());
}

TEST(ServeProtocolTest, RequestKeyIsDeterministicAndSensitive) {
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  Req.Cells.push_back(smallSpec("mcf", "every-br"));
  const serialize::Digest A = requestKey(Req);
  const serialize::Digest B = requestKey(Req);
  EXPECT_EQ(A.hex(), B.hex()) << "the idempotency key must be stable";
  // Any semantic change to the request changes the key.
  SubmitRequest Reordered = Req;
  std::swap(Reordered.Cells[0], Reordered.Cells[1]);
  EXPECT_NE(requestKey(Reordered).hex(), A.hex());
  SubmitRequest Deadlined = Req;
  Deadlined.DeadlineSeconds = 5.0;
  EXPECT_NE(requestKey(Deadlined).hex(), A.hex());
  SubmitRequest Shorter = Req;
  Shorter.Cells.pop_back();
  EXPECT_NE(requestKey(Shorter).hex(), A.hex());
}

TEST(ServeProtocolTest, PongPayloadRoundTripsTheEpoch) {
  const uint64_t Epoch = 0x0123456789ABCDEFull;
  uint64_t Decoded = 0;
  ASSERT_TRUE(decodePong(encodePong(Epoch), Decoded).ok());
  EXPECT_EQ(Decoded, Epoch);
  // A pre-epoch daemon sends an empty Pong: decodes as the "unknown"
  // epoch 0, not an error (backward compatibility).
  Decoded = 99;
  ASSERT_TRUE(decodePong({}, Decoded).ok());
  EXPECT_EQ(Decoded, 0u);
  // Trailing garbage is still rejected.
  std::vector<uint8_t> Long = encodePong(Epoch);
  Long.push_back(0);
  EXPECT_FALSE(decodePong(Long, Decoded).ok());
}

TEST(ServeProtocolTest, PongLoadRidesBehindTheEpoch) {
  const uint64_t Epoch = 0xFEEDFACEull;
  PongLoad In;
  In.JobsActive = 3;
  In.CellsRunning = 17;
  In.JobsShed = 5;
  In.ConnsShed = 11;

  uint64_t E = 0;
  PongLoad Out;
  bool HasLoad = false;
  ASSERT_TRUE(decodePong(encodePong(Epoch, In), E, &Out, &HasLoad).ok());
  EXPECT_EQ(E, Epoch);
  EXPECT_TRUE(HasLoad);
  EXPECT_EQ(Out.JobsActive, 3u);
  EXPECT_EQ(Out.CellsRunning, 17u);
  EXPECT_EQ(Out.JobsShed, 5u);
  EXPECT_EQ(Out.ConnsShed, 11u);

  // An epoch-only PONG (a pre-load daemon) decodes cleanly with HasLoad
  // false; an empty PONG (pre-epoch daemon) likewise.  Neither is an
  // error: the snapshot is additive, compatible in both directions.
  HasLoad = true;
  Out = PongLoad();
  ASSERT_TRUE(decodePong(encodePong(Epoch), E, &Out, &HasLoad).ok());
  EXPECT_EQ(E, Epoch);
  EXPECT_FALSE(HasLoad);
  HasLoad = true;
  ASSERT_TRUE(decodePong({}, E, &Out, &HasLoad).ok());
  EXPECT_EQ(E, 0u);
  EXPECT_FALSE(HasLoad);
  // A load-free decoder reading a load-carrying PONG also succeeds (it
  // ignores what it did not ask for); trailing garbage is still rejected.
  ASSERT_TRUE(decodePong(encodePong(Epoch, In), E).ok());
  EXPECT_EQ(E, Epoch);
  std::vector<uint8_t> Long = encodePong(Epoch, In);
  Long.push_back(0);
  EXPECT_FALSE(decodePong(Long, E, &Out, &HasLoad).ok());
}

TEST(ServeProtocolTest, CellProgressRoundTrip) {
  uint64_t Ticket = 0;
  ASSERT_TRUE(
      decodeCellProgress(encodeCellProgress(0xDEADBEEFull), Ticket).ok());
  EXPECT_EQ(Ticket, 0xDEADBEEFull);
  std::vector<uint8_t> Long = encodeCellProgress(1);
  Long.push_back(0);
  EXPECT_FALSE(decodeCellProgress(Long, Ticket).ok());
  EXPECT_FALSE(decodeCellProgress({1, 2, 3}, Ticket).ok());
}

TEST(ServeProtocolTest, StatusPayloadCarriesOptionalRetryAfter) {
  const Status In = Status::resourceExhausted("brownout", "serve::Server");
  // Hinted: the trailing u32 rides behind the Status and round-trips.
  Status Out;
  uint32_t Hint = 0;
  ASSERT_TRUE(
      decodeStatusPayload(encodeStatusPayload(In, 250), Out, &Hint).ok());
  EXPECT_EQ(Out.code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(Hint, 250u);
  // Hint-free: a pre-brownout payload decodes with hint 0.
  Hint = 99;
  ASSERT_TRUE(decodeStatusPayload(encodeStatusPayload(In), Out, &Hint).ok());
  EXPECT_EQ(Hint, 0u);
  // A hint-blind decoder (no out-param) still accepts a hinted payload.
  ASSERT_TRUE(decodeStatusPayload(encodeStatusPayload(In, 250), Out).ok());
  EXPECT_EQ(Out.message(), "brownout");
  // Encoding with hint 0 is byte-identical to the pre-hint encoding, so
  // old peers see exactly the bytes they always saw.
  EXPECT_EQ(encodeStatusPayload(In, 0), encodeStatusPayload(In));
}

TEST(ServeProtocolTest, BackoffDelayIsDeterministicAndBounded) {
  RetryPolicy Retry;
  Retry.BaseDelayMs = 10;
  Retry.MaxDelayMs = 2000;
  Retry.Seed = 42;
  for (unsigned A = 0; A < 32; ++A) {
    const unsigned D1 = Client::backoffDelayMs(Retry, A);
    const unsigned D2 = Client::backoffDelayMs(Retry, A);
    EXPECT_EQ(D1, D2) << "attempt " << A << " must replay identically";
    EXPECT_LE(D1, Retry.MaxDelayMs);
    const unsigned Cap =
        std::min<uint64_t>(uint64_t(Retry.BaseDelayMs)
                               << std::min(A, 20u),
                           Retry.MaxDelayMs);
    EXPECT_GE(D1, Cap / 2) << "jitter window is [cap/2, cap]";
  }
  // Different seeds explore different schedules (almost surely).
  RetryPolicy Other = Retry;
  Other.Seed = 43;
  bool Differs = false;
  for (unsigned A = 2; A < 16 && !Differs; ++A)
    Differs = Client::backoffDelayMs(Retry, A) !=
              Client::backoffDelayMs(Other, A);
  EXPECT_TRUE(Differs);
}

//===----------------------------------------------------------------------===//
// ServeSunPathTest — AF_UNIX path-length validation on every bind/connect.
//===----------------------------------------------------------------------===//

TEST(ServeSunPathTest, ClientConnectRejectsOverlongPath) {
  Client C;
  const std::string Long(200, 'x');
  const Status S = C.connect("/tmp/" + Long + ".sock");
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Invariant);
  EXPECT_NE(S.toString().find("sun_path"), std::string::npos)
      << "message should name the AF_UNIX limit: " << S.toString();
  EXPECT_NE(S.toString().find("too long"), std::string::npos);
}

TEST(ServeSunPathTest, ServerListenRejectsOverlongPath) {
  WorkerPoolOptions PO;
  PO.Workers = 0;
  PO.UseCache = false;
  WorkerPool Pool(PO);
  ServerOptions Opts;
  Opts.SocketPath = "/tmp/" + std::string(200, 'y') + ".sock";
  Server Srv(std::move(Opts), Pool);
  const Status S = Srv.listen();
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.code(), ErrorCode::Invariant);
  EXPECT_NE(S.toString().find("sun_path"), std::string::npos)
      << S.toString();
  EXPECT_NE(S.toString().find("too long"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ServeInProcTest — live server, no forks (TSan-safe).
//===----------------------------------------------------------------------===//

namespace {

/// A live Workers=0 server on a background thread, plus helpers to connect
/// clients and stop cleanly.
class ServeInProcTest : public ::testing::Test {
protected:
  void start(ServerOptions Extra = {}) {
    PoolOpts.Workers = 0;
    PoolOpts.UseCache = false;
    Pool = std::make_unique<WorkerPool>(PoolOpts);
    Extra.SocketPath = Socket = freshSocketPath("inproc");
    Srv = std::make_unique<Server>(std::move(Extra), *Pool, &Token);
    ASSERT_TRUE(Srv->listen().ok());
    Loop = std::thread([this] { RunResult = Srv->run(); });
  }

  void TearDown() override {
    if (Loop.joinable()) {
      Srv->requestStop();
      Loop.join();
      EXPECT_TRUE(RunResult.ok()) << RunResult.toString();
    }
    std::error_code EC;
    std::filesystem::remove(Socket, EC);
  }

  Client connected() {
    Client C;
    EXPECT_TRUE(C.connect(Socket).ok());
    return C;
  }

  WorkerPoolOptions PoolOpts;
  std::unique_ptr<WorkerPool> Pool;
  std::unique_ptr<Server> Srv;
  guard::CancelToken Token;
  std::thread Loop;
  std::string Socket;
  Status RunResult;
};

} // namespace

TEST_F(ServeInProcTest, PingPong) {
  start();
  Client C = connected();
  EXPECT_TRUE(C.ping().ok());
}

TEST_F(ServeInProcTest, SubmitFetchDigestMatchesLocalExecution) {
  start();
  Client C = connected();
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec("mcf", "all"));
  Req.Cells.push_back(smallSpec("mcf", "every-br"));
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_EQ(Reply->Cells.size(), 2u);
  for (size_t I = 0; I < 2; ++I) {
    ASSERT_TRUE(Reply->Cells[I].ok()) << Reply->Cells[I].status().toString();
    EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[I]).hex(),
              localDigest(Req.Cells[I]).hex())
        << "cell " << I << " diverged from local execution";
  }
  // The job survives the fetch until the client acks (or GC reclaims it);
  // see FetchSurvivesUntilAck below.
}

TEST_F(ServeInProcTest, UnknownJobIsNotFound) {
  start();
  Client C = connected();
  EXPECT_EQ(C.status(999).status().code(), ErrorCode::NotFound);
  EXPECT_EQ(C.fetch(999).status().code(), ErrorCode::NotFound);
  EXPECT_EQ(C.cancel(999).code(), ErrorCode::NotFound);
}

TEST_F(ServeInProcTest, FetchSurvivesUntilAck) {
  // The fetch-once protocol had a result-loss window: a reply torn in
  // transit destroyed the only copy.  Fetch is now idempotent; the job
  // lives until the client explicitly ACKs it.
  start();
  Client C = connected();
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<uint64_t> Job = C.submit(Req);
  ASSERT_TRUE(Job.ok());
  while (true) {
    StatusOr<JobStatusReply> S = C.status(*Job);
    ASSERT_TRUE(S.ok());
    if (S->State == JobState::Done)
      break;
    ::usleep(5000);
  }
  // Fetch twice: identical replies, the second models a client retrying
  // after a torn first reply.
  StatusOr<FetchReplyData> First = C.fetch(*Job);
  ASSERT_TRUE(First.ok());
  StatusOr<FetchReplyData> Second = C.fetch(*Job);
  ASSERT_TRUE(Second.ok()) << "fetch must be idempotent until acked";
  ASSERT_EQ(First->Cells.size(), Second->Cells.size());
  ASSERT_TRUE(First->Cells[0].ok());
  ASSERT_TRUE(Second->Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*First->Cells[0]).hex(),
            harness::cellResultDigest(*Second->Cells[0]).hex());
  // ACK releases the job; only then is it forgotten.
  ASSERT_TRUE(C.ack(*Job).ok());
  EXPECT_EQ(C.fetch(*Job).status().code(), ErrorCode::NotFound);
  // Re-acking a forgotten job is a no-op, not an error: the first AckOk
  // may have been lost in transit.
  EXPECT_TRUE(C.ack(*Job).ok());
}

TEST_F(ServeInProcTest, AckBeforeCompletionIsRejected) {
  start();
  Client C = connected();
  SubmitRequest Req;
  for (int I = 0; I < 8; ++I)
    Req.Cells.push_back(smallSpec("mcf", I % 2 ? "all" : "every-br"));
  StatusOr<uint64_t> Job = C.submit(Req);
  ASSERT_TRUE(Job.ok());
  // The in-process server runs one cell per loop rotation, so right after
  // SubmitOk the job cannot be finished yet: the ack must be refused and
  // the job must keep running to completion.
  EXPECT_EQ(C.ack(*Job).code(), ErrorCode::Invariant);
  while (true) {
    StatusOr<JobStatusReply> S = C.status(*Job);
    ASSERT_TRUE(S.ok());
    if (S->State == JobState::Done)
      break;
    ::usleep(2000);
  }
  EXPECT_TRUE(C.fetch(*Job).ok());
  EXPECT_TRUE(C.ack(*Job).ok());
}

TEST_F(ServeInProcTest, ResubmitDedupsOntoTheSameJob) {
  start();
  Client C = connected();
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  Req.Cells.push_back(smallSpec("mcf", "every-br"));
  StatusOr<uint64_t> First = C.submit(Req);
  ASSERT_TRUE(First.ok());
  // Identical request → same request digest → the same job, not a second
  // execution.  This is what makes client resubmission after a torn
  // SubmitOk always safe.
  StatusOr<uint64_t> Again = C.submit(Req);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(*Again, *First);
  EXPECT_GE(Srv->counters().JobsDeduped, 1u);
  // A different request is a different job.
  SubmitRequest Other;
  Other.Cells.push_back(smallSpec("gzip"));
  StatusOr<uint64_t> Different = C.submit(Other);
  ASSERT_TRUE(Different.ok());
  EXPECT_NE(*Different, *First);
}

TEST_F(ServeInProcTest, OneClientsAckKeepsADedupedJobForTheOther) {
  // Two clients submit the same cell: the second submit dedups onto the
  // first job.  The first client's ack must not drop the job the second
  // client is still waiting on.
  start();
  Client A = connected();
  Client B = connected();
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<uint64_t> JobA = A.submit(Req);
  StatusOr<uint64_t> JobB = B.submit(Req);
  ASSERT_TRUE(JobA.ok() && JobB.ok());
  ASSERT_EQ(*JobA, *JobB);
  while (true) {
    StatusOr<JobStatusReply> S = A.status(*JobA);
    ASSERT_TRUE(S.ok());
    if (S->State == JobState::Done)
      break;
    ::usleep(2000);
  }
  StatusOr<FetchReplyData> ReplyA = A.fetch(*JobA);
  ASSERT_TRUE(ReplyA.ok()) << ReplyA.status().toString();
  ASSERT_TRUE(A.ack(*JobA).ok());

  StatusOr<JobStatusReply> S = B.status(*JobB);
  ASSERT_TRUE(S.ok()) << S.status().toString();
  EXPECT_EQ(S->State, JobState::Done);
  StatusOr<FetchReplyData> ReplyB = B.fetch(*JobB);
  ASSERT_TRUE(ReplyB.ok()) << ReplyB.status().toString();
  ASSERT_TRUE(ReplyA->Cells[0].ok() && ReplyB->Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*ReplyB->Cells[0]).hex(),
            harness::cellResultDigest(*ReplyA->Cells[0]).hex());
  // The last submitter's ack releases the job.
  ASSERT_TRUE(B.ack(*JobB).ok());
  EXPECT_EQ(B.fetch(*JobB).status().code(), ErrorCode::NotFound);
}

TEST_F(ServeInProcTest, PongCarriesANonzeroEpoch) {
  start();
  Client C = connected();
  StatusOr<uint64_t> Epoch = C.health();
  ASSERT_TRUE(Epoch.ok()) << Epoch.status().toString();
  EXPECT_NE(*Epoch, 0u);
  EXPECT_EQ(*Epoch, Srv->epoch());
  // Stable across calls within one boot.
  StatusOr<uint64_t> Epoch2 = C.health();
  ASSERT_TRUE(Epoch2.ok());
  EXPECT_EQ(*Epoch2, *Epoch);
}

TEST_F(ServeInProcTest, OversizedJobIsResourceExhausted) {
  ServerOptions Opts;
  Opts.MaxCellsPerJob = 2;
  start(Opts);
  Client C = connected();
  SubmitRequest Req;
  for (int I = 0; I < 3; ++I)
    Req.Cells.push_back(smallSpec());
  EXPECT_EQ(C.submit(Req).status().code(), ErrorCode::ResourceExhausted);
  // Rejection is not an error on the connection: a legal submit follows.
  Req.Cells.resize(2);
  EXPECT_TRUE(C.submit(Req).ok());
}

TEST_F(ServeInProcTest, ExpiredDeadlineShedsPendingCells) {
  start();
  Client C = connected();
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  Req.Cells.push_back(smallSpec("gzip"));
  // Already expired by the time the server's loop sees it: every cell is
  // shed before dispatch (expiry runs before the dispatch pass).
  Req.DeadlineSeconds = 1e-9;
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_EQ(Reply->Cells.size(), 2u);
  for (const auto &Cell : Reply->Cells) {
    ASSERT_FALSE(Cell.ok());
    EXPECT_EQ(Cell.status().code(), ErrorCode::ResourceExhausted);
  }
}

TEST_F(ServeInProcTest, MalformedSubmitPayloadKeepsConnectionUsable) {
  start();
  Client C = connected();
  // Well-framed SUBMIT whose payload is garbage: Error(Corrupt), and the
  // same connection then serves a valid request.
  ASSERT_TRUE(
      writeFrame(C.fd(), MsgType::Submit, {0xde, 0xad, 0xbe, 0xef}).ok());
  StatusOr<Frame> Reply = readFrame(C.fd());
  ASSERT_TRUE(Reply.ok());
  ASSERT_EQ(Reply->Type, MsgType::Error);
  Status Carried;
  ASSERT_TRUE(decodeStatusPayload(Reply->Payload, Carried).ok());
  EXPECT_EQ(Carried.code(), ErrorCode::Corrupt);
  EXPECT_TRUE(C.ping().ok());
}

TEST_F(ServeInProcTest, VersionSkewKeepsConnectionUsable) {
  start();
  Client C = connected();
  std::vector<uint8_t> Skewed = encodeFrame(MsgType::Ping, {});
  const uint32_t WrongVersion = kProtocolVersion + 7;
  std::memcpy(Skewed.data() + 4, &WrongVersion, sizeof(WrongVersion));
  ssize_t N = ::send(C.fd(), Skewed.data(), Skewed.size(), MSG_NOSIGNAL);
  ASSERT_EQ(N, static_cast<ssize_t>(Skewed.size()));
  StatusOr<Frame> Reply = readFrame(C.fd());
  ASSERT_TRUE(Reply.ok());
  EXPECT_EQ(Reply->Type, MsgType::Error);
  EXPECT_TRUE(C.ping().ok());
}

TEST_F(ServeInProcTest, GarbageClosesOnlyThatConnection) {
  start();
  Client Bad = connected();
  Client Good = connected();
  const char Garbage[] = "\x01\x02not a frame at all and quite long\x03\x04";
  ASSERT_GT(::send(Bad.fd(), Garbage, sizeof(Garbage), MSG_NOSIGNAL), 0);
  // The server sends a last-words Error frame and closes the bad conn.
  StatusOr<Frame> LastWords = readFrame(Bad.fd());
  if (LastWords.ok()) {
    EXPECT_EQ(LastWords->Type, MsgType::Error);
  }
  StatusOr<Frame> AfterClose = readFrame(Bad.fd());
  EXPECT_FALSE(AfterClose.ok()); // connection is gone
  // The other client is untouched — and the server still works.
  EXPECT_TRUE(Good.ping().ok());
  EXPECT_GE(Srv->counters().ProtocolErrors, 1u);
}

TEST_F(ServeInProcTest, UnexpectedTypeIsRejectedWithoutClosing) {
  start();
  Client C = connected();
  // CellDone is worker-plane traffic; from a client it is a well-framed
  // protocol violation, answered but survivable.
  StatusOr<Frame> Reply = C.roundTrip(MsgType::CellDone, {});
  ASSERT_FALSE(Reply.ok());
  EXPECT_EQ(Reply.status().code(), ErrorCode::Corrupt);
  EXPECT_TRUE(C.ping().ok());
}

TEST_F(ServeInProcTest, CancelledJobReportsCancelledCells) {
  start();
  Client C = connected();
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<uint64_t> Job = C.submit(Req);
  ASSERT_TRUE(Job.ok());
  // The cell may already have run (in-process execution is immediate); both
  // cancel-before-run and cancel-after-run must succeed, and fetch must
  // return either the computed result or the shed status.
  ASSERT_TRUE(C.cancel(*Job).ok());
  while (true) {
    StatusOr<JobStatusReply> S = C.status(*Job);
    ASSERT_TRUE(S.ok());
    if (S->State == JobState::Done || S->State == JobState::Cancelled)
      break;
    ::usleep(5000);
  }
  StatusOr<FetchReplyData> Reply = C.fetch(*Job);
  ASSERT_TRUE(Reply.ok());
  ASSERT_EQ(Reply->Cells.size(), 1u);
  if (!Reply->Cells[0].ok()) {
    EXPECT_EQ(Reply->Cells[0].status().code(), ErrorCode::Cancelled);
  }
}

TEST_F(ServeInProcTest, ConcurrentClientsGetConsistentDigests) {
  start();
  const serialize::Digest Expected = localDigest(smallSpec());
  constexpr int kClients = 4;
  std::vector<std::thread> Threads;
  std::vector<std::string> Digests(kClients);
  std::vector<std::string> Failures(kClients);
  for (int I = 0; I < kClients; ++I)
    Threads.emplace_back([this, I, &Digests, &Failures] {
      Client C;
      if (Status S = C.connect(Socket); !S.ok()) {
        Failures[I] = S.toString();
        return;
      }
      SubmitRequest Req;
      Req.Cells.push_back(smallSpec());
      StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
      if (!Reply.ok()) {
        Failures[I] = Reply.status().toString();
        return;
      }
      if (!Reply->Cells[0].ok()) {
        Failures[I] = Reply->Cells[0].status().toString();
        return;
      }
      Digests[I] = harness::cellResultDigest(*Reply->Cells[0]).hex();
    });
  for (auto &T : Threads)
    T.join();
  for (int I = 0; I < kClients; ++I) {
    EXPECT_EQ(Failures[I], "") << "client " << I;
    EXPECT_EQ(Digests[I], Expected.hex()) << "client " << I;
  }
}

TEST_F(ServeInProcTest, CancelLandsBetweenCellsOfARunningJob) {
  // In-process mode runs one cell per event-loop rotation, so a CANCEL
  // arriving while a multi-cell job is mid-run must shed the still-pending
  // cells instead of waiting for the whole job to finish first.
  start();
  Client C = connected();
  SubmitRequest Req;
  for (int I = 0; I < 16; ++I)
    Req.Cells.push_back(smallSpec("mcf", I % 2 ? "all" : "every-br"));
  StatusOr<uint64_t> Job = C.submit(Req);
  ASSERT_TRUE(Job.ok()) << Job.status().toString();

  // Wait until the job is visibly mid-run: at least one cell finished.
  // The status round-trips themselves prove the loop answers clients
  // between cells.
  while (true) {
    StatusOr<JobStatusReply> S = C.status(*Job);
    ASSERT_TRUE(S.ok()) << S.status().toString();
    if (S->Done + S->Failed >= 1)
      break;
  }
  ASSERT_TRUE(C.cancel(*Job).ok());

  while (true) {
    StatusOr<JobStatusReply> S = C.status(*Job);
    ASSERT_TRUE(S.ok()) << S.status().toString();
    if (S->State == JobState::Cancelled || S->State == JobState::Done)
      break;
    ::usleep(1000);
  }
  StatusOr<FetchReplyData> Reply = C.fetch(*Job);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_EQ(Reply->Cells.size(), Req.Cells.size());
  size_t Ran = 0, Shed = 0;
  for (const StatusOr<harness::CellResult> &Cell : Reply->Cells) {
    if (Cell.ok())
      ++Ran;
    else if (Cell.status().code() == ErrorCode::Cancelled)
      ++Shed;
  }
  EXPECT_GE(Ran, 1u) << "cancel should land after at least one cell ran";
  EXPECT_GE(Shed, 1u) << "cancel mid-job must shed still-pending cells";
  EXPECT_EQ(Ran + Shed, Req.Cells.size());
}

TEST_F(ServeInProcTest, ShutdownFrameDrainsTheServer) {
  start();
  Client C = connected();
  EXPECT_TRUE(C.shutdownServer().ok());
  Loop.join();
  EXPECT_TRUE(RunResult.ok()) << RunResult.toString();
  // A fresh connect must now fail: the socket is gone.
  Client After;
  EXPECT_FALSE(After.connect(Socket).ok());
}

TEST_F(ServeInProcTest, SubmitDuringDrainIsRejected) {
  start();
  Client C = connected();
  ASSERT_TRUE(C.shutdownServer().ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  // The drained server may still flush replies on live conns, but must not
  // accept new work; depending on timing the conn may already be closed.
  StatusOr<uint64_t> Job = C.submit(Req);
  EXPECT_FALSE(Job.ok());
  Loop.join();
  EXPECT_TRUE(RunResult.ok());
}

//===----------------------------------------------------------------------===//
// ServeDurableTest — cache-backed job store, restart recovery (no forks).
//===----------------------------------------------------------------------===//

namespace {

/// A live Workers=0 server whose jobs checkpoint into a per-test cache
/// directory, with helpers to stop one daemon "boot" and start the next
/// against the same socket and store — the in-process analogue of
/// SIGKILL-and-restart (a checkpoint is only ever trusted if it would also
/// survive a kill; the fork-based chaos matrix covers the kill itself).
class ServeDurableTest : public ::testing::Test {
protected:
  void SetUp() override {
    CacheDir = (std::filesystem::temp_directory_path() /
                ("dmp-serve-store-" + std::to_string(::getpid()) + "-" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
    std::filesystem::remove_all(CacheDir);
    Socket = freshSocketPath("durable");
  }

  void TearDown() override {
    stopServer();
    std::error_code EC;
    std::filesystem::remove(Socket, EC);
    std::filesystem::remove_all(CacheDir, EC);
  }

  void startServer(ServerOptions Extra = {}) {
    PoolOpts.Workers = 0;
    PoolOpts.UseCache = true;
    PoolOpts.CacheDir = CacheDir;
    Pool = std::make_unique<WorkerPool>(PoolOpts);
    Extra.SocketPath = Socket;
    Srv = std::make_unique<Server>(std::move(Extra), *Pool, &Token);
    ASSERT_TRUE(Srv->listen().ok());
    Loop = std::thread([this] { RunResult = Srv->run(); });
  }

  void stopServer() {
    if (Loop.joinable()) {
      Srv->requestStop();
      Loop.join();
      EXPECT_TRUE(RunResult.ok()) << RunResult.toString();
    }
    Srv.reset();
    Pool.reset();
  }

  Client connected() {
    Client C;
    EXPECT_TRUE(C.connect(Socket).ok());
    return C;
  }

  WorkerPoolOptions PoolOpts;
  std::unique_ptr<WorkerPool> Pool;
  std::unique_ptr<Server> Srv;
  guard::CancelToken Token;
  std::thread Loop;
  std::string Socket;
  std::string CacheDir;
  Status RunResult;
};

} // namespace

TEST_F(ServeDurableTest, RestartResumesFromCheckpointWithIdenticalDigests) {
  SubmitRequest Req;
  for (const char *Algo : {"all", "freq", "every-br", "short"})
    Req.Cells.push_back(smallSpec("mcf", Algo));

  startServer();
  const uint64_t EpochA = Srv->epoch();
  {
    Client C = connected();
    StatusOr<uint64_t> Job = C.submit(Req);
    ASSERT_TRUE(Job.ok()) << Job.status().toString();
    // Let at least one cell finish (and checkpoint) before the "crash",
    // so the second boot demonstrably resumes rather than restarts.
    while (true) {
      StatusOr<JobStatusReply> S = C.status(*Job);
      ASSERT_TRUE(S.ok()) << S.status().toString();
      if (S->Done >= 1)
        break;
      ::usleep(1000);
    }
  }
  // Boot two: same socket, same store.  The drain in stopServer() finishes
  // in-flight cells but the job is still unfetched — recovery must pick it
  // up from its checkpoint.
  stopServer();
  startServer();
  EXPECT_EQ(Srv->counters().JobsRecovered, 1u);
  EXPECT_GE(Srv->counters().CellsResumed, 1u)
      << "at least the checkpointed cell must be resumed, not re-run";
  EXPECT_NE(Srv->epoch(), EpochA) << "each boot draws a fresh epoch";

  // The client does not know the recovered job's new id; resubmitting the
  // identical request dedups onto it (this is the client's restart ritual).
  Client C = connected();
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_EQ(Reply->Cells.size(), Req.Cells.size());
  for (size_t I = 0; I < Req.Cells.size(); ++I) {
    ASSERT_TRUE(Reply->Cells[I].ok()) << Reply->Cells[I].status().toString();
    EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[I]).hex(),
              localDigest(Req.Cells[I]).hex())
        << "cell " << I << " digest changed across the restart";
  }
  EXPECT_GE(Srv->counters().JobsDeduped, 1u)
      << "the resubmit must dedup onto the recovered job";
}

TEST_F(ServeDurableTest, FinishedUnfetchedJobSurvivesRestart) {
  // The post-completion-pre-fetch window: daemon finishes the job, dies
  // before the client fetches.  The results must still be there.
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  startServer();
  {
    Client C = connected();
    StatusOr<uint64_t> Job = C.submit(Req);
    ASSERT_TRUE(Job.ok());
    while (true) {
      StatusOr<JobStatusReply> S = C.status(*Job);
      ASSERT_TRUE(S.ok());
      if (S->State == JobState::Done)
        break;
      ::usleep(1000);
    }
  }
  stopServer();
  startServer();
  EXPECT_EQ(Srv->counters().JobsRecovered, 1u);
  // Everything was checkpointed: recovery resumes the job with all cells
  // already done, so no cell is ever dispatched again.
  Client C = connected();
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex());
  EXPECT_EQ(Srv->counters().CellsDispatched, 0u)
      << "a fully-checkpointed job must not re-run any cell";
}

TEST_F(ServeDurableTest, AckedJobIsNotResumedAfterRestart) {
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  startServer();
  {
    Client C = connected();
    StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
    ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
    ASSERT_TRUE(C.ack(Reply->Job).ok());
  }
  stopServer();
  startServer();
  // The ack wrote a tombstone: the job is complete business, not an
  // orphan to resurrect.
  EXPECT_EQ(Srv->counters().JobsRecovered, 0u);
  // And a resubmit of the same request is a fresh run (served from the
  // artifact cache, so still digest-identical — but a new job).
  Client C = connected();
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok());
  ASSERT_TRUE(Reply->Cells[0].ok());
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex());
}

TEST_F(ServeDurableTest, NonDurableServerForgetsAcrossRestart) {
  // --no-durable restores the pre-recovery contract: a restart forgets.
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  ServerOptions Opts;
  Opts.DurableJobs = false;
  startServer(Opts);
  {
    Client C = connected();
    StatusOr<uint64_t> Job = C.submit(Req);
    ASSERT_TRUE(Job.ok());
    while (true) {
      StatusOr<JobStatusReply> S = C.status(*Job);
      ASSERT_TRUE(S.ok());
      if (S->State == JobState::Done)
        break;
      ::usleep(1000);
    }
  }
  stopServer();
  ServerOptions Opts2;
  Opts2.DurableJobs = false;
  startServer(Opts2);
  EXPECT_EQ(Srv->counters().JobsRecovered, 0u);
  EXPECT_EQ(Srv->counters().Checkpoints, 0u);
}

//===----------------------------------------------------------------------===//
// ServeWorkerTest — forked worker processes (excluded from the TSan run).
//===----------------------------------------------------------------------===//

namespace {

class ServeWorkerTest : public ::testing::Test {
protected:
  void start(unsigned Workers, ServerOptions Extra = {}) {
    PoolOpts.Workers = Workers;
    PoolOpts.UseCache = false;
    Pool = std::make_unique<WorkerPool>(PoolOpts);
    ASSERT_EQ(Pool->size(), Workers);
    Extra.SocketPath = Socket = freshSocketPath("worker");
    Srv = std::make_unique<Server>(std::move(Extra), *Pool, &Token);
    ASSERT_TRUE(Srv->listen().ok());
    Loop = std::thread([this] { RunResult = Srv->run(); });
  }

  void TearDown() override {
    ::unsetenv("DMP_SERVE_CRASH_TICKET");
    ::unsetenv("DMP_SERVE_EXIT_AFTER_TICKET");
    ::unsetenv("DMP_SERVE_KILL_ON_DISPATCH_TICKET");
    if (Loop.joinable()) {
      Srv->requestStop();
      Loop.join();
      EXPECT_TRUE(RunResult.ok()) << RunResult.toString();
    }
    Srv.reset();
    Pool.reset();
    std::error_code EC;
    std::filesystem::remove(Socket, EC);
  }

  WorkerPoolOptions PoolOpts;
  std::unique_ptr<WorkerPool> Pool;
  std::unique_ptr<Server> Srv;
  guard::CancelToken Token;
  std::thread Loop;
  std::string Socket;
  Status RunResult;
};

} // namespace

TEST_F(ServeWorkerTest, WorkerExecutesCellOverSocketpair) {
  // Drive one worker process directly, without a server: the worker plane
  // of the protocol is testable in isolation.
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  const pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::close(Pair[0]);
    WorkerPool::workerMain(Pair[1], "", false);
  }
  ::close(Pair[1]);

  const harness::CellSpec Spec = smallSpec();
  ASSERT_TRUE(
      writeFrame(Pair[0], MsgType::RunCell, encodeRunCell(5, Spec)).ok());
  // The receipt heartbeat precedes any computation: the first frame back
  // is a CELL_PROGRESS beat carrying the dispatched ticket.
  StatusOr<Frame> Beat = readFrame(Pair[0]);
  ASSERT_TRUE(Beat.ok()) << Beat.status().toString();
  ASSERT_EQ(Beat->Type, MsgType::CellProgress);
  uint64_t BeatTicket = 0;
  ASSERT_TRUE(decodeCellProgress(Beat->Payload, BeatTicket).ok());
  EXPECT_EQ(BeatTicket, 5u);
  StatusOr<Frame> Done = readFrameSkippingBeats(Pair[0]);
  ASSERT_TRUE(Done.ok()) << Done.status().toString();
  ASSERT_EQ(Done->Type, MsgType::CellDone);
  uint64_t Ticket = 0;
  StatusOr<harness::CellResult> Outcome;
  ASSERT_TRUE(decodeCellDone(Done->Payload, Ticket, Outcome).ok());
  EXPECT_EQ(Ticket, 5u);
  ASSERT_TRUE(Outcome.ok()) << Outcome.status().toString();
  EXPECT_EQ(harness::cellResultDigest(*Outcome).hex(),
            localDigest(Spec).hex());

  ::close(Pair[0]); // EOF: the worker exits 0
  int WStatus = 0;
  ASSERT_EQ(::waitpid(Pid, &WStatus, 0), Pid);
  EXPECT_TRUE(WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0);
}

TEST_F(ServeWorkerTest, WorkerRejectsMalformedSpecWithoutDying) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  const pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ::close(Pair[0]);
    WorkerPool::workerMain(Pair[1], "", false);
  }
  ::close(Pair[1]);

  ASSERT_TRUE(writeFrame(Pair[0], MsgType::RunCell, {1, 2, 3}).ok());
  StatusOr<Frame> Done = readFrameSkippingBeats(Pair[0]);
  ASSERT_TRUE(Done.ok());
  uint64_t Ticket = 0;
  StatusOr<harness::CellResult> Outcome;
  ASSERT_TRUE(decodeCellDone(Done->Payload, Ticket, Outcome).ok());
  EXPECT_FALSE(Outcome.ok());
  // Still alive: a valid cell right after completes.
  ASSERT_TRUE(writeFrame(Pair[0], MsgType::RunCell,
                         encodeRunCell(6, smallSpec()))
                  .ok());
  StatusOr<Frame> Second = readFrameSkippingBeats(Pair[0]);
  EXPECT_TRUE(Second.ok());
  ::close(Pair[0]);
  ::waitpid(Pid, nullptr, 0);
}

TEST_F(ServeWorkerTest, SigkilledWorkerIsIsolatedAndRetried) {
  start(2);
  Client C;
  ASSERT_TRUE(C.connect(Socket).ok());
  SubmitRequest Req;
  for (const char *Algo : {"all", "freq", "every-br", "short"})
    Req.Cells.push_back(smallSpec("mcf", Algo));

  StatusOr<uint64_t> Job = C.submit(Req);
  ASSERT_TRUE(Job.ok()) << Job.status().toString();
  // Kill one worker while the campaign runs (or idles — either way the
  // supervisor must absorb the death without the job noticing).
  const std::vector<pid_t> Pids = Pool->pids();
  ASSERT_FALSE(Pids.empty());
  ASSERT_EQ(::kill(Pids[0], SIGKILL), 0);

  while (true) {
    StatusOr<JobStatusReply> S = C.status(*Job);
    ASSERT_TRUE(S.ok()) << S.status().toString();
    if (S->State == JobState::Done)
      break;
    ::usleep(5000);
  }
  StatusOr<FetchReplyData> Reply = C.fetch(*Job);
  ASSERT_TRUE(Reply.ok());
  ASSERT_EQ(Reply->Cells.size(), Req.Cells.size());
  for (size_t I = 0; I < Req.Cells.size(); ++I) {
    ASSERT_TRUE(Reply->Cells[I].ok()) << Reply->Cells[I].status().toString();
    EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[I]).hex(),
              localDigest(Req.Cells[I]).hex())
        << "cell " << I << " digest changed across the worker kill";
  }
  EXPECT_GE(Srv->counters().WorkerCrashes, 1u);
}

TEST_F(ServeWorkerTest, CrashTicketRetryIsDigestIdentical) {
  // Deterministic mid-cell crash: the worker holding ticket 0 dies the
  // moment it receives it; the retry draws a fresh ticket and completes.
  ASSERT_EQ(::setenv("DMP_SERVE_CRASH_TICKET", "0", 1), 0);
  start(2);
  Client C;
  ASSERT_TRUE(C.connect(Socket).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok()) << Reply->Cells[0].status().toString();
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex());
  const Server::Counters Ctr = Srv->counters();
  EXPECT_GE(Ctr.WorkerCrashes, 1u);
  EXPECT_GE(Ctr.CellsRetried, 1u);
}

TEST_F(ServeWorkerTest, DeathUnderDispatchWriteIsRetriedAndDrainable) {
  // The worker is killed and reaped immediately before the supervisor
  // writes RunCell for ticket 0, so the dispatch write itself fails
  // (EPIPE) and the pool never records the ticket.  The supervisor must
  // undo its own bookkeeping: the cell returns to Pending, is retried on
  // the respawned worker, and the drain in TearDown completes (a cell
  // leaked in Running would make the job unfinishable and hang shutdown).
  ASSERT_EQ(::setenv("DMP_SERVE_KILL_ON_DISPATCH_TICKET", "0", 1), 0);
  start(1);
  Client C;
  ASSERT_TRUE(C.connect(Socket).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_EQ(Reply->Cells.size(), 1u);
  ASSERT_TRUE(Reply->Cells[0].ok()) << Reply->Cells[0].status().toString();
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex());
  const Server::Counters Ctr = Srv->counters();
  EXPECT_GE(Ctr.WorkerCrashes, 1u);
  EXPECT_GE(Ctr.CellsRetried, 1u);
}

TEST_F(ServeWorkerTest, ResultFlushedBeforeWorkerDeathIsNotRecomputed) {
  // The worker flushes ticket 0's CellDone and then dies: the supervisor
  // may see the result bytes and the EOF in the same readable event, and
  // must parse the buffered frames before reaping the corpse — the
  // finished result counts, nothing is recomputed.
  ASSERT_EQ(::setenv("DMP_SERVE_EXIT_AFTER_TICKET", "0", 1), 0);
  start(1);
  Client C;
  ASSERT_TRUE(C.connect(Socket).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_TRUE(Reply->Cells[0].ok()) << Reply->Cells[0].status().toString();
  EXPECT_EQ(harness::cellResultDigest(*Reply->Cells[0]).hex(),
            localDigest(Req.Cells[0]).hex());
  // The worker's death is noticed asynchronously; wait for the reap.
  for (int I = 0; I < 2000 && Srv->counters().WorkerCrashes == 0; ++I)
    ::usleep(1000);
  const Server::Counters Ctr = Srv->counters();
  EXPECT_GE(Ctr.WorkerCrashes, 1u);
  EXPECT_EQ(Ctr.CellsRetried, 0u) << "flushed result must not be recomputed";
  EXPECT_EQ(Ctr.CellsCompleted, 1u);
}

TEST_F(ServeWorkerTest, RepeatedCrashExhaustsAttemptsWithoutHanging) {
  // Every attempt redispatches... but the crash hook keys on ticket 0 only,
  // so to exhaust attempts the job must be the sole work item and the env
  // must name each successive ticket.  Instead, bound attempts at 1 and let
  // the single crash consume the budget: the cell must fail cleanly.
  ASSERT_EQ(::setenv("DMP_SERVE_CRASH_TICKET", "0", 1), 0);
  ServerOptions Opts;
  Opts.CellAttempts = 1;
  start(1, Opts);
  Client C;
  ASSERT_TRUE(C.connect(Socket).ok());
  SubmitRequest Req;
  Req.Cells.push_back(smallSpec());
  StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
  ASSERT_TRUE(Reply.ok()) << Reply.status().toString();
  ASSERT_EQ(Reply->Cells.size(), 1u);
  ASSERT_FALSE(Reply->Cells[0].ok());
  EXPECT_EQ(Reply->Cells[0].status().code(), ErrorCode::Transient);
}

//===----------------------------------------------------------------------===//
// ServeSoakTest — env-gated hammer (scripts/check.sh --serve).
//===----------------------------------------------------------------------===//

TEST(ServeSoakTest, MultiClientHammerKeepsDigestsStable) {
  const char *Gate = std::getenv("DMP_SERVE_SOAK");
  if (!Gate || std::string(Gate) != "1")
    GTEST_SKIP() << "set DMP_SERVE_SOAK=1 to run the soak";

  WorkerPoolOptions PoolOpts;
  PoolOpts.Workers = 3;
  PoolOpts.UseCache = false;
  WorkerPool Pool(PoolOpts);
  guard::CancelToken Token;
  ServerOptions Opts;
  Opts.SocketPath = freshSocketPath("soak");
  Server Srv(std::move(Opts), Pool, &Token);
  ASSERT_TRUE(Srv.listen().ok());
  Status RunResult;
  std::thread Loop([&] { RunResult = Srv.run(); });

  const serialize::Digest Expected = localDigest(smallSpec());
  constexpr int kClients = 6, kRounds = 5;
  std::vector<std::thread> Threads;
  std::atomic<int> Mismatches{0}, Errors{0};
  for (int I = 0; I < kClients; ++I)
    Threads.emplace_back([&, I] {
      for (int Round = 0; Round < kRounds; ++Round) {
        Client C;
        if (!C.connect(Srv.options().SocketPath).ok()) {
          ++Errors;
          continue;
        }
        // Odd clients interleave malformed traffic on a throwaway conn
        // to stress the Corrupt paths while campaigns run.
        if (I % 2 == 1) {
          Client Fuzz;
          if (Fuzz.connect(Srv.options().SocketPath).ok()) {
            const char Junk[] = "junk junk junk junk";
            (void)::send(Fuzz.fd(), Junk, sizeof(Junk), MSG_NOSIGNAL);
          }
        }
        SubmitRequest Req;
        Req.Cells.push_back(smallSpec());
        StatusOr<FetchReplyData> Reply = C.runCampaign(Req);
        if (!Reply.ok() || !Reply->Cells[0].ok()) {
          ++Errors;
          continue;
        }
        if (harness::cellResultDigest(*Reply->Cells[0]).hex() !=
            Expected.hex())
          ++Mismatches;
      }
    });
  for (auto &T : Threads)
    T.join();
  Srv.requestStop();
  Loop.join();
  EXPECT_TRUE(RunResult.ok()) << RunResult.toString();
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_EQ(Errors.load(), 0);
  std::error_code EC;
  std::filesystem::remove(Srv.options().SocketPath, EC);
}
