//===- chaos/HostileClient.cpp - Deterministic adversarial client ---------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "chaos/HostileClient.h"

#include "serve/Protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <vector>

using namespace dmp;
using namespace dmp::serve;

namespace {

uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBull;
  X ^= X >> 31;
  return X;
}

/// A well-formed, accept-able SUBMIT payload varied by \p Salt so the
/// request digest differs per op — the storm must defeat idempotent dedup
/// to actually pressure admission control.
std::vector<uint8_t> stormSubmit(uint64_t Salt) {
  harness::CellSpec Spec;
  Spec.Benchmark = "mcf";
  Spec.Algo = "all";
  // Tiny but valid budgets: the point is the submit rate, not the work.
  Spec.SimInstrs = 1'000 + (Salt % 251);
  Spec.ProfileInstrs = 4'000 + (Salt / 251 % 251);
  SubmitRequest Req;
  Req.Cells.push_back(Spec);
  return encodeSubmit(Req);
}

} // namespace

const char *dmp::serve::hostileAttackName(HostileAttack Kind) {
  switch (Kind) {
  case HostileAttack::HalfOpen:
    return "half-open";
  case HostileAttack::DripHeader:
    return "drip-header";
  case HostileAttack::NeverRead:
    return "never-read";
  case HostileAttack::SubmitStorm:
    return "submit-storm";
  }
  return "unknown";
}

HostileClient::HostileClient(std::string TargetPath, HostilePlan Plan)
    : TargetPath(std::move(TargetPath)), Plan(Plan) {}

HostileClient::~HostileClient() { stop(); }

uint64_t HostileClient::mix(const HostilePlan &Plan, uint64_t Site,
                            uint64_t Op) {
  return mix64(Plan.Seed * 0x9E3779B97F4A7C15ull + mix64(Site + 0x100) +
               mix64(Op + 0x10000));
}

Status HostileClient::start() {
  if (Running)
    return Status::invariant("hostile client already started",
                             "serve::HostileClient");
  if (::pipe(StopPipe) != 0)
    return Status::transient(std::string("pipe(): ") + std::strerror(errno),
                             "serve::HostileClient");
  Running = true;
  Attacker = std::thread([this] { run(); });
  return Status();
}

void HostileClient::stop() {
  if (!Running)
    return;
  const uint8_t Byte = 1;
  [[maybe_unused]] ssize_t N = ::write(StopPipe[1], &Byte, 1);
  Attacker.join();
  Running = false;
  ::close(StopPipe[0]);
  ::close(StopPipe[1]);
  StopPipe[0] = StopPipe[1] = -1;
}

void HostileClient::run() {
  struct Slot {
    int Fd = -1;
    uint64_t Site = 0; ///< connection serial: the determinism site
    uint64_t Op = 0;   ///< per-connection op counter
    std::vector<uint8_t> Drip; ///< DripHeader: the frame being dribbled
    size_t DripAt = 0;
  };
  std::vector<Slot> Slots(std::max(1u, Plan.Connections));
  uint64_t NextSite = 0;

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, TargetPath.c_str(),
              std::min(TargetPath.size() + 1, sizeof(Addr.sun_path)));

  const std::vector<uint8_t> PingFrame = encodeFrame(MsgType::Ping, {});

  auto Recycle = [](Slot &S) {
    if (S.Fd != -1)
      ::close(S.Fd);
    S.Fd = -1;
    S.Op = 0;
    S.Drip.clear();
    S.DripAt = 0;
  };

  // Best-effort nonblocking send of one whole buffer.  Partial sends and
  // EAGAIN are fine for an attacker (the bytes that made it still poke the
  // server); a hard error means the daemon dropped us — the caller
  // recycles the slot and that is the defense working.
  auto TrySend = [](int Fd, const uint8_t *Data, size_t N) -> bool {
    size_t Sent = 0;
    while (Sent < N) {
      const ssize_t W =
          ::send(Fd, Data + Sent, N - Sent, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      Sent += static_cast<size_t>(W);
    }
    return true;
  };

  while (true) {
    // One pacing tick, interruptible by stop().
    pollfd StopP = {StopPipe[0], POLLIN, 0};
    const int TickMs = std::max(1u, Plan.PaceUs / 1000u);
    if (::poll(&StopP, 1, TickMs) < 0 && errno != EINTR)
      break;
    if (StopP.revents & POLLIN)
      break;

    for (Slot &S : Slots) {
      // (Re)connect a free slot.  Refusals are routine under attack — the
      // accept cap or a full backlog is the daemon defending itself.
      if (S.Fd == -1) {
        const int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
        if (Fd < 0)
          continue;
        if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)) != 0) {
          ::close(Fd);
          continue;
        }
        S.Fd = Fd;
        S.Site = NextSite++;
        S.Op = 0;
        Connects.fetch_add(1, std::memory_order_relaxed);
        if (Plan.Kind == HostileAttack::DripHeader) {
          S.Drip = encodeFrame(MsgType::Submit,
                               stormSubmit(mix(Plan, S.Site, 0)));
          S.DripAt = 0;
        }
        if (Plan.Kind == HostileAttack::HalfOpen &&
            (mix(Plan, S.Site, 0) & 1)) {
          // Half the sites send the first magic byte, parking the server
          // mid-frame; the others squat in the pre-frame idle state.
          const uint8_t First = static_cast<uint8_t>(kFrameMagic & 0xFF);
          (void)TrySend(S.Fd, &First, 1);
        }
        continue; // first attack op on the next tick
      }

      // Detect the daemon having dropped us (shed, deadline, hygiene):
      // attackers never read, so closure shows up as readable-EOF/RST.
      uint8_t Peek;
      const ssize_t P = ::recv(S.Fd, &Peek, 1, MSG_PEEK | MSG_DONTWAIT);
      if (P == 0 || (P < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        Recycle(S);
        continue;
      }

      switch (Plan.Kind) {
      case HostileAttack::HalfOpen:
        // Hold in silence.  The slot only recycles when the daemon sheds
        // it (detected above), which keeps the connect pressure on.
        break;

      case HostileAttack::DripHeader: {
        // Slowloris: one byte per tick, so the frame takes
        // Drip.size() * PaceUs to complete — far beyond any sane read
        // deadline.
        if (S.DripAt < S.Drip.size()) {
          if (!TrySend(S.Fd, &S.Drip[S.DripAt], 1)) {
            Recycle(S);
            break;
          }
          ++S.DripAt;
          Ops.fetch_add(1, std::memory_order_relaxed);
        }
        if (++S.Op >= Plan.OpsPerConn || S.DripAt >= S.Drip.size())
          Recycle(S);
        break;
      }

      case HostileAttack::NeverRead: {
        // Flood PINGs and never read a PONG: replies pile up in the
        // kernel buffer first, then in the server's outbound queue until
        // its write budget drops us.  A burst per tick keeps the flood
        // ahead of the tick granularity.
        bool Dead = false;
        for (unsigned B = 0; B < 16 && !Dead; ++B) {
          if (!TrySend(S.Fd, PingFrame.data(), PingFrame.size())) {
            Dead = true;
            break;
          }
          Ops.fetch_add(1, std::memory_order_relaxed);
        }
        if (Dead || ++S.Op >= Plan.OpsPerConn)
          Recycle(S);
        break;
      }

      case HostileAttack::SubmitStorm: {
        // Well-formed, dedup-proof submits.  Replies are drained and
        // discarded so the storm pressures admission control, not the
        // write budget.
        const std::vector<uint8_t> F = encodeFrame(
            MsgType::Submit, stormSubmit(mix(Plan, S.Site, S.Op)));
        if (!TrySend(S.Fd, F.data(), F.size())) {
          Recycle(S);
          break;
        }
        Ops.fetch_add(1, std::memory_order_relaxed);
        uint8_t Sink[4096];
        while (::recv(S.Fd, Sink, sizeof(Sink), MSG_DONTWAIT) > 0)
          ;
        if (++S.Op >= Plan.OpsPerConn)
          Recycle(S);
        break;
      }
      }
    }
  }

  for (Slot &S : Slots)
    Recycle(S);
}
