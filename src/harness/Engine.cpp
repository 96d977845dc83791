//===- harness/Engine.cpp - Parallel experiment engine --------------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "harness/Engine.h"

#include "support/ExitCodes.h"
#include "support/StringUtils.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace dmp;
using namespace dmp::harness;

std::string EngineOptions::defaultCacheDir() {
  if (const char *Env = std::getenv("DMP_CACHE_DIR"))
    if (*Env)
      return Env;
  return ".dmp-cache";
}

void EngineOptions::printUsage(const char *Prog, std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: %s [--jobs N] [--cache-dir DIR] [--no-cache] "
      "[--journal NAME]\n"
      "          [--deadline SEC] [--cell-instr-budget N] "
      "[--cache-budget BYTES] [--limit-benches N]\n"
      "  --jobs N             worker threads for the experiment matrix "
      "(default: hardware threads)\n"
      "  --cache-dir DIR      artifact cache location (default: "
      "$DMP_CACHE_DIR or .dmp-cache)\n"
      "  --no-cache           recompute everything; do not read or "
      "write the artifact cache\n"
      "  --journal NAME       checkpoint completed cells under campaign "
      "NAME and resume them on rerun\n"
      "  --deadline SEC       stop launching cells after SEC seconds; "
      "unfinished cells render as gaps\n"
      "  --cell-instr-budget N abort any cell still simulating after N "
      "retired instructions (ResourceExhausted)\n"
      "  --cache-budget BYTES evict oldest cache blobs down to BYTES "
      "after the run (journals are kept)\n"
      "  --limit-benches N    run only the first N suite benchmarks\n"
      "exit codes: 0 ok, 1 failure, 2 usage, 130 interrupted "
      "(checkpoint flushed; rerun with --journal to resume)\n",
      Prog);
}

namespace {

/// Parses "--flag=V" or "--flag V"; advances \p I past a consumed separate
/// value.  Returns nullptr when \p Arg is not \p Flag.
const char *flagValue(const char *Flag, int &I, int Argc, char **Argv) {
  const char *Arg = Argv[I];
  const size_t FlagLen = std::strlen(Flag);
  if (std::strncmp(Arg, Flag, FlagLen) != 0)
    return nullptr;
  if (Arg[FlagLen] == '=')
    return Arg + FlagLen + 1;
  if (Arg[FlagLen] == '\0' && I + 1 < Argc)
    return Argv[++I];
  return nullptr;
}

} // namespace

EngineOptions EngineOptions::parseOrExit(int Argc, char **Argv) {
  EngineOptions Opts;
  auto UsageError = [&](const char *Fmt, const char *What) {
    std::fprintf(stderr, Fmt, What);
    printUsage(Argv[0], stderr);
    std::exit(exitcode::Usage);
  };
  auto ParseU64 = [&](const char *Flag, const char *V, uint64_t Min,
                      uint64_t Max) -> uint64_t {
    uint64_t N = 0;
    if (!parseU64(V, N) || N < Min || N > Max) {
      std::fprintf(stderr, "error: invalid %s value '%s'\n", Flag, V);
      printUsage(Argv[0], stderr);
      std::exit(exitcode::Usage);
    }
    return N;
  };
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      printUsage(Argv[0], stdout);
      std::exit(exitcode::Ok);
    }
    if (std::strcmp(Arg, "--no-cache") == 0) {
      Opts.UseCache = false;
      continue;
    }
    if (const char *V = flagValue("--jobs", I, Argc, Argv)) {
      Opts.Jobs = static_cast<unsigned>(ParseU64("--jobs", V, 1, 1024));
      continue;
    }
    if (const char *V = flagValue("--cache-dir", I, Argc, Argv)) {
      Opts.CacheDir = V;
      continue;
    }
    if (const char *V = flagValue("--journal", I, Argc, Argv)) {
      Opts.Journal = V;
      continue;
    }
    if (const char *V = flagValue("--deadline", I, Argc, Argv)) {
      double Sec = 0.0;
      if (!parseF64(V, Sec) || !(Sec > 0.0))
        UsageError("error: invalid --deadline value '%s'\n", V);
      Opts.DeadlineSeconds = Sec;
      continue;
    }
    if (const char *V = flagValue("--cell-instr-budget", I, Argc, Argv)) {
      Opts.CellInstrBudget =
          ParseU64("--cell-instr-budget", V, 1, ~0ULL);
      continue;
    }
    if (const char *V = flagValue("--cache-budget", I, Argc, Argv)) {
      Opts.CacheBudgetBytes = ParseU64("--cache-budget", V, 0, ~0ULL);
      continue;
    }
    if (const char *V = flagValue("--limit-benches", I, Argc, Argv)) {
      Opts.LimitBenches =
          static_cast<size_t>(ParseU64("--limit-benches", V, 1, 1 << 20));
      continue;
    }
    UsageError("error: unknown option '%s'\n", Arg);
  }
  return Opts;
}

const CellCodec<double> &dmp::harness::doubleCellCodec() {
  static const CellCodec<double> Codec{
      [](const double &Value) {
        uint64_t Bits = 0;
        static_assert(sizeof(Bits) == sizeof(Value));
        std::memcpy(&Bits, &Value, sizeof(Bits));
        std::vector<uint8_t> Bytes(8);
        for (size_t I = 0; I < 8; ++I)
          Bytes[I] = static_cast<uint8_t>(Bits >> (8 * I));
        return Bytes;
      },
      [](const std::vector<uint8_t> &Bytes) -> StatusOr<double> {
        if (Bytes.size() != 8)
          return Status::corrupt("journaled double cell is not 8 bytes",
                                 "harness::CellCodec");
        uint64_t Bits = 0;
        for (size_t I = 0; I < 8; ++I)
          Bits |= static_cast<uint64_t>(Bytes[I]) << (8 * I);
        double Value = 0.0;
        std::memcpy(&Value, &Bits, sizeof(Value));
        return Value;
      }};
  return Codec;
}

ExperimentEngine::ExperimentEngine(ExperimentOptions Options,
                                   const EngineOptions &Engine)
    : Options(std::move(Options)), Pool(Engine.Jobs),
      CellRetries(Engine.CellRetries), JournalName(Engine.Journal),
      Drain(Engine.DrainToken ? Engine.DrainToken : &guard::processToken()),
      CacheBudgetBytes(Engine.CacheBudgetBytes),
      Faults(this->Options.Faults) {
  if (Engine.CellInstrBudget)
    this->Options.Sim.WatchdogInstrBudget = Engine.CellInstrBudget;
  // The deadline is a hard stop: its trip is also visible to the
  // simulator inner loop, so a cell that is mid-flight when the clock
  // runs out aborts at its next poll instead of running to completion.
  this->Options.Sim.Cancel = &DeadlineToken;
  if (Engine.DeadlineSeconds > 0.0)
    Watchdog = std::make_unique<guard::DeadlineWatchdog>(
        guard::Deadline(Engine.DeadlineSeconds), DeadlineToken);
  if (const char *Env = std::getenv("DMP_TEST_RAISE_SIGINT_AFTER_CELLS"))
    RaiseSigintAfterCells = std::strtoull(Env, nullptr, 10);
  if (Engine.UseCache && !this->Options.Cache)
    this->Options.Cache =
        std::make_shared<serialize::ArtifactCache>(Engine.CacheDir);
  if (!Engine.UseCache)
    this->Options.Cache.reset();
  if (this->Options.Cache && Faults)
    this->Options.Cache->setFaultInjector(Faults.get());
}

Status ExperimentEngine::cancelStatus() const {
  if (Drain && Drain->cancelled())
    return Drain->status();
  return DeadlineToken.status();
}

Status ExperimentEngine::flushJournals() {
  std::lock_guard<std::mutex> Lock(JournalsMutex);
  Status First;
  for (auto &[Name, Journal] : Journals) {
    const Status S = Journal->flush();
    if (!S.ok() && First.ok())
      First = S;
  }
  return First;
}

uint64_t ExperimentEngine::evictCacheToBudget() {
  if (!Options.Cache || CacheBudgetBytes == 0)
    return 0;
  std::vector<serialize::Digest> Protect;
  {
    std::lock_guard<std::mutex> Lock(JournalsMutex);
    for (const auto &[Name, Journal] : Journals)
      Protect.push_back(Journal->key());
  }
  return Options.Cache->evictToBudget(CacheBudgetBytes, Protect);
}

CampaignJournal *
ExperimentEngine::journalFor(const std::string &MatrixName,
                             const serialize::Digest &ParamsKey,
                             size_t Benchmarks, size_t Configs) {
  if (JournalName.empty() || !Options.Cache)
    return nullptr;
  std::lock_guard<std::mutex> Lock(JournalsMutex);
  auto It = Journals.find(MatrixName);
  if (It == Journals.end())
    It = Journals
             .emplace(MatrixName,
                      std::make_unique<CampaignJournal>(
                          Options.Cache, JournalName + "/" + MatrixName,
                          ParamsKey, Benchmarks, Configs))
             .first;
  return It->second.get();
}

BenchContext &ExperimentEngine::contextFor(const workloads::BenchmarkSpec &Spec) {
  {
    std::lock_guard<std::mutex> Lock(ContextsMutex);
    auto It = Contexts.find(Spec.Name);
    if (It != Contexts.end())
      return *It->second;
  }
  // Build outside the lock so different benchmarks prepare concurrently.
  auto Fresh = std::make_unique<BenchContext>(Spec, Options);
  std::lock_guard<std::mutex> Lock(ContextsMutex);
  auto [It, Inserted] = Contexts.emplace(Spec.Name, std::move(Fresh));
  return *It->second;
}

RNG ExperimentEngine::cellRng(const workloads::BenchmarkSpec &Spec,
                              size_t Config) {
  // Two rounds of forking decorrelate the per-cell streams from the
  // workload builder's own use of Spec.Seed.
  RNG Base(Spec.Seed ^ 0xD1B54A32D192ED03ULL);
  RNG Mixer(Base.next() + 0x9E3779B97F4A7C15ULL * (Config + 1));
  return Mixer.fork();
}

void ExperimentEngine::noteComputed() {
  bool Raise = false;
  {
    std::lock_guard<std::mutex> Lock(CampaignMutex);
    ++Campaign.CellsComputed;
    if (RaiseSigintAfterCells &&
        Campaign.CellsComputed >= RaiseSigintAfterCells &&
        !SigintRaised.exchange(true))
      Raise = true;
  }
  // Deterministic-interrupt test hook: deliver the real signal so the
  // whole handler -> token -> drain -> exit-130 path is exercised.
  if (Raise)
    std::raise(SIGINT);
}

void ExperimentEngine::noteCancelled() {
  std::lock_guard<std::mutex> Lock(CampaignMutex);
  ++Campaign.CellsCancelled;
}

void ExperimentEngine::noteRetry() {
  std::lock_guard<std::mutex> Lock(CampaignMutex);
  ++Campaign.TransientRetries;
}

void ExperimentEngine::noteResumed() {
  std::lock_guard<std::mutex> Lock(CampaignMutex);
  ++Campaign.CellsResumed;
}

void ExperimentEngine::noteFailure(const std::string &Bench, size_t Config,
                                   const Status &S) {
  std::lock_guard<std::mutex> Lock(CampaignMutex);
  ++Campaign.CellsFailed;
  Campaign.Failures.push_back(Bench + "/" + std::to_string(Config) + ": " +
                              S.toString());
}

CampaignCounters ExperimentEngine::campaign() const {
  std::lock_guard<std::mutex> Lock(CampaignMutex);
  return Campaign;
}

std::string ExperimentEngine::statsLine() const {
  const CampaignCounters Counters = campaign();
  char Line[768];
  if (const serialize::ArtifactCache *C = Options.Cache.get()) {
    std::snprintf(
        Line, sizeof(Line),
        "jobs=%u cache=%s hits=%llu misses=%llu stores=%llu corrupt=%llu "
        "store-failures=%llu orphans-reaped=%llu evicted=%llu "
        "lock-contention=%llu retries=%llu failed-cells=%llu "
        "cancelled=%llu resumed=%llu",
        Pool.threadCount(), C->dir().c_str(),
        static_cast<unsigned long long>(C->hits()),
        static_cast<unsigned long long>(C->misses()),
        static_cast<unsigned long long>(C->stores()),
        static_cast<unsigned long long>(C->corruptDeletes()),
        static_cast<unsigned long long>(C->failedStores()),
        static_cast<unsigned long long>(C->orphansReaped()),
        static_cast<unsigned long long>(C->evictions()),
        static_cast<unsigned long long>(C->lockContention()),
        static_cast<unsigned long long>(Counters.TransientRetries),
        static_cast<unsigned long long>(Counters.CellsFailed),
        static_cast<unsigned long long>(Counters.CellsCancelled),
        static_cast<unsigned long long>(Counters.CellsResumed));
  } else {
    std::snprintf(
        Line, sizeof(Line),
        "jobs=%u cache=off retries=%llu failed-cells=%llu cancelled=%llu "
        "resumed=%llu",
        Pool.threadCount(),
        static_cast<unsigned long long>(Counters.TransientRetries),
        static_cast<unsigned long long>(Counters.CellsFailed),
        static_cast<unsigned long long>(Counters.CellsCancelled),
        static_cast<unsigned long long>(Counters.CellsResumed));
  }
  return Line;
}

std::string ExperimentEngine::failureLines() const {
  const CampaignCounters Counters = campaign();
  std::string Out;
  for (const std::string &Line : Counters.Failures) {
    Out += "  failed cell ";
    Out += Line;
    Out += '\n';
  }
  return Out;
}

std::vector<workloads::BenchmarkSpec>
harness::limitSuite(const std::vector<workloads::BenchmarkSpec> &Suite,
                    const EngineOptions &Engine) {
  if (Engine.LimitBenches == 0 || Engine.LimitBenches >= Suite.size())
    return Suite;
  return {Suite.begin(),
          Suite.begin() + static_cast<ptrdiff_t>(Engine.LimitBenches)};
}

int harness::finishDriver(ExperimentEngine &Engine) {
  // Make the checkpoint durable before reporting: everything the partial
  // report shows as done must be resumable.
  Engine.flushJournals();
  Engine.evictCacheToBudget();
  std::fprintf(stderr, "[engine] %s\n", Engine.statsLine().c_str());
  std::fprintf(stderr, "%s", Engine.failureLines().c_str());
  if (guard::interrupted()) {
    std::fprintf(stderr,
                 "[guard] interrupted: results above are partial; rerun "
                 "with --journal to resume completed cells\n");
    return exitcode::Interrupted;
  }
  return exitcode::Ok;
}
