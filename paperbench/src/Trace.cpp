//===- paperbench/src/Trace.cpp - In-memory span recorder -----------------===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <cstdio>

namespace paperbench {

namespace {

/// Open spans of the calling thread, innermost last (parent tracking).
thread_local std::vector<size_t> OpenSpans;

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{0};
  thread_local const uint32_t Index = Next.fetch_add(1);
  return Index;
}

} // namespace

Tracer::Tracer() : Origin(std::chrono::steady_clock::now()) {}

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

size_t Tracer::begin(const char *Name, int64_t Cell) {
  const int64_t Parent =
      OpenSpans.empty() ? -1 : static_cast<int64_t>(OpenSpans.back());
  const int64_t Start = nowNs();
  size_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Id = Spans.size();
    Spans.push_back({Name, Start, Start, Parent, Cell, threadIndex()});
  }
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::end(size_t Id) {
  const int64_t End = nowNs();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans[Id].EndNs = End;
}

void Tracer::count(const std::string &Name, double Value) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Counts[Name] += Value;
}

std::vector<Tracer::SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

std::map<std::string, double> Tracer::counts() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<SpanRec> All = spans();
  std::vector<int64_t> ChildNs(All.size(), 0);
  for (const SpanRec &S : All)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I < All.size(); ++I) {
    Totals &T = Out[All[I].Name];
    const int64_t Dur = All[I].EndNs - All[I].StartNs;
    T.Ms += double(Dur) / 1e6;
    T.SelfMs += double(Dur - ChildNs[I]) / 1e6;
  }
  return Out;
}

double Tracer::rootSeconds() const {
  double Ns = 0.0;
  for (const SpanRec &S : spans())
    if (S.Parent < 0)
      Ns += double(S.EndNs - S.StartNs);
  return Ns / 1e9;
}

std::string Tracer::chromeJson(size_t MaxSpans) const {
  std::vector<SpanRec> All = spans();
  if (All.size() > MaxSpans)
    All.resize(MaxSpans);
  std::string Out = "{\"traceEvents\":[\n";
  char Buf[256];
  for (size_t I = 0; I < All.size(); ++I) {
    const SpanRec &S = All[I];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"cell\":%lld}}%s\n",
                  S.Name, S.Thread, double(S.StartNs) / 1e3,
                  double(S.EndNs - S.StartNs) / 1e3, I,
                  static_cast<long long>(S.Parent),
                  static_cast<long long>(S.Cell),
                  I + 1 < All.size() ? "," : "");
    Out += Buf;
  }
  return Out + "],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace paperbench
