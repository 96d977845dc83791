//===- paperbench/src/Trace.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the dmp-dpred project (CGO 2007 DMP compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer: name,
/// start, end, the enclosing span on the same thread, and the cell the work
/// belongs to.  Counts are added at the same boundaries.  Everything stays
/// in memory until the run ends; a null Tracer pointer records nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PAPERBENCH_TRACE_H
#define PAPERBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace paperbench {

class Tracer {
public:
  struct SpanRec {
    const char *Name; ///< A string literal.
    int64_t StartNs;
    int64_t EndNs;
    int64_t Parent; ///< Index of the enclosing span, -1 for a root.
    int64_t Cell;   ///< Cell id, -1 outside any cell.
    uint32_t Thread;
  };

  Tracer();

  /// Opens a span on the calling thread and returns its index.
  size_t begin(const char *Name, int64_t Cell);
  void end(size_t Id);

  /// Adds \p Value to counter \p Name.
  void count(const std::string &Name, double Value);

  std::vector<SpanRec> spans() const;
  std::map<std::string, double> counts() const;

  /// Per span name: summed duration and summed self time (duration minus
  /// the part covered by child spans), both in ms.
  struct Totals {
    double Ms = 0.0;
    double SelfMs = 0.0;
  };
  std::map<std::string, Totals> totals() const;

  /// Summed duration of root spans (no parent), in seconds.
  double rootSeconds() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds) of the
  /// first \p MaxSpans spans.
  std::string chromeJson(size_t MaxSpans = SIZE_MAX) const;

private:
  int64_t nowNs() const;

  std::chrono::steady_clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<SpanRec> Spans;
  std::map<std::string, double> Counts;
};

/// RAII span; does nothing when \p T is null.
class Span {
public:
  Span(Tracer *T, const char *Name, int64_t Cell = -1)
      : T(T), Id(T ? T->begin(Name, Cell) : 0) {}
  ~Span() {
    if (T)
      T->end(Id);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
  size_t Id;
};

} // namespace paperbench

#endif // PAPERBENCH_TRACE_H
