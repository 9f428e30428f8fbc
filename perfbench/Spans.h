//===- Spans.h - The benchmark's own span recorder ---------------*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each psc layer
/// (the program's own tracing stays off). A span has a name, start, end,
/// the span that caused it and the op it belongs to. Spans are kept in
/// per-thread buffers in memory and collected when the run ends; with
/// recording off a ScopedSpan costs one branch.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char *Name = "";
  uint64_t StartNs = 0, EndNs = 0;
  uint32_t Id = 0, Parent = 0; ///< Parent 0 = a root span.
  uint32_t Op = 0;             ///< Op the span serves (0 = set-up).
  uint32_t Thread = 0;
};

/// Turns recording on or off (off by default). Not to be flipped while
/// spans are open.
void setSpanRecording(bool On);
bool spanRecording();

/// A fresh op id for the spans of one op (ids start at 1; 0 is set-up).
uint32_t newOpId();

/// Steady-clock nanoseconds (the spans' time base).
uint64_t nowNs();

/// Records [construction, destruction) as one span under the innermost
/// open span of this thread.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, uint32_t Op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecord R;
  uint32_t SavedParent = 0;
  bool On;
};

/// Moves every recorded span out of the per-thread buffers.
std::vector<SpanRecord> takeSpans();

/// Per op, per span name: summed self time in ms (duration minus the part
/// covered by child spans).
using OpSelfTimes = std::map<uint32_t, std::map<std::string, double>>;
OpSelfTimes selfTimesByOp(const std::vector<SpanRecord> &Spans);

/// Writes the spans as a Chrome trace-event document with \p Meta as
/// metadata. False (with a message on stderr) if the file cannot be
/// written.
bool writeSpans(const std::string &Path, const std::vector<SpanRecord> &Spans,
                const std::vector<std::pair<std::string, std::string>> &Meta);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
