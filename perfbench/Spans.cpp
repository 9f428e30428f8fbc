//===- Spans.cpp - The benchmark's own span recorder ----------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace perfbench;

namespace {

std::atomic<bool> Recording{false};
std::atomic<uint32_t> NextId{1};
std::atomic<uint32_t> NextOp{1};
std::atomic<uint32_t> NextThread{1};

struct ThreadBuffer {
  std::vector<SpanRecord> Spans;
  uint32_t Open = 0; ///< Innermost open span of the thread.
  uint32_t Thread = 0;
};

std::mutex BuffersMu;
std::vector<std::shared_ptr<ThreadBuffer>> Buffers; // guarded by BuffersMu

ThreadBuffer &buffer() {
  thread_local std::shared_ptr<ThreadBuffer> Mine = [] {
    auto B = std::make_shared<ThreadBuffer>();
    B->Thread = NextThread.fetch_add(1);
    std::lock_guard<std::mutex> Lock(BuffersMu);
    Buffers.push_back(B);
    return B;
  }();
  return *Mine;
}

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

} // namespace

void perfbench::setSpanRecording(bool On) { Recording.store(On); }
bool perfbench::spanRecording() { return Recording.load(); }
uint32_t perfbench::newOpId() { return NextOp.fetch_add(1); }

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ScopedSpan::ScopedSpan(const char *Name, uint32_t Op)
    : On(Recording.load(std::memory_order_relaxed)) {
  if (!On)
    return;
  ThreadBuffer &B = buffer();
  R.Name = Name;
  R.Op = Op;
  R.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  R.Parent = B.Open;
  R.Thread = B.Thread;
  SavedParent = B.Open;
  B.Open = R.Id;
  R.StartNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!On)
    return;
  R.EndNs = nowNs();
  ThreadBuffer &B = buffer();
  B.Open = SavedParent;
  // Appended under the registry lock: takeSpans() may drain concurrently
  // only if a caller breaks the "collect at the end" contract, but the
  // lock keeps even that well-defined.
  std::lock_guard<std::mutex> Lock(BuffersMu);
  B.Spans.push_back(R);
}

std::vector<SpanRecord> perfbench::takeSpans() {
  std::vector<SpanRecord> Out;
  std::lock_guard<std::mutex> Lock(BuffersMu);
  for (const std::shared_ptr<ThreadBuffer> &B : Buffers) {
    Out.insert(Out.end(), B->Spans.begin(), B->Spans.end());
    B->Spans.clear();
  }
  return Out;
}

OpSelfTimes perfbench::selfTimesByOp(const std::vector<SpanRecord> &Spans) {
  // Children of one span run on its thread one after another, so the
  // covered part of the parent is the sum of the children's durations.
  std::unordered_map<uint32_t, double> ChildMs;
  for (const SpanRecord &S : Spans)
    if (S.Parent)
      ChildMs[S.Parent] += (S.EndNs - S.StartNs) * 1e-6;
  OpSelfTimes Out;
  for (const SpanRecord &S : Spans) {
    double Self = (S.EndNs - S.StartNs) * 1e-6;
    auto It = ChildMs.find(S.Id);
    if (It != ChildMs.end())
      Self -= It->second;
    Out[S.Op][S.Name] += Self;
  }
  return Out;
}

bool perfbench::writeSpans(
    const std::string &Path, const std::vector<SpanRecord> &Spans,
    const std::vector<std::pair<std::string, std::string>> &Meta) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "perfbench: cannot write '%s'\n", Path.c_str());
    return false;
  }
  uint64_t T0 = ~0ULL;
  for (const SpanRecord &S : Spans)
    T0 = std::min(T0, S.StartNs);
  Out << "{\"metadata\":{";
  for (size_t I = 0; I < Meta.size(); ++I)
    Out << (I ? "," : "") << "\"" << escape(Meta[I].first) << "\":\""
        << escape(Meta[I].second) << "\"";
  Out << "},\"traceEvents\":[";
  char Buf[256];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                  "\"parent\":%u,\"op\":%u}}",
                  I ? ",\n" : "\n", S.Name, S.Thread,
                  (S.StartNs - T0) * 1e-3, (S.EndNs - S.StartNs) * 1e-3, S.Id,
                  S.Parent, S.Op);
    Out << Buf;
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}
