//===- Serve.cpp - Closed-loop pscd load ------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "service/Client.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

using namespace perfbench;
using namespace psc;
using namespace psc::service;

namespace {

using Clock = std::chrono::steady_clock;

std::string outputText(const RunResult &R) {
  std::string Out;
  for (const std::string &Line : R.Output)
    Out += Line + "\n";
  return Out;
}

} // namespace

double perfbench::statOf(const std::string &Json, const char *Section,
                         const char *Key) {
  size_t Pos = 0;
  if (*Section) {
    Pos = Json.find("\"" + std::string(Section) + "\"");
    if (Pos == std::string::npos)
      return 0;
  }
  std::string K = "\"" + std::string(Key) + "\":";
  Pos = Json.find(K, Pos);
  return Pos == std::string::npos ? 0 : std::atof(Json.c_str() + Pos + K.size());
}

namespace {

/// The stats counters the per-layer report reads, as (section, key).
const std::pair<const char *, const char *> Counters[] = {
    {"module_cache", "hits"},   {"module_cache", "misses"},
    {"module_cache", "evictions"}, {"module_cache", "invalidations"},
    {"memo_cache", "hits"},     {"memo_cache", "misses"},
    {"memo_cache", "evictions"}, {"memo_cache", "invalidations"},
    {"plan_cache", "hits"},     {"plan_cache", "misses"},
    {"plan_cache", "evictions"}, {"plan_cache", "invalidations"},
    {"", "analysis_builds"},
    {"stage_compile", "count"}, {"stage_compile", "total_ms"},
    {"stage_plan", "count"},    {"stage_plan", "total_ms"},
    {"stage_run", "count"},     {"stage_run", "total_ms"},
};

} // namespace

ServeResult::ServeResult(const Config &C, const Prepared &P,
                         const std::string &Stream) {
  for (unsigned Id = 0; Id < C.Clients; ++Id) {
    Streams.emplace_back(C.Seed, Id,
                         static_cast<unsigned>(P.WarmSources.size()),
                         static_cast<unsigned>(P.SpecSet.size()));
    Fresh.emplace_back(C.Seed, Stream + std::to_string(Id));
  }
}

double ServeResult::delta(const std::string &Section,
                          const std::string &Key) const {
  auto It = Deltas.find(Section + "/" + Key);
  return It == Deltas.end() ? 0 : It->second;
}

void perfbench::runServe(const Config &C, const Prepared &P, Failures &F,
                         double Seconds, ServeResult &Res) {
  const unsigned PerKernel = 1 + WarmVariantsPerKernel;
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::mutex Mu; // guards Res's samples
  Clock::time_point Deadline;
  const unsigned Slice = static_cast<unsigned>(Res.SliceRate.size());

  auto ClientLoop = [&](unsigned Id) {
    Client Conn;
    std::string Err;
    bool Connected = Conn.connect(P.SocketPath, Err);
    Ready.fetch_add(1);
    while (!Go.load())
      std::this_thread::yield();
    if (!Connected) {
      F.fail("client cannot connect: " + Err);
      return;
    }
    ServeStream &Stream = Res.Streams[Id];
    VariantGenerator &Fresh = Res.Fresh[Id];
    std::vector<double> All, ByClass[NumRequestClasses];
    // Whole rounds, so every slice sends the same mix.
    while (!Stream.atRoundStart() || Clock::now() < Deadline) {
      ServeOp Op = Stream.next();
      Message Req{{"op", "session"}, {"mode", Op.mode()}};
      const std::string *WantPlans = &P.PlanLines[0];
      std::string WantOutput;
      switch (Op.Class) {
      case RequestClass::WarmFull:
      case RequestClass::WarmAnalyze:
        Req["source"] = P.WarmSources[Op.Program];
        Req["name"] = "w" + std::to_string(Op.Program);
        WantPlans = &P.WarmPlanLines[Op.Program];
        WantOutput = outputText(P.Reference[Op.Program / PerKernel]);
        break;
      case RequestClass::ColdFull:
      case RequestClass::ColdAnalyze: {
        // A never-seen variant; the kernel's name marks it as an edit of
        // that kernel, so the server's edited-body invalidation sees
        // traffic. Its output ends with the kernel's checksum, as the
        // reference's does.
        const Slot &K = slots()[Op.Program];
        Req["source"] = Fresh.next(K.Source);
        Req["name"] = K.Name + ".edit";
        WantPlans = &P.PlanLines[Op.Program];
        WantOutput = outputText(P.Reference[Op.Program]);
        break;
      }
      case RequestClass::SpecAnalyze:
        Req["source"] = slots()[P.SpecSet[Op.Program]].Source;
        Req["name"] = "s" + std::to_string(Op.Program);
        Req["spec"] = "1";
        WantPlans = &P.SpecPlanLines[Op.Program];
        break;
      case RequestClass::ProfileMerge:
        Req = {{"op", "profile-merge"}, {"profile", P.MergeProfileJson}};
        break;
      }

      Message Resp;
      bool Sent;
      uint32_t OpId = newOpId();
      Clock::time_point T0 = Clock::now();
      {
        ScopedSpan Sp("service.request", OpId);
        Sent = Conn.request(Req, Resp, Err);
      }
      double Ms =
          std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
      All.push_back(Ms);
      ByClass[static_cast<unsigned>(Op.Class)].push_back(Ms);

      const char *Cls = requestClassName(Op.Class);
      if (!Sent) {
        F.fail(std::string(Cls) + " request failed: " + Err);
        break;
      }
      if (field(Resp, "ok") != "1") {
        F.fail(std::string(Cls) + " request: " + field(Resp, "error"));
        continue;
      }
      if (Op.Class == RequestClass::ProfileMerge)
        continue;
      if (std::string(Op.mode()) == "full" &&
          field(Resp, "output") != WantOutput)
        F.fail(std::string(Cls) + " session output differs from the "
                                  "standalone run");
      if (field(Resp, "plans") != *WantPlans)
        F.fail(std::string(Cls) + " session plan lines differ from the "
                                  "standalone rendering");
    }
    std::lock_guard<std::mutex> Lock(Mu);
    Res.RequestMs.insert(Res.RequestMs.end(), All.begin(), All.end());
    Res.RequestSlice.insert(Res.RequestSlice.end(), All.size(), Slice);
    for (unsigned K = 0; K < NumRequestClasses; ++K)
      Res.ClassMs[K].insert(Res.ClassMs[K].end(), ByClass[K].begin(),
                            ByClass[K].end());
  };

  size_t First = Res.RequestMs.size();
  std::vector<std::thread> Threads;
  for (unsigned Id = 0; Id < C.Clients; ++Id)
    Threads.emplace_back(ClientLoop, Id);
  while (Ready.load() < C.Clients)
    std::this_thread::yield();
  std::string Before = P.Server->statsJson();
  CpuTimes Cpu0 = cpuTimes();
  Clock::time_point Start = Clock::now();
  Deadline = Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();
  double WindowS = std::chrono::duration<double>(Clock::now() - Start).count();
  Res.SliceSteal.push_back(stealShare(Cpu0, cpuTimes()));
  std::string After = P.Server->statsJson();
  for (const auto &[Section, Key] : Counters)
    Res.Deltas[std::string(Section) + "/" + Key] +=
        statOf(After, Section, Key) - statOf(Before, Section, Key);
  size_t Requests = Res.RequestMs.size() - First;
  Res.Attempted += Requests;
  Res.SliceRate.push_back(WindowS > 0 ? Requests / WindowS : 0);
}
