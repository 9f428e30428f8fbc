//===- Setup.cpp - Profiles, references and the warmed server -------------===//

#include "Bench.h"
#include "Spans.h"

#include "emulator/Interpreter.h"
#include "profiling/DepProfiler.h"
#include "service/Client.h"

#include <cstdio>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace psc;
using namespace psc::service;

void Failures::fail(const std::string &What) {
  unsigned long long Seen = N.fetch_add(1);
  if (Seen < 10) {
    std::lock_guard<std::mutex> Lock(Mu);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
  }
}

namespace {

bool sendAll(const std::string &Socket, const std::vector<Message> &Reqs,
             const std::vector<std::string> &WantPlans, Failures &F) {
  Client Conn;
  std::string Err;
  if (!Conn.connect(Socket, Err)) {
    F.fail("warm-up client cannot connect: " + Err);
    return false;
  }
  for (size_t I = 0; I < Reqs.size(); ++I) {
    Message Resp;
    if (!Conn.request(Reqs[I], Resp, Err) || field(Resp, "ok") != "1") {
      F.fail("warm-up request failed: " + Err + field(Resp, "error"));
      return false;
    }
    if (!WantPlans[I].empty() && field(Resp, "plans") != WantPlans[I]) {
      F.fail("warm-up plan lines differ from the standalone rendering");
      return false;
    }
  }
  return true;
}

} // namespace

bool perfbench::prepare(const Config &C, Prepared &P, Failures &F) {
  const std::vector<Slot> &S = slots();
  P.Profiles.assign(S.size(), nullptr);
  P.Reference.assign(S.size(), RunResult());
  P.PlanLines.assign(S.size(), std::string());
  P.Schedules.assign(S.size(), std::string());
  P.Modules.resize(S.size());
  P.Plans.resize(S.size());

  // Training profiles, from clean runs of the speculation kernels.
  for (unsigned I = 0; I < S.size(); ++I) {
    if (S[I].TrainSlot != static_cast<int>(I))
      continue;
    ScopedSpan Sp("profiling.train", 0);
    std::unique_ptr<Module> M = compileOrDie(S[I].Source, S[I].Name);
    ModuleAnalyses MA(*M);
    DepProfiler Prof(MA);
    Interpreter Run(*M);
    Run.addObserver(&Prof);
    if (!Run.run().Completed) {
      F.fail(S[I].Name + ": training run did not complete");
      return false;
    }
    P.Profiles[I] = std::make_shared<DepProfile>(Prof.takeProfile());
  }
  for (unsigned I = 0; I < S.size(); ++I)
    if (S[I].Spec)
      P.Profiles[I] = P.Profiles[S[I].TrainSlot];

  // Reference outputs, plan lines and the runtime plan of every slot.
  for (unsigned I = 0; I < S.size(); ++I) {
    ScopedSpan Sp("setup.reference", 0);
    P.Modules[I] = compileOrDie(S[I].Source, S[I].Name);
    const Module &M = *P.Modules[I];
    P.Reference[I] = Interpreter(M).run();
    const RunResult &R = P.Reference[I];
    if (!R.Completed || R.Output.empty() ||
        (!S[I].Adversarial &&
         R.Output.back() != std::to_string(S[I].Kernel->ExpectedChecksum))) {
      F.fail(S[I].Name + ": sequential run does not print the checksum");
      return false;
    }
    P.PlanLines[I] = renderPlans(M, oracleConfig(P, I));
    P.Plans[I] = buildRuntimePlan(M, AbstractionKind::PSPDG, C.Workers,
                                  FeatureSet(), oracleConfig(P, I),
                                  autoGrain(C.Workers));
    P.Schedules[I] = renderSchedules(P.Plans[I]);
  }

  // pscd load: warm working set, spec-analyze set, the merged profile.
  P.WarmSources = warmWorkingSet(C.Seed);
  for (const std::string &Src : P.WarmSources) {
    ScopedSpan Sp("setup.reference", 0);
    P.WarmPlanLines.push_back(renderPlans(*compileOrDie(Src), {}));
  }
  // The server's profile store holds one profile per function name, so
  // the spec share plans UA (clean and adversarial) against UA's profile
  // and the merges re-send that same profile.
  for (unsigned I = 0; I < S.size(); ++I)
    if (S[I].Spec && S[I].Kernel->Name == "UA") {
      P.SpecSet.push_back(I);
      P.SpecPlanLines.push_back(P.PlanLines[I]);
      P.MergeProfileJson = P.Profiles[I]->toJson();
    }

  ServerConfig SC;
  SC.SocketPath = "perfbench-" + std::to_string(::getpid()) + ".sock";
  SC.PoolThreads = C.Workers;
  P.SocketPath = SC.SocketPath;
  P.Server = std::make_unique<Server>(SC);
  std::string Err;
  {
    ScopedSpan Sp("service.start", 0);
    if (!P.Server->start(Err)) {
      F.fail("server does not start: " + Err);
      return false;
    }
  }

  // Warm the caches: the profile first, then every warm and spec program
  // once, spread over the clients.
  ScopedSpan Sp("service.warmup", 0);
  if (!sendAll(P.SocketPath,
               {{{"op", "profile-merge"}, {"profile", P.MergeProfileJson}}},
               {""}, F))
    return false;
  std::vector<std::vector<Message>> Reqs(C.Clients);
  std::vector<std::vector<std::string>> Want(C.Clients);
  for (size_t I = 0; I < P.WarmSources.size(); ++I) {
    for (const char *Mode : {"full", "analyze"}) {
      Reqs[I % C.Clients].push_back({{"op", "session"},
                                     {"source", P.WarmSources[I]},
                                     {"name", "w" + std::to_string(I)},
                                     {"mode", Mode}});
      Want[I % C.Clients].push_back(P.WarmPlanLines[I]);
    }
  }
  for (size_t I = 0; I < P.SpecSet.size(); ++I) {
    Reqs[I % C.Clients].push_back({{"op", "session"},
                                   {"source", S[P.SpecSet[I]].Source},
                                   {"name", "s" + std::to_string(I)},
                                   {"mode", "analyze"},
                                   {"spec", "1"}});
    Want[I % C.Clients].push_back(P.SpecPlanLines[I]);
  }
  std::vector<std::thread> Ts;
  std::vector<char> Ok(C.Clients, 0);
  for (unsigned K = 0; K < C.Clients; ++K)
    Ts.emplace_back(
        [&, K] { Ok[K] = sendAll(P.SocketPath, Reqs[K], Want[K], F); });
  for (std::thread &T : Ts)
    T.join();
  for (char K : Ok)
    if (!K)
      return false;
  return true;
}
