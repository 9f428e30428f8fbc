//===- Inproc.cpp - In-process plan ops and parallel run ops ---------------===//

#include "Bench.h"
#include "Spans.h"

#include "parallel/AbstractionView.h"
#include "parallel/PlanLines.h"
#include "pspdg/PSPDGBuilder.h"
#include "runtime/ParallelRuntime.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <time.h>

using namespace perfbench;
using namespace psc;

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// CPU time of the calling thread. The plan path runs on this one thread,
/// so its CPU time is its latency minus the time the host took the CPU
/// away (preemption, and hypervisor steal on a paravirtualized guest) —
/// host load that is not psc's.
double threadCpuMs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return T.tv_sec * 1e3 + T.tv_nsec * 1e-6;
}

/// The traced run's view into buildRuntimePlan: the layers it calls, each
/// called again from here under its own span, on the same per-function set
/// as planFunction (analyses of every function; oracle stack, edges,
/// PS-PDG and the view's per-loop plans for functions with loops). The
/// `--plans` table is rendered afterwards under a span of its own, since
/// buildRuntimePlan renders none, and checked.
void probeLayers(const Module &M, const DepOracleConfig &Cfg,
                 const std::string &WantLines, PlanResult &Res, Failures &F,
                 uint32_t OpId) {
  ModuleAnalyses MA(M);
  std::vector<const FunctionAnalysis *> FAs;
  {
    ScopedSpan Sp("ir.analyses", OpId);
    for (const auto &Fn : M.functions())
      if (!Fn->isDeclaration()) {
        const FunctionAnalysis &FA = MA.of(*Fn);
        Res.Instructions += FA.instructions().size();
        if (!FA.loopInfo().loops().empty())
          FAs.push_back(&FA);
      }
  }
  std::vector<std::unique_ptr<DepOracleStack>> Stacks;
  std::vector<std::vector<DepEdge>> Edges;
  {
    ScopedSpan Sp("analysis.dep_edges", OpId);
    for (const FunctionAnalysis *FA : FAs) {
      Stacks.push_back(std::make_unique<DepOracleStack>(*FA, Cfg));
      Edges.push_back(buildDepEdges(*Stacks.back()));
    }
  }
  std::vector<std::unique_ptr<PSPDG>> Graphs;
  {
    ScopedSpan Sp("pspdg.build", OpId);
    for (size_t I = 0; I < FAs.size(); ++I) {
      Graphs.push_back(buildPSPDGFromEdges(*FAs[I], Edges[I]));
      Res.PSPDGNodes += Graphs.back()->numNodes();
    }
  }
  std::vector<std::unique_ptr<AbstractionView>> Views;
  {
    ScopedSpan Sp("parallel.view", OpId);
    for (size_t I = 0; I < FAs.size(); ++I) {
      Views.push_back(std::make_unique<AbstractionView>(
          AbstractionKind::PSPDG, *FAs[I], std::move(Edges[I]),
          Graphs[I].get()));
      for (const Loop *L : FAs[I]->loopInfo().loops())
        (void)Views.back()->viewFor(*L);
    }
  }
  std::string Lines;
  {
    ScopedSpan Sp("parallel.render", OpId);
    for (size_t I = 0; I < FAs.size(); ++I)
      Lines += renderPlanLines(*FAs[I], *Views[I]);
  }
  for (const auto &St : Stacks) {
    const DepOracleStack::CacheStats &CS = St->cacheStats();
    Res.Queries += CS.Queries;
    Res.MemoHits += CS.Hits;
    Res.Fallback += CS.Fallback;
    for (const DepOracleStack::OracleStats &OS : St->oracleStats()) {
      Res.Answered += OS.Answered;
      Res.NoDep += OS.NoDep;
    }
  }
  if (Lines != WantLines)
    F.fail(M.getName() + ": plan lines differ from the set-up rendering");
}

Clock::time_point after(Clock::time_point T, double Seconds) {
  return T + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
}

} // namespace

GrainConfig perfbench::autoGrain(unsigned Workers) {
  GrainConfig G;
  G.Enabled = true;
  unsigned HW = std::thread::hardware_concurrency();
  G.Workers = std::min(Workers, HW == 0 ? Workers : HW);
  return G;
}

DepOracleConfig perfbench::oracleConfig(const Prepared &P, unsigned Slot) {
  return DepOracleConfig({}, slots()[Slot].Spec ? P.Profiles[Slot].get()
                                                : nullptr);
}

std::string perfbench::renderSchedules(const RuntimePlan &Plan) {
  // Kinds only, in module order: the reason strings name blocking values
  // in an order that may differ between two compilations of one source.
  std::string Out;
  const Module *M = nullptr;
  for (const auto &[Key, LS] : Plan.Loops)
    M = LS.F->getParent();
  if (!M)
    return Out;
  for (const auto &F : M->functions())
    for (const auto &[Key, LS] : Plan.Loops)
      if (LS.F == F.get())
        Out += "@" + F->getName() + " " + std::to_string(LS.Header) +
               " depth=" + std::to_string(LS.Depth) + " " +
               scheduleKindName(LS.Kind) + "\n";
  return Out;
}

std::string perfbench::renderPlans(const Module &M,
                                   const DepOracleConfig &Cfg) {
  std::string Out;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    FunctionAnalysis FA(*F);
    if (FA.loopInfo().loops().empty())
      continue;
    DepOracleStack Stack(FA, Cfg);
    std::unique_ptr<PSPDG> G = buildPSPDG(FA, Stack);
    AbstractionView V(AbstractionKind::PSPDG, FA, Stack, G.get());
    Out += renderPlanLines(FA, V);
  }
  return Out;
}

void perfbench::runPlans(const Config &C, const Prepared &P, Failures &F,
                         double Seconds, PlanResult &Res) {
  GrainConfig Grain = autoGrain(C.Workers);
  Clock::time_point Deadline = after(Clock::now(), Seconds);
  // Whole rounds, so every slice plans each kernel equally often.
  while (!Res.Stream.atRoundStart() || Clock::now() < Deadline) {
    PlanOp Op = Res.Stream.next();
    const Slot &S = slots()[Op.Slot];
    ++Res.Attempted;
    uint32_t OpId = newOpId();
    ScopedSpan OpSpan("plan.op", OpId);

    double Cpu0 = threadCpuMs();
    CompileResult CR;
    RuntimePlan Plan;
    {
      ScopedSpan Sp("frontend.compile", OpId);
      CR = compileSource(Op.Source, S.Name);
    }
    if (!CR.ok()) {
      F.fail(S.Name + ": variant does not compile: " +
             (CR.Diagnostics.empty() ? "" : CR.Diagnostics[0]));
      continue;
    }
    {
      ScopedSpan Sp("runtime.plan_build", OpId);
      Plan = buildRuntimePlan(*CR.M, AbstractionKind::PSPDG, C.Workers,
                              FeatureSet(), DepOracleConfig(), Grain);
    }
    double PlanMs = threadCpuMs() - Cpu0;
    Res.PlanMs.push_back(PlanMs);
    Res.PlanMsByKernel[Op.Slot].push_back(PlanMs);
    for (const auto &[Key, LS] : Plan.Loops) {
      ++Res.LoopsPlanned;
      Res.LoopsParallel += LS.Kind != ScheduleKind::Sequential;
      Res.GrainDemotions +=
          LS.Reason.find("below parallel grain") != std::string::npos;
    }
    // The op's output is its plan: a variant plans like its kernel.
    if (renderSchedules(Plan) != P.Schedules[Op.Slot])
      F.fail(S.Name + ": variant schedules differ from the kernel's plan");
    if (spanRecording())
      probeLayers(*CR.M, DepOracleConfig(), P.PlanLines[Op.Slot], Res, F,
                  OpId);
  }
}

ExecResult::ExecResult(uint64_t Seed)
    : Stream(static_cast<unsigned>(slots().size()), Seed) {}

std::vector<std::vector<double>>
ExecResult::msBySlot(const std::vector<bool> &Keep) const {
  std::vector<std::vector<double>> Out(slots().size());
  for (size_t I = 0; I < RunMs.size(); ++I)
    if (Keep.empty() || Keep[RunSlice[I]])
      Out[RunSlot[I]].push_back(RunMs[I]);
  return Out;
}

void perfbench::runPrograms(const Prepared &P, Failures &F, double Seconds,
                            ExecResult &Res) {
  unsigned Slice = static_cast<unsigned>(Res.SliceSteal.size());
  CpuTimes Cpu0 = cpuTimes();
  Clock::time_point Deadline = after(Clock::now(), Seconds);
  // Whole rounds, so every slice runs each program equally often.
  while (!Res.Stream.atRoundStart() || Clock::now() < Deadline) {
    unsigned SlotIdx = Res.Stream.next();
    const Slot &S = slots()[SlotIdx];
    ++Res.Attempted;
    uint32_t OpId = newOpId();
    ScopedSpan OpSpan("run.op", OpId);

    Clock::time_point T0 = Clock::now();
    ParallelRunResult Par;
    {
      std::unique_ptr<ParallelRuntime> RT;
      {
        ScopedSpan Sp("emulator.decode", OpId);
        RT = std::make_unique<ParallelRuntime>(*P.Modules[SlotIdx],
                                               P.Plans[SlotIdx]);
      }
      {
        ScopedSpan Sp("runtime.run", OpId);
        Par = RT->run();
      }
    }
    double RunMs = msBetween(T0, Clock::now());
    Res.RunMs.push_back(RunMs);
    Res.RunSlot.push_back(SlotIdx);
    Res.RunSlice.push_back(Slice);
    double Misspecs = 0;
    for (const LoopExecStat &L : Par.Loops) {
      if (L.Invocations && L.Kind != ScheduleKind::Sequential) {
        ++Res.LoopsRunParallel;
        Res.ParallelIterations += L.Iterations;
      }
      if (L.Speculative) {
        Res.SpecInvocations += L.Invocations;
        Misspecs += L.Misspeculations;
        Res.SpecLogEntries += L.SpecLogEntries;
        Res.PeakOverlayBytes =
            std::max(Res.PeakOverlayBytes, double(L.PeakOverlayBytes));
      }
    }
    Res.Misspecs += Misspecs;

    const RunResult &Ref = P.Reference[SlotIdx];
    if (!Par.ok())
      F.fail(S.Name + ": parallel run failed: " + Par.Error);
    else if (Par.R.Output != Ref.Output || Par.R.ExitValue != Ref.ExitValue)
      F.fail(S.Name + ": parallel output differs from the sequential run");
    else if (S.Adversarial && Misspecs == 0)
      F.fail(S.Name + ": the broken permutation did not misspeculate");
  }
  Res.SliceSteal.push_back(stealShare(Cpu0, cpuTimes()));
}
