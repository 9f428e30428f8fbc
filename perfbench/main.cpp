//===- main.cpp - The psc benchmark --------------------------------------===//
///
/// \file
///   psc_perfbench --workload plan-cold|run-parallel|pscd-mixed --seed N
///                 --seconds S --trace 0|1 [--source-id ID]
///
/// Sets up three times (reporting the median as setup_s), then measures
/// for S seconds in eight slices. Each slice gives half its time to the
/// workload's own path and a quarter to each of the other two, so every
/// workload reports every end-to-end metric and a slow spell of the host
/// lands on all three paths. With --trace 0 it prints the end-to-end
/// metrics (and the p99 tail latencies, outside the result line); with
/// --trace 1 it alternates untraced and traced slices (the benchmark's
/// own spans) and prints the per-layer metrics plus the tracing overhead.
/// The last stdout line is the result object; the exit code is 1 if any
/// check failed./// failed. See README.md for the metric table.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "emulator/CriticalPath.h"
#include "emulator/Interpreter.h"
#include "runtime/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;
using namespace psc;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned SetupReps = 3;
constexpr unsigned Slices = 8; ///< Of the timed window.

/// Shares of each slice: plan ops, run ops, pscd load.
struct Shares {
  double Plan, Run, Serve;
};

Shares sharesOf(WorkloadKind W) {
  switch (W) {
  case WorkloadKind::PlanCold:
    return {0.5, 0.25, 0.25};
  case WorkloadKind::RunParallel:
    return {0.25, 0.5, 0.25};
  case WorkloadKind::PscdMixed:
    return {0.25, 0.25, 0.5};
  }
  return {1.0 / 3, 1.0 / 3, 1.0 / 3};
}

int usage(const char *Why) {
  if (Why)
    std::fprintf(stderr, "psc_perfbench: %s\n", Why);
  std::fprintf(stderr,
               "usage: psc_perfbench --workload plan-cold|run-parallel|"
               "pscd-mixed --seed N --seconds S --trace 0|1 "
               "[--source-id ID]\n");
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S || std::strlen(S) > 19)
    return false;
  Out = 0;
  for (const char *P = S; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    Out = Out * 10 + (*P - '0');
  }
  return true;
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Each non-empty group's median.
std::vector<double> medians(const std::vector<std::vector<double>> &Groups) {
  std::vector<double> Out;
  for (const std::vector<double> &G : Groups)
    if (!G.empty())
      Out.push_back(median(G));
  return Out;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// Programs per second of one round over the programs of \p MsByProgram,
/// each at its median time: unlike a mean, a few ops stalled by the host
/// move it little.
double roundRate(const std::vector<std::vector<double>> &MsByProgram) {
  std::vector<double> M = medians(MsByProgram);
  double Ms = 0;
  for (double X : M)
    Ms += X;
  return ratio(M.size(), Ms / 1e3);
}

/// A p99 into \p Tail, only when at least MinBeyond samples lie beyond it.
void addTail(Report &Tail, const std::string &Name,
             const std::vector<double> &V) {
  if (samplesBeyond(V.size(), 0.99) >= MinBeyond)
    Tail.add(Name, percentile(V, 0.99), "ms");
  else
    std::fprintf(stderr,
                 "psc_perfbench: %s not reported: %zu samples leave fewer "
                 "than %zu beyond it\n",
                 Name.c_str(), V.size(), MinBeyond);
}

/// End-to-end metrics into \p Rep; the p99s and sample counts go to
/// \p Tail, which is printed but kept out of the result line: across
/// ten-run sets on a quiet host the p99s' quartile spread reached 0.3, too
/// wide to bound. plan_ms.p50 is the median over kernels of each kernel's
/// median: every kernel is planned equally often, so the pooled median
/// would sit on the edge between two kernels. The run and pscd metrics are
/// wall times, which CPU time stolen by the hypervisor stretches; they
/// come from the half of the slices with the least steal, and
/// sessions_per_s is the median over those slices.
void endToEnd(Report &Rep, Report &Tail, double SetupS, const PlanResult &PR,
              const ExecResult &ER, const ServeResult &SR) {
  Rep.add("setup_s", SetupS, "s");
  Rep.add("peak_rss_mb", peakRssMb(), "MiB");
  Rep.add("plan_ms.p50", median(medians(PR.PlanMsByKernel)), "ms");
  Rep.add("plans_per_s", roundRate(PR.PlanMsByKernel), "1/s");
  std::vector<std::vector<double>> RunMs =
      ER.msBySlot(quietSlices(ER.SliceSteal));
  Rep.add("run_ms.geomean", geomean(medians(RunMs)), "ms");
  Rep.add("runs_per_s", roundRate(RunMs), "1/s");
  std::vector<bool> Quiet = quietSlices(SR.SliceSteal);
  std::vector<double> SessionMs, SessionRate;
  for (size_t I = 0; I < SR.RequestMs.size(); ++I)
    if (Quiet[SR.RequestSlice[I]])
      SessionMs.push_back(SR.RequestMs[I]);
  for (size_t K = 0; K < SR.SliceRate.size(); ++K)
    if (Quiet[K])
      SessionRate.push_back(SR.SliceRate[K]);
  Rep.add("session_ms.p50", median(SessionMs), "ms");
  Rep.add("sessions_per_s", median(SessionRate), "1/s");
  addTail(Tail, "plan_ms.p99", PR.PlanMs);
  addTail(Tail, "run_ms.p99", ER.RunMs);
  addTail(Tail, "session_ms.p99", SR.RequestMs);
  Tail.add("samples.plan_ms", PR.PlanMs.size(), "count");
  Tail.add("samples.run_ms", ER.RunMs.size(), "count");
  Tail.add("samples.session_ms", SR.RequestMs.size(), "count");
}

/// Sequential time, instructions and the critical-path prediction of one
/// slot, measured after the traced window.
struct SlotModel {
  double SeqMs = 0;
  uint64_t Instrs = 0;
  double Predicted = 0;
};

SlotModel modelSlot(const Prepared &P, unsigned Slot) {
  const Module &M = *P.Modules[Slot];
  SlotModel Out;
  std::vector<double> Ms;
  for (int Rep = 0; Rep < 3; ++Rep) {
    Interpreter Run(M);
    ScopedSpan Sp("emulator.seq", 0);
    Clock::time_point T0 = Clock::now();
    RunResult R = Run.run();
    Ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count());
    Out.Instrs = R.InstructionsExecuted;
  }
  Out.SeqMs = median(Ms);
  // The Fig. 14 model: dynamic instructions over the PS-PDG-constrained
  // critical path on an ideal machine.
  ScopedSpan Sp("emulator.critical_path", 0);
  CriticalPathReport CP =
      evaluateCriticalPaths(M, 2'000'000'000ULL, oracleConfig(P, Slot));
  Out.Predicted = ratio(static_cast<double>(CP.TotalDynamicInstructions),
                        CP.PSPDG);
  return Out;
}

/// Median ns of one submit-and-wait round of \p Workers empty tasks.
double poolRoundNs(unsigned Workers) {
  ThreadPool Pool(Workers);
  std::vector<double> Ns;
  for (int Round = 0; Round < 201; ++Round) {
    ScopedSpan Sp("runtime.pool_round", 0);
    uint64_t T0 = nowNs();
    for (unsigned W = 0; W < Workers; ++W)
      Pool.submit([] {});
    Pool.wait();
    if (Round > 0) // the first round spawns the workers
      Ns.push_back(static_cast<double>(nowNs() - T0));
  }
  return median(Ns);
}

/// The three paths' samples over the slices of one kind (untraced or
/// traced). Their streams are separate, so the traced slices send fresh
/// variants of their own.
struct Paths {
  Paths(const Config &C, const Prepared &P, const std::string &Tag)
      : Plan(C.Seed, "p" + Tag), Exec(C.Seed), Serve(C, P, "c" + Tag) {}
  PlanResult Plan;
  ExecResult Exec;
  ServeResult Serve;
  unsigned long long attempted() const {
    return Plan.Attempted + Exec.Attempted + Serve.Attempted;
  }
};

/// Per-layer report: \p T holds the traced slices, whose spans gave
/// \p Self; \p U the untraced ones, which give the per-program run medians
/// and the base of the tracing overhead.
void perLayer(Report &Layer, Report &Extra, const Config &C,
              const Prepared &P, const Paths &U, const Paths &T,
              const OpSelfTimes &Self) {
  // --- plan path (traced plan ops) ----------------------------------------
  std::map<std::string, std::vector<double>> PerOp;
  for (const auto &[Op, Times] : Self) {
    auto Get = [&](const char *N) {
      auto It = Times.find(N);
      return It == Times.end() ? 0.0 : It->second;
    };
    if (Times.count("emulator.decode"))
      PerOp["emulator.decode"].push_back(Get("emulator.decode"));
    if (!Times.count("runtime.plan_build"))
      continue;
    for (const char *N :
         {"frontend.compile", "ir.analyses", "analysis.dep_edges",
          "pspdg.build", "parallel.view", "parallel.render",
          "runtime.plan_build"})
      PerOp[N].push_back(Get(N));
    // Two executions: buildRuntimePlan, then its layers called again on
    // their own (probeLayers).
    PerOp["plan_self"].push_back(
        Get("runtime.plan_build") -
        (Get("ir.analyses") + Get("analysis.dep_edges") + Get("pspdg.build") +
         Get("parallel.view")));
  }
  const PlanResult &IR = T.Plan;
  double Ops = std::max<double>(1, IR.PlanMs.size());
  Layer.add("frontend.compile_ms", median(PerOp["frontend.compile"]), "ms");
  Layer.add("ir.instructions", IR.Instructions / Ops, "count");
  Layer.add("ir.analyses_ms", median(PerOp["ir.analyses"]), "ms");
  Layer.add("analysis.dep_edges_ms", median(PerOp["analysis.dep_edges"]),
            "ms");
  Layer.add("analysis.queries", IR.Queries / Ops, "count");
  Layer.add("analysis.memo_hit_rate", ratio(IR.MemoHits, IR.Queries),
            "ratio");
  Layer.add("analysis.nodep_share", ratio(IR.NoDep, IR.Answered), "ratio");
  Layer.add("analysis.fallback", IR.Fallback / Ops, "count");
  Layer.add("pspdg.build_ms", median(PerOp["pspdg.build"]), "ms");
  Layer.add("pspdg.nodes", IR.PSPDGNodes / Ops, "count");
  Layer.add("parallel.view_ms", median(PerOp["parallel.view"]), "ms");
  Layer.add("parallel.render_ms", median(PerOp["parallel.render"]), "ms");
  Layer.add("runtime.plan_build_ms", median(PerOp["runtime.plan_build"]),
            "ms");
  Layer.add("runtime.plan_self_ms", median(PerOp["plan_self"]), "ms");
  Layer.add("runtime.loops_planned", IR.LoopsPlanned / Ops, "count");
  Layer.add("runtime.loops_parallel", IR.LoopsParallel / Ops, "count");
  Layer.add("runtime.grain_demotions", IR.GrainDemotions / Ops, "count");

  // --- run path: model beside measurement, per program --------------------
  const ExecResult &ER = T.Exec;
  double Runs = std::max<double>(1, ER.RunMs.size());
  Layer.add("emulator.decode_ms", median(PerOp["emulator.decode"]), "ms");
  double SeqMsSum = 0, InstrSum = 0;
  std::vector<double> Speedups;
  std::vector<std::vector<double>> UntracedMs = U.Exec.msBySlot();
  for (unsigned S = 0; S < slots().size(); ++S) {
    if (UntracedMs[S].empty())
      continue;
    SlotModel Mod = modelSlot(P, S);
    double RunMs = median(UntracedMs[S]);
    SeqMsSum += Mod.SeqMs;
    InstrSum += Mod.Instrs;
    Speedups.push_back(ratio(Mod.SeqMs, RunMs));
    Report &To = S < NumKernelSlots ? Layer : Extra;
    const std::string &N = slots()[S].Name;
    To.add("emulator.seq_ms." + N, Mod.SeqMs, "ms");
    To.add("emulator.cp_predicted_speedup." + N, Mod.Predicted, "x");
    To.add("runtime.run_ms." + N, RunMs, "ms");
    To.add("runtime.par_speedup." + N, Speedups.back(), "x");
  }
  Layer.add("emulator.instrs_per_s", ratio(InstrSum, SeqMsSum / 1e3), "1/s");
  Layer.add("runtime.par_speedup.geomean", geomean(Speedups), "x");
  Layer.add("runtime.loops_run_parallel", ER.LoopsRunParallel / Runs,
            "count");
  Layer.add("runtime.parallel_iterations", ER.ParallelIterations / Runs,
            "count");
  Layer.add("runtime.pool_spawn_join_ns", poolRoundNs(C.Workers), "ns");
  Layer.add("runtime.spec_invocations", ER.SpecInvocations / Runs, "count");
  Layer.add("runtime.misspecs", ER.Misspecs / Runs, "count");
  Layer.add("runtime.spec_useful_share",
            ER.SpecInvocations > 0 ? 1 - ER.Misspecs / ER.SpecInvocations
                                   : 0,
            "ratio");
  Layer.add("runtime.spec_log_entries", ER.SpecLogEntries / Runs, "count");
  Layer.add("runtime.peak_overlay_bytes", ER.PeakOverlayBytes, "bytes");

  // --- pscd path (traced slices) -------------------------------------------
  const ServeResult &SR = T.Serve;
  for (unsigned K = 0; K < NumRequestClasses; ++K)
    Layer.add(std::string("service.") +
                  requestClassName(static_cast<RequestClass>(K)) + "_ms.p50",
              median(SR.ClassMs[K]), "ms");
  auto Delta = [&](const std::string &Section, const char *Key) {
    return SR.delta(Section, Key);
  };
  auto HitRate = [&](const char *Cache) {
    double H = Delta(Cache, "hits"), M = Delta(Cache, "misses");
    return ratio(H, H + M);
  };
  Layer.add("service.l1_hit_rate", HitRate("module_cache"), "ratio");
  Layer.add("service.l2_hit_rate", HitRate("memo_cache"), "ratio");
  Layer.add("service.l3_hit_rate", HitRate("plan_cache"), "ratio");
  double Evictions = 0, Invalidations = 0;
  for (const char *Cache : {"module_cache", "memo_cache", "plan_cache"}) {
    Evictions += Delta(Cache, "evictions");
    Invalidations += Delta(Cache, "invalidations");
  }
  Layer.add("service.evictions", Evictions, "count");
  Layer.add("service.invalidations", Invalidations, "count");
  Layer.add("service.analysis_builds", Delta("", "analysis_builds"), "count");
  for (const char *Stage : {"compile", "plan", "run"}) {
    std::string Sec = std::string("stage_") + Stage;
    Layer.add("service." + Sec + "_ms",
              ratio(Delta(Sec, "total_ms"), Delta(Sec, "count")), "ms");
  }

  // --- tracing overhead: traced over untraced slices ----------------------
  Layer.add("trace.overhead.plan_ms",
            ratio(median(medians(IR.PlanMsByKernel)),
                  median(medians(U.Plan.PlanMsByKernel))) -
                1,
            "ratio");
  Layer.add("trace.overhead.run_ms",
            ratio(geomean(medians(ER.msBySlot())),
                  geomean(medians(UntracedMs))) -
                1,
            "ratio");
  Layer.add("trace.overhead.session_ms",
            ratio(median(SR.RequestMs), median(U.Serve.RequestMs)) - 1,
            "ratio");
}

std::string hostJson(const Config &C, double StealShare) {
  char Buf[600];
  std::snprintf(Buf, sizeof(Buf),
                "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"source_id\": \"%s\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"workers\": %u, \"clients\": %u, "
                "\"cpu_steal_share\": %.4f}",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, C.SourceId.c_str(),
                workloadName(C.Workload),
                static_cast<unsigned long long>(C.Seed), C.Seconds,
                C.Trace ? 1 : 0, C.Workers, C.Clients, StealShare);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  bool HaveW = false, HaveSeed = false, HaveSec = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--help" || A == "-h")
      return usage(nullptr);
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (A == "--workload") {
      if (!parseWorkload(V, C.Workload))
        return usage("unknown workload");
      HaveW = true;
    } else if (A == "--seed") {
      if (!parseUnsigned(V, C.Seed))
        return usage("--seed takes a non-negative integer");
      HaveSeed = true;
    } else if (A == "--seconds") {
      if (!parseUnsigned(V, N) || N == 0 || N > 3600)
        return usage("--seconds takes an integer from 1 to 3600");
      C.Seconds = static_cast<double>(N);
      HaveSec = true;
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace takes 0 or 1");
      C.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (A == "--source-id") {
      C.SourceId = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveW || !HaveSeed || !HaveSec || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");
  unsigned HW = std::thread::hardware_concurrency();
  C.Workers = C.Clients = std::max(1u, std::min(4u, HW));

  Failures F;
  Prepared P;
  // Set-up spans are recorded in the traced run only; untraced slices run
  // with recording off.
  setSpanRecording(C.Trace);
  std::vector<double> SetupS;
  bool Ready = true;
  for (unsigned Rep = 0; Rep < SetupReps && Ready; ++Rep) {
    P = Prepared();
    Clock::time_point T0 = Clock::now();
    Ready = prepare(C, P, F);
    SetupS.push_back(std::chrono::duration<double>(Clock::now() - T0).count());
  }

  Report Rep, Extra;
  unsigned long long Attempted = 0;
  CpuTimes Cpu0 = cpuTimes();
  double StealShare = 0;
  if (Ready) {
    setSpanRecording(false);
    // The window is cut into slices that run the three paths in turn, so
    // a slow spell of the host spreads over all of them rather than
    // landing on one.
    Shares Sh = sharesOf(C.Workload);
    double SliceS = C.Seconds / Slices;
    Paths U(C, P, ""), T(C, P, "t");
    for (unsigned K = 0; K < Slices; ++K) {
      // With --trace 1, every other slice is traced.
      bool Traced = C.Trace && K % 2;
      Paths &To = Traced ? T : U;
      setSpanRecording(Traced);
      runPlans(C, P, F, Sh.Plan * SliceS, To.Plan);
      runPrograms(P, F, Sh.Run * SliceS, To.Exec);
      runServe(C, P, F, Sh.Serve * SliceS, To.Serve);
    }
    setSpanRecording(false);
    Attempted = U.attempted() + T.attempted();
    StealShare = stealShare(Cpu0, cpuTimes());
    if (!C.Trace) {
      endToEnd(Rep, Extra, median(SetupS), U.Plan, U.Exec, U.Serve);
    } else {
      std::vector<SpanRecord> Spans = takeSpans();
      // The model runs after the window are traced too, into the file.
      setSpanRecording(true);
      perLayer(Rep, Extra, C, P, U, T, selfTimesByOp(Spans));
      setSpanRecording(false);
      std::vector<SpanRecord> Late = takeSpans();
      Spans.insert(Spans.end(), Late.begin(), Late.end());
      std::string Path = std::string("perfbench-trace-") +
                         workloadName(C.Workload) + "-" +
                         std::to_string(C.Seed) + ".json";
      writeSpans(Path, Spans,
                 {{"workload", workloadName(C.Workload)},
                  {"seed", std::to_string(C.Seed)},
                  {"host", hostJson(C, StealShare)}});
    }
  }
  P = Prepared(); // stops the server before the report

  unsigned long long Failed = F.count();
  Attempted = std::max(Attempted, Failed);
  Rep.printTable(C.Trace ? "per-layer metrics" : "end-to-end metrics");
  if (!Extra.metrics().empty())
    Extra.printTable(C.Trace ? "speculative programs"
                             : "tail latencies and sample counts (printed, "
                               "not bounded)");
  std::printf("  %-44s %16.6g %s\n", "error_rate",
              ratio(static_cast<double>(Failed), std::max(1ull, Attempted)),
              "failed/attempted");
  std::printf("host %s\n", hostJson(C, StealShare).c_str());
  bool Correct = Ready && Failed == 0;
  std::printf("%s\n",
              Rep.resultJson(Correct, std::max(1ull, Attempted), Failed)
                  .c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
