//===- Bench.h - Shared state of the psc benchmark ---------------*- C++ -*-===//
///
/// \file
/// Every run of the benchmark drives the three paths a psc user takes,
/// over the seeded inputs:
///
///   * plan ops — `pscc --plans` done in-process: compile a never-seen
///     kernel variant and build its runtime plan, no execution;
///   * run ops — one `ParallelRuntime` run of a program compiled and
///     planned in set-up, checked against the sequential run;
///   * pscd sessions — a closed loop of clients against an in-process
///     service::Server on a unix socket, each client one connection.
///
/// The workload decides how the timed window is shared among them. Set-up
/// (profiles, reference outputs and plans, the warmed server) happens
/// before any of them is timed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Generator.h"
#include "Stats.h"

#include "analysis/DepOracle.h"
#include "emulator/ExecCore.h"
#include "frontend/Frontend.h"
#include "profiling/DepProfile.h"
#include "runtime/Schedule.h"
#include "service/Server.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  WorkloadKind Workload = WorkloadKind::PlanCold;
  uint64_t Seed = 0;
  double Seconds = 1;
  bool Trace = false;
  unsigned Workers = 1; ///< Parallel-runtime threads: nproc, at most 4.
  unsigned Clients = 1; ///< pscd clients: nproc, at most 4.
  std::string SourceId; ///< Identity of the measured sources.
};

/// Counts a failed check with its reason (first few go to stderr).
class Failures {
public:
  void fail(const std::string &What);
  unsigned long long count() const { return N.load(); }

private:
  std::atomic<unsigned long long> N{0};
  std::mutex Mu;
};

/// Everything set-up prepares.
struct Prepared {
  /// Per slot: the trained profile of its training slot (Spec slots only).
  std::vector<std::shared_ptr<psc::DepProfile>> Profiles;
  /// Per slot: sequential output and exit value of the slot source.
  std::vector<psc::RunResult> Reference;
  /// Per slot: standalone `--plans` lines of the slot source, and the
  /// schedule table of its runtime plan. Variants of a kernel render the
  /// same (their statements are inert; the generator test checks it).
  std::vector<std::string> PlanLines, Schedules;
  /// Per slot: the compiled slot source and its runtime plan, which the
  /// run ops execute.
  std::vector<std::unique_ptr<psc::Module>> Modules;
  std::vector<psc::RuntimePlan> Plans;

  /// pscd load: warm working set (kernel index = i / (1 + variants)).
  std::vector<std::string> WarmSources, WarmPlanLines;
  /// pscd load: spec-analyze programs (slots) and their plan lines
  /// against the profile the server's store holds.
  std::vector<unsigned> SpecSet;
  std::vector<std::string> SpecPlanLines;
  std::string MergeProfileJson;

  std::unique_ptr<psc::service::Server> Server;
  std::string SocketPath;
};

/// The `--plans` table of \p M, rendered standalone (one shared oracle
/// stack per function, as `pscc --plans` does).
std::string renderPlans(const psc::Module &M,
                        const psc::DepOracleConfig &Cfg);

/// pscc's --grain=auto for \p Workers threads: demote loops below this
/// machine's parallel grain.
psc::GrainConfig autoGrain(unsigned Workers);

/// Oracle stack of a slot: sound, or speculative against its profile.
psc::DepOracleConfig oracleConfig(const Prepared &P, unsigned Slot);

/// The schedule kinds of a runtime plan: one line per planned loop.
std::string renderSchedules(const psc::RuntimePlan &Plan);

/// Set-up; aborts the run (returns false) if a reference cannot be made.
bool prepare(const Config &C, Prepared &P, Failures &F);

/// Samples and counters of the plan ops, accumulated over the slices of
/// a run; the op stream continues from slice to slice.
struct PlanResult {
  PlanResult(uint64_t Seed, const std::string &Stream)
      : Stream(Seed, Stream), PlanMsByKernel(NumKernelSlots) {}
  PlanStream Stream;
  std::vector<double> PlanMs;   ///< Per op: thread CPU ms, source -> plan.
  std::vector<std::vector<double>> PlanMsByKernel; ///< Per kernel slot.
  unsigned long long Attempted = 0;
  // Layer counters, summed over ops.
  double Instructions = 0, Queries = 0, MemoHits = 0, Fallback = 0;
  double Answered = 0, NoDep = 0, PSPDGNodes = 0;
  double LoopsPlanned = 0, LoopsParallel = 0, GrainDemotions = 0;
};

/// One slice of plan ops: whole rounds over the kernels until \p Seconds
/// pass.
void runPlans(const Config &C, const Prepared &P, Failures &F,
              double Seconds, PlanResult &R);

/// Samples and counters of the run ops, accumulated over the slices of a
/// run; the op stream continues from slice to slice.
struct ExecResult {
  explicit ExecResult(uint64_t Seed);
  SlotRounds Stream;
  /// Per op: wall ms, slot, and the slice it ran in (an index into
  /// SliceSteal).
  std::vector<double> RunMs;
  std::vector<unsigned> RunSlot, RunSlice;
  /// Per slice: share of CPU time the hypervisor stole during the ops.
  std::vector<double> SliceSteal;
  /// Per slot: the run times of the ops in slices marked in \p Keep
  /// (every slice when empty).
  std::vector<std::vector<double>>
  msBySlot(const std::vector<bool> &Keep = {}) const;
  unsigned long long Attempted = 0;
  // Layer counters, summed over ops.
  double LoopsRunParallel = 0, ParallelIterations = 0;
  double SpecInvocations = 0, Misspecs = 0, SpecLogEntries = 0;
  double PeakOverlayBytes = 0;
};

/// One slice of run ops: whole rounds over the slots until \p Seconds
/// pass.
void runPrograms(const Prepared &P, Failures &F, double Seconds,
                 ExecResult &R);

/// Samples of the pscd load, accumulated over the slices of a run; each
/// client's request stream continues from slice to slice. \p Stream
/// separates the cold variants of two results of one seed.
struct ServeResult {
  ServeResult(const Config &C, const Prepared &P, const std::string &Stream);
  std::vector<ServeStream> Streams;     ///< Per client.
  std::vector<VariantGenerator> Fresh;  ///< Per client: cold programs.
  /// Every request: client-side ms and the slice it was sent in.
  std::vector<double> RequestMs;
  std::vector<unsigned> RequestSlice;
  std::vector<double> ClassMs[NumRequestClasses]; ///< Per request class.
  /// Per slice: requests per second, and the share of CPU time the
  /// hypervisor stole meanwhile.
  std::vector<double> SliceRate, SliceSteal;
  unsigned long long Attempted = 0;
  /// Change of a server stats counter over the slices.
  double delta(const std::string &Section, const std::string &Key) const;
  std::map<std::string, double> Deltas;
};

/// One slice of pscd load: a closed loop of C.Clients connections, each
/// sending whole rounds of its stream until \p Seconds pass.
void runServe(const Config &C, const Prepared &P, Failures &F,
              double Seconds, ServeResult &R);

/// Number from the server's stats JSON: \p Key inside object \p Section
/// (or at top level when \p Section is empty).
double statOf(const std::string &Json, const char *Section, const char *Key);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
