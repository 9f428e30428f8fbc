//===- Generator.h - Seeded inputs of the psc benchmark ----------*- C++ -*-===//
///
/// \file
/// Everything the benchmark feeds the program is derived here from the
/// workload name and the seed, so one seed always gives the same inputs:
///
///   * the program slots: the ten built-in kernels under sound plans, the
///     three speculation kernels (UA, RX, CG) under plans from a trained
///     profile, and UA with its permutation broken (the rollback case);
///   * structural variants: a kernel with inert statements inserted at the
///     top level of every function. The inserted local is named after the
///     seed and a serial number, so every variant has new body hashes and
///     no source- or body-hash-keyed cache can serve it, while the program
///     still prints exactly what the kernel prints;
///   * the op streams: which variant each plan op compiles and plans,
///     which program each run op executes, and which request each pscd
///     client sends next.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATOR_H
#define PERFBENCH_GENERATOR_H

#include "workloads/Workloads.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// One program the benchmark plans and runs.
struct Slot {
  std::string Name;               ///< "BT" ... "RX", "UA.spec", "UA.adv".
  const psc::Workload *Kernel;    ///< The built-in kernel it derives from.
  std::string Source;             ///< Kernel source (adversarial for UA.adv).
  bool Spec = false;              ///< Planned against a trained profile.
  bool Adversarial = false;       ///< Must misspeculate and roll back.
  /// Index of the slot whose clean source trains the profile (itself for
  /// UA.spec/RX.spec/CG.spec, UA.spec for UA.adv); -1 = sound plans.
  int TrainSlot = -1;
};

/// The fourteen slots; the first ten are the built-in kernels in
/// extendedWorkloads() order.
const std::vector<Slot> &slots();
constexpr unsigned NumKernelSlots = 10;

/// The benchmark's workloads.
enum class WorkloadKind { PlanCold, RunParallel, PscdMixed };
bool parseWorkload(const std::string &Name, WorkloadKind &Out);
const char *workloadName(WorkloadKind W);

/// Deterministic stream of never-repeating kernel variants: each inserts
/// into every function a fresh local, declared after a seed-chosen
/// top-level statement and updated after up to two later ones. The local's
/// name carries the seed and a serial number, so every function's body
/// hash is new; output and exit value are the kernel's.
class VariantGenerator {
public:
  explicit VariantGenerator(uint64_t Seed, const std::string &Stream);
  /// The next variant of \p Source (never equal to an earlier one).
  std::string next(const std::string &Source);

private:
  std::mt19937_64 Rng;
  std::string Prefix;
  uint64_t Serial = 0;
};

/// Seeded rounds over \p N slots: each round visits every slot once, in
/// a shuffled order, so every slot gets the same share of ops.
class SlotRounds {
public:
  SlotRounds(unsigned N, uint64_t Seed);
  unsigned next();
  /// True between rounds: the last round is complete.
  bool atRoundStart() const { return Pos == Order.size(); }

private:
  std::mt19937_64 Rng;
  std::vector<unsigned> Order; ///< Current round.
  size_t Pos;
};

/// One plan op: a never-seen variant of one of the ten kernels.
struct PlanOp {
  unsigned Slot = 0;
  std::string Source;
};

/// The plan path's op stream: rounds over the ten kernels, each op a fresh
/// variant. \p Stream separates independent streams of one seed.
class PlanStream {
public:
  PlanStream(uint64_t Seed, const std::string &Stream);
  PlanOp next();
  bool atRoundStart() const { return Rounds.atRoundStart(); }

private:
  SlotRounds Rounds;
  VariantGenerator Variants;
};

/// Request classes of the pscd load: what is sent, and in which mode.
enum class RequestClass {
  WarmFull,
  WarmAnalyze,
  ColdFull,
  ColdAnalyze,
  SpecAnalyze,
  ProfileMerge
};
constexpr unsigned NumRequestClasses = 6;
const char *requestClassName(RequestClass C);

/// One pscd request, before it is framed.
struct ServeOp {
  RequestClass Class = RequestClass::WarmFull;
  /// Warm: working-set index; Cold: kernel slot; Spec: spec-set index.
  unsigned Program = 0;
  /// Session mode: "full" or "analyze" (empty for a profile merge).
  const char *mode() const;
};

/// The request stream of one pscd client, in rounds of seven requests:
/// two warm `full` and two warm `analyze` sessions, one cold session
/// (`full` and `analyze` in alternate rounds), one spec `analyze` session
/// and one profile merge, in a seeded order. Warm is the smallest
/// majority with as many `full` as `analyze` sessions; the other three
/// kinds of traffic are one request each. No recorded pscd traffic exists
/// to weight them otherwise.
class ServeStream {
public:
  ServeStream(uint64_t Seed, unsigned Client, unsigned WorkingSetSize,
              unsigned SpecSetSize);
  ServeOp next();
  bool atRoundStart() const { return Pos == Round.size(); }

private:
  std::mt19937_64 Rng;
  unsigned WorkingSet, SpecSet;
  std::vector<RequestClass> Round;
  size_t Pos = 0;
  uint64_t Rounds = 0;
};

/// Warm working set of the pscd load: each kernel and this many of its
/// fixed variants, 40 programs. They fit the server's 64-entry module
/// cache together with the cold modules that arrive between two uses of
/// one warm program (40 warm requests, so 10 cold ones, on average), so
/// warm sessions hit while the cold stream overflows the cache and evicts.
constexpr unsigned WarmVariantsPerKernel = 3;
std::vector<std::string> warmWorkingSet(uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_H
