//===- Generator.cpp - Seeded inputs of the psc benchmark -----------------===//

#include "Generator.h"

#include <cstdio>
#include <sstream>
#include <utility>

using namespace perfbench;

namespace {

std::string adversarialUA(std::string Src) {
  // Breaking the element->node permutation (167 -> 166, no longer coprime
  // with 512) makes the trained speculative scatter conflict at run time.
  size_t Pos = Src.find("i * 167 + 3");
  if (Pos != std::string::npos)
    Src.replace(Pos, 11, "i * 166 + 3");
  return Src;
}

std::vector<Slot> makeSlots() {
  std::vector<Slot> Out;
  for (const psc::Workload &W : psc::extendedWorkloads())
    Out.push_back({W.Name, &W, W.Source, false, false, -1});
  auto Index = [&](const char *Name) {
    for (unsigned I = 0; I < Out.size(); ++I)
      if (Out[I].Name == Name)
        return I;
    return 0u;
  };
  unsigned UA = Index("UA"), RX = Index("RX"), CG = Index("CG");
  int First = static_cast<int>(Out.size());
  Out.push_back(
      {"UA.spec", Out[UA].Kernel, Out[UA].Source, true, false, First});
  Out.push_back(
      {"RX.spec", Out[RX].Kernel, Out[RX].Source, true, false, First + 1});
  Out.push_back(
      {"CG.spec", Out[CG].Kernel, Out[CG].Source, true, false, First + 2});
  Out.push_back({"UA.adv", Out[UA].Kernel, adversarialUA(Out[UA].Source),
                 true, true, First});
  return Out;
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r");
  return S.substr(B, E - B + 1);
}

// Draws written out rather than taken from <random>'s distributions, whose
// results differ between standard libraries: one seed, one input set.
uint64_t pick(std::mt19937_64 &Rng, uint64_t N) { return Rng() % N; }

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ULL;
  return H;
}

std::string hexTag(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%012llx",
                static_cast<unsigned long long>(V & 0xffffffffffffULL));
  return Buf;
}

std::string insertInertStatements(const std::string &Source,
                                  const std::string &Tag, std::mt19937_64 &Rng) {
  std::vector<std::string> Lines;
  {
    std::istringstream In(Source);
    std::string L;
    while (std::getline(In, L))
      Lines.push_back(L);
  }
  // Top-level statements of each function body: lines at brace depth 1
  // that end a simple statement. Inserting after one never splits a
  // pragma from its statement or an if from its else, and never lands
  // inside a loop, so every plan keeps its shape.
  std::vector<std::vector<size_t>> Points; // per function
  int Depth = 0;
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::string Code = Lines[I].substr(0, Lines[I].find("//"));
    int Before = Depth;
    for (char C : Code)
      Depth += C == '{' ? 1 : C == '}' ? -1 : 0;
    if (Before == 0 && Depth == 1)
      Points.emplace_back();
    std::string T = trim(Code);
    if (Before == 1 && Depth == 1 && !T.empty() && T.back() == ';' &&
        T.rfind("return", 0) != 0 && !Points.empty())
      Points.back().push_back(I);
  }

  std::vector<std::string> After(Lines.size());
  for (size_t F = 0; F < Points.size(); ++F) {
    const std::vector<size_t> &P = Points[F];
    if (P.empty())
      continue;
    std::string Var = "inert_" + Tag + "_" + std::to_string(F);
    // 1..3 statements: the declaration, then updates after later points.
    size_t First = pick(Rng, P.size());
    unsigned Count = 1 + static_cast<unsigned>(pick(Rng, 3));
    std::string Indent = Lines[P[First]].substr(
        0, Lines[P[First]].find_first_not_of(" \t"));
    After[P[First]] += Indent + "int " + Var + " = " +
                       std::to_string(pick(Rng, 1000)) + ";\n";
    for (unsigned K = 1; K < Count; ++K) {
      size_t At = First + pick(Rng, P.size() - First);
      After[P[At]] += Indent + Var + " = " + Var + " * " +
                      std::to_string(1 + pick(Rng, 7)) + " + " +
                      std::to_string(pick(Rng, 100)) + ";\n";
    }
  }

  std::string Out;
  for (size_t I = 0; I < Lines.size(); ++I)
    Out += Lines[I] + "\n" + After[I];
  return Out;
}

} // namespace

const std::vector<Slot> &perfbench::slots() {
  static const std::vector<Slot> S = makeSlots();
  return S;
}

bool perfbench::parseWorkload(const std::string &Name, WorkloadKind &Out) {
  for (WorkloadKind W : {WorkloadKind::PlanCold, WorkloadKind::RunParallel,
                         WorkloadKind::PscdMixed})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

const char *perfbench::workloadName(WorkloadKind W) {
  switch (W) {
  case WorkloadKind::PlanCold:
    return "plan-cold";
  case WorkloadKind::RunParallel:
    return "run-parallel";
  case WorkloadKind::PscdMixed:
    return "pscd-mixed";
  }
  return "?";
}

VariantGenerator::VariantGenerator(uint64_t Seed, const std::string &Stream)
    : Rng(Seed ^ fnv1a(Stream)) {
  // The name prefix carries the seed, so two seeds never share a body hash.
  Prefix = hexTag(Seed * 0x9E3779B97F4A7C15ULL + 1) + Stream;
}

std::string VariantGenerator::next(const std::string &Source) {
  return insertInertStatements(Source, Prefix + "_" + std::to_string(Serial++),
                               Rng);
}

SlotRounds::SlotRounds(unsigned N, uint64_t Seed)
    : Rng(Seed * 31 + 7), Order(N), Pos(N) {
  for (unsigned I = 0; I < N; ++I)
    Order[I] = I;
}

unsigned SlotRounds::next() {
  if (Pos == Order.size()) {
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[pick(Rng, I)]);
    Pos = 0;
  }
  return Order[Pos++];
}

PlanStream::PlanStream(uint64_t Seed, const std::string &Stream)
    : Rounds(NumKernelSlots, Seed ^ fnv1a(Stream)), Variants(Seed, Stream) {}

PlanOp PlanStream::next() {
  PlanOp Op;
  Op.Slot = Rounds.next();
  Op.Source = Variants.next(slots()[Op.Slot].Source);
  return Op;
}

const char *perfbench::requestClassName(RequestClass C) {
  switch (C) {
  case RequestClass::WarmFull:
    return "warm_full";
  case RequestClass::WarmAnalyze:
    return "warm_analyze";
  case RequestClass::ColdFull:
    return "cold_full";
  case RequestClass::ColdAnalyze:
    return "cold_analyze";
  case RequestClass::SpecAnalyze:
    return "spec_analyze";
  case RequestClass::ProfileMerge:
    return "profile_merge";
  }
  return "?";
}

const char *ServeOp::mode() const {
  switch (Class) {
  case RequestClass::WarmFull:
  case RequestClass::ColdFull:
    return "full";
  case RequestClass::ProfileMerge:
    return "";
  default:
    return "analyze";
  }
}

ServeStream::ServeStream(uint64_t Seed, unsigned Client,
                         unsigned WorkingSetSize, unsigned SpecSetSize)
    : Rng(Seed * 1000003 + Client * 7919 + 11), WorkingSet(WorkingSetSize),
      SpecSet(SpecSetSize) {}

ServeOp ServeStream::next() {
  if (Pos == Round.size()) {
    RequestClass Cold = Rounds++ % 2 ? RequestClass::ColdAnalyze
                                     : RequestClass::ColdFull;
    Round = {RequestClass::WarmFull,    RequestClass::WarmFull,
             RequestClass::WarmAnalyze, RequestClass::WarmAnalyze,
             Cold,                      RequestClass::SpecAnalyze,
             RequestClass::ProfileMerge};
    for (size_t I = Round.size(); I > 1; --I)
      std::swap(Round[I - 1], Round[pick(Rng, I)]);
    Pos = 0;
  }
  ServeOp Op;
  Op.Class = Round[Pos++];
  switch (Op.Class) {
  case RequestClass::WarmFull:
  case RequestClass::WarmAnalyze:
    Op.Program = static_cast<unsigned>(pick(Rng, WorkingSet));
    break;
  case RequestClass::ColdFull:
  case RequestClass::ColdAnalyze:
    Op.Program = static_cast<unsigned>(pick(Rng, NumKernelSlots));
    break;
  case RequestClass::SpecAnalyze:
    Op.Program = static_cast<unsigned>(pick(Rng, SpecSet));
    break;
  case RequestClass::ProfileMerge:
    break;
  }
  return Op;
}

std::vector<std::string> perfbench::warmWorkingSet(uint64_t Seed) {
  VariantGenerator Gen(Seed, "w");
  std::vector<std::string> Out;
  for (unsigned K = 0; K < NumKernelSlots; ++K) {
    Out.push_back(slots()[K].Source);
    for (unsigned V = 0; V < WarmVariantsPerKernel; ++V)
      Out.push_back(Gen.next(slots()[K].Source));
  }
  return Out;
}
