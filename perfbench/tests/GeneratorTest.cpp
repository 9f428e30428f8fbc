//===- GeneratorTest.cpp - The benchmark's seeded input generator --------===//

#include "Bench.h"
#include "Generator.h"

#include "emulator/Interpreter.h"
#include "pspdg/Fingerprint.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;
using namespace psc;

namespace {

std::set<uint64_t> bodyHashes(const std::string &Source) {
  std::set<uint64_t> Out;
  std::unique_ptr<Module> M = compileOrDie(Source);
  for (const auto &F : M->functions())
    if (!F->isDeclaration())
      Out.insert(functionBodyHash(*F));
  return Out;
}

TEST(GeneratorTest, OneSeedGivesOneOpSequence) {
  PlanStream A(42, "p"), B(42, "p");
  SlotRounds RA(14, 42), RB(14, 42);
  ServeStream SA(42, 1, 40, 2), SB(42, 1, 40, 2);
  for (int I = 0; I < 60; ++I) {
    PlanOp X = A.next(), Y = B.next();
    EXPECT_EQ(X.Slot, Y.Slot);
    EXPECT_EQ(X.Source, Y.Source);
    EXPECT_EQ(RA.next(), RB.next());
    ServeOp P = SA.next(), Q = SB.next();
    EXPECT_EQ(P.Class, Q.Class);
    EXPECT_EQ(P.Program, Q.Program);
  }
  EXPECT_EQ(warmWorkingSet(7), warmWorkingSet(7));
}

TEST(GeneratorTest, RoundsGiveTheStatedMix) {
  // Every round of slots visits each slot once.
  SlotRounds R(14, 5);
  for (int Round = 0; Round < 3; ++Round) {
    std::set<unsigned> Seen;
    for (int I = 0; I < 14; ++I)
      Seen.insert(R.next());
    EXPECT_EQ(Seen.size(), 14u);
    EXPECT_TRUE(R.atRoundStart());
  }
  // Two rounds of requests: 4 warm full, 4 warm analyze, one cold session
  // of each mode, 2 spec analyze and 2 profile merges.
  ServeStream S(5, 0, 40, 2);
  unsigned Count[NumRequestClasses] = {};
  for (int I = 0; I < 14; ++I)
    ++Count[static_cast<unsigned>(S.next().Class)];
  EXPECT_TRUE(S.atRoundStart());
  const unsigned Want[NumRequestClasses] = {4, 4, 1, 1, 2, 2};
  for (unsigned K = 0; K < NumRequestClasses; ++K)
    EXPECT_EQ(Count[K], Want[K])
        << requestClassName(static_cast<RequestClass>(K));
}

TEST(GeneratorTest, SeedsGiveDistinctBodyHashes) {
  std::set<uint64_t> Kernels, Seen[2];
  for (unsigned K = 0; K < NumKernelSlots; ++K)
    for (uint64_t H : bodyHashes(slots()[K].Source))
      Kernels.insert(H);
  for (int S = 0; S < 2; ++S) {
    PlanStream Stream(100 + S, "p");
    for (unsigned I = 0; I < 2 * NumKernelSlots; ++I) {
      for (uint64_t H : bodyHashes(Stream.next().Source)) {
        EXPECT_FALSE(Kernels.count(H)) << "variant reuses a kernel body";
        EXPECT_TRUE(Seen[S].insert(H).second) << "variant body repeats";
      }
    }
  }
  for (uint64_t H : Seen[0])
    EXPECT_FALSE(Seen[1].count(H)) << "two seeds share a body hash";
}

TEST(GeneratorTest, VariantsCompileAndPrintTheChecksum) {
  VariantGenerator Gen(3, "t");
  for (unsigned K = 0; K < NumKernelSlots; ++K) {
    const Slot &S = slots()[K];
    std::string Base = renderPlans(*compileOrDie(S.Source), {});
    for (int V = 0; V < 3; ++V) {
      std::string Src = Gen.next(S.Source);
      ASSERT_NE(Src, S.Source);
      CompileResult CR = compileSource(Src, S.Name);
      ASSERT_TRUE(CR.ok()) << S.Name << ":\n" << Src;
      RunResult R = Interpreter(*CR.M).run();
      ASSERT_TRUE(R.Completed);
      ASSERT_FALSE(R.Output.empty());
      EXPECT_EQ(R.Output.back(), std::to_string(S.Kernel->ExpectedChecksum))
          << S.Name;
      // The statements are inert for the planner too: every loop keeps
      // its plan.
      EXPECT_EQ(renderPlans(*CR.M, {}), Base) << S.Name;
    }
  }
}

} // namespace
