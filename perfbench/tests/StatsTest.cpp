//===- StatsTest.cpp - The benchmark's sample statistics -----------------===//

#include "Stats.h"

#include <gtest/gtest.h>

using namespace perfbench;

namespace {

TEST(StatsTest, QuietSlicesAreTheLeastStolenHalf) {
  std::vector<bool> Q = quietSlices({0.10, 0.01, 0.30, 0.02, 0.0, 0.20});
  EXPECT_EQ(Q, (std::vector<bool>{false, true, false, true, true, false}));
  // An odd count keeps the larger half; ties keep the earlier slice.
  EXPECT_EQ(quietSlices({0.5, 0.5, 0.5}),
            (std::vector<bool>{true, true, false}));
  EXPECT_TRUE(quietSlices({}).empty());
}

TEST(StatsTest, StealShareIsStolenOverTotal) {
  EXPECT_DOUBLE_EQ(stealShare({10, 1000}, {30, 1400}), 0.05);
  EXPECT_EQ(stealShare({10, 1000}, {10, 1000}), 0);
}

TEST(StatsTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_LT(samplesBeyond(999, 0.99), MinBeyond);
  EXPECT_GE(samplesBeyond(1100, 0.99), MinBeyond);
  EXPECT_EQ(median({3, 1, 2, 10}), 2.5);
}

} // namespace
