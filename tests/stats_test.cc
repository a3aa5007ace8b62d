#include "core/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace wfit {
namespace {

TEST(RecencyRingTest, EmptyRingIsZero) {
  RecencyRing r;
  EXPECT_DOUBLE_EQ(r.CurrentValue(100), 0.0);
  EXPECT_EQ(r.size(), 0u);
}

TEST(RecencyRingTest, ZeroHistSizeDisablesHistory) {
  // hist_size = 0 is a legal knob value: records are dropped and the
  // ring stays permanently empty (and must not crash the ring indexing).
  RecencyRing r;
  r.Record(0, 1, 5.0);
  r.Record(0, 2, 7.0);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_DOUBLE_EQ(r.CurrentValue(3), 0.0);
  EXPECT_TRUE(r.Entries().empty());
  r.Restore(0, {{1, 5.0}, {2, 7.0}});
  EXPECT_EQ(r.size(), 0u);
}

TEST(RecencyRingTest, SingleEntryFormula) {
  RecencyRing r;
  r.Record(10, 5, 12.0);
  // value*_N = 12 / (N − 5 + 1).
  EXPECT_DOUBLE_EQ(r.CurrentValue(5), 12.0);
  EXPECT_DOUBLE_EQ(r.CurrentValue(10), 12.0 / 6.0);
  EXPECT_DOUBLE_EQ(r.CurrentValue(16), 1.0);
}

TEST(RecencyRingTest, MaxOverSuffixAverages) {
  // Entries (n=1,b=10), (n=9,b=1), now N=10:
  //   ℓ=1: 1 / (10−9+1)      = 0.5
  //   ℓ=2: (1+10) / (10−1+1) = 1.1   <- max
  RecencyRing r;
  r.Record(10, 1, 10.0);
  r.Record(10, 9, 1.0);
  EXPECT_DOUBLE_EQ(r.CurrentValue(10), 1.1);
}

TEST(RecencyRingTest, RecentSpikesDominate) {
  // A big recent benefit outweighs a long history of small ones.
  RecencyRing r;
  for (uint64_t n = 1; n <= 50; ++n) r.Record(100, n, 1.0);
  r.Record(100, 51, 100.0);
  // ℓ=1: 100/1 = 100 clearly the max.
  EXPECT_DOUBLE_EQ(r.CurrentValue(51), 100.0);
}

TEST(RecencyRingTest, HistSizeEvictsOldest) {
  RecencyRing r;
  r.Record(3, 1, 1000.0);  // will be evicted
  r.Record(3, 2, 1.0);
  r.Record(3, 3, 1.0);
  r.Record(3, 4, 1.0);
  EXPECT_EQ(r.size(), 3u);
  // If the 1000 entry survived, the value at N=4 would be ≥ 1000/4 = 250.
  EXPECT_LT(r.CurrentValue(4), 10.0);
}

// The ring is walked as two linear runs split at the newest slot; at
// every rotation the walk must see the entries in recording order and
// sum them newest to oldest exactly as the formula's reference does.
TEST(RecencyRingTest, WrappedRingWalksInOrderAtEveryRotation) {
  constexpr uint32_t kHist = 5;
  RecencyRing r;
  std::vector<std::pair<uint64_t, double>> recorded;
  for (uint64_t n = 1; n <= 3 * kHist; ++n) {
    const double value = 1.0 / static_cast<double>(n) + (n % 3);
    r.Record(kHist, n, value);
    recorded.emplace_back(n, value);
    const size_t keep = std::min<size_t>(recorded.size(), kHist);
    const std::vector<std::pair<uint64_t, double>> window(
        recorded.end() - static_cast<std::ptrdiff_t>(keep), recorded.end());
    EXPECT_EQ(r.Entries(), window) << "after " << n << " records";
    const uint64_t now = n + 2;
    double best = 0.0, sum = 0.0;
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
      sum += it->second;
      best = std::max(best, sum / static_cast<double>(now - it->first + 1));
    }
    EXPECT_EQ(r.CurrentValue(now), best) << "after " << n << " records";
  }
}

TEST(RecencyRingDeathTest, DecreasingPositionsAbort) {
  RecencyRing r;
  r.Record(4, 10, 1.0);
  EXPECT_DEATH({ r.Record(4, 9, 1.0); }, "non-decreasing");
}

TEST(BenefitStatsTest, IgnoresNonPositiveBenefits) {
  BenefitStats stats(10);
  stats.Record(1, 1, 0.0);
  stats.Record(1, 2, -5.0);
  EXPECT_DOUBLE_EQ(stats.CurrentBenefit(1, 5), 0.0);
  stats.Record(1, 3, 6.0);
  EXPECT_GT(stats.CurrentBenefit(1, 3), 0.0);
}

TEST(BenefitStatsTest, UnknownIndexIsZero) {
  BenefitStats stats(10);
  EXPECT_DOUBLE_EQ(stats.CurrentBenefit(42, 100), 0.0);
}

TEST(BenefitStatsTest, TracksIndicesIndependently) {
  BenefitStats stats(10);
  stats.Record(1, 5, 10.0);
  stats.Record(2, 5, 20.0);
  EXPECT_DOUBLE_EQ(stats.CurrentBenefit(1, 5), 10.0);
  EXPECT_DOUBLE_EQ(stats.CurrentBenefit(2, 5), 20.0);
}

TEST(InteractionStatsTest, PairKeyIsUnordered) {
  InteractionStats stats(10);
  stats.Record(3, 7, 1, 5.0);
  EXPECT_DOUBLE_EQ(stats.CurrentDoi(3, 7, 1), 5.0);
  EXPECT_DOUBLE_EQ(stats.CurrentDoi(7, 3, 1), 5.0);
  EXPECT_TRUE(stats.HasInteraction(7, 3));
  EXPECT_FALSE(stats.HasInteraction(3, 8));
}

TEST(InteractionStatsTest, IgnoresZeroDoi) {
  InteractionStats stats(10);
  stats.Record(1, 2, 1, 0.0);
  EXPECT_FALSE(stats.HasInteraction(1, 2));
}

TEST(InteractionStatsDeathTest, SelfPairAborts) {
  InteractionStats stats(10);
  EXPECT_DEATH({ stats.Record(4, 4, 1, 1.0); }, "itself");
}

TEST(InteractionStatsTest, DecaysWithDistance) {
  InteractionStats stats(10);
  stats.Record(1, 2, 10, 8.0);
  double near = stats.CurrentDoi(1, 2, 10);
  double far = stats.CurrentDoi(1, 2, 100);
  EXPECT_GT(near, far);
  EXPECT_GT(far, 0.0);
}

}  // namespace
}  // namespace wfit
