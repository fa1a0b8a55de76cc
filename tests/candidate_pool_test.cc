/// CandidatePool, the bounded candidate set shared by the CountMin and
/// CountSketch heavy-hitter trackers and every Indyk–Woodruff depth: offer,
/// evict-the-weakest, refresh and union semantics.

#include "sketch/candidate_pool.h"

#include <cstdint>
#include <unordered_map>

#include <gtest/gtest.h>

namespace substream {
namespace {

TEST(CandidatePoolTest, FillsToCapacityThenEvictsTheWeakest) {
  CandidatePool<count_t> pool(3);
  pool.Offer(1, 10);
  pool.Offer(2, 5);
  pool.Offer(3, 7);
  EXPECT_EQ(pool.size(), 3u);
  // Not stronger than the weakest (5): rejected.
  pool.Offer(4, 5);
  EXPECT_EQ(pool.entries().count(4), 0u);
  // Stronger: replaces item 2.
  pool.Offer(4, 6);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.entries().count(2), 0u);
  EXPECT_EQ(pool.entries().at(4), 6u);
}

TEST(CandidatePoolTest, TrackedItemTakesTheNewEstimate) {
  CandidatePool<double> pool(2);
  pool.Offer(1, 4.0);
  pool.Offer(2, 9.0);
  // Updating a tracked item never evicts, even when the value drops.
  pool.Offer(2, 1.0);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.entries().at(2), 1.0);
  EXPECT_EQ(pool.entries().at(1), 4.0);
}

TEST(CandidatePoolTest, TiesForWeakestEvictTheFirstInIterationOrder) {
  CandidatePool<count_t> pool(4);
  for (item_t item : {11, 12, 13, 14}) pool.Offer(item, 3);
  const item_t first = pool.entries().begin()->first;
  pool.Offer(99, 4);
  EXPECT_EQ(pool.entries().count(first), 0u);
  EXPECT_EQ(pool.entries().count(99), 1u);
}

TEST(CandidatePoolTest, ZeroCapacityTracksNothing) {
  // Decoders accept a zero capacity; offering must not scan an empty map
  // for a weakest entry to evict.
  CandidatePool<count_t> pool(0);
  pool.Offer(1, 10);
  pool.Offer(2, 20);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(CandidatePoolTest, RefreshThenUnionUsesMergedEstimates) {
  const std::unordered_map<item_t, count_t> merged = {
      {1, 2}, {2, 20}, {3, 30}, {4, 40}};
  const auto estimate = [&](item_t item) { return merged.at(item); };
  CandidatePool<count_t> pool(3), other(3);
  pool.Offer(1, 100);  // stale: the merged sketch says 2
  pool.Offer(2, 1);    // stale: the merged sketch says 20
  other.Offer(3, 1);
  other.Offer(4, 1);
  pool.Refresh(estimate);
  EXPECT_EQ(pool.entries().at(1), 2u);
  pool.Union(other, estimate);
  // Item 3 fills the free slot; item 4 (40) evicts item 1 (2).
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.entries().count(1), 0u);
  EXPECT_EQ(pool.entries().at(3), 30u);
  EXPECT_EQ(pool.entries().at(4), 40u);
}

TEST(CandidatePoolTest, UnionSkipsItemsBelowTheFloor) {
  CandidatePool<double> pool(4), other(4);
  other.Offer(1, 5.0);
  other.Offer(2, 5.0);
  pool.Union(
      other, [](item_t item) { return item == 1 ? 0.5 : 3.0; },
      /*min_estimate=*/1.0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.entries().at(2), 3.0);
}

TEST(CandidatePoolTest, ClearKeepsCapacity) {
  CandidatePool<count_t> pool(2);
  pool.Offer(1, 1);
  pool.Clear();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.capacity(), 2u);
}

}  // namespace
}  // namespace substream
