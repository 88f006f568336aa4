#include "util/bounded_heap.h"

#include <algorithm>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace tsc {
namespace {

TEST(BoundedTopHeapTest, KeepsAllUnderCapacity) {
  BoundedTopHeap<double, int> heap(10);
  heap.Offer(3.0, 3);
  heap.Offer(1.0, 1);
  heap.Offer(2.0, 2);
  EXPECT_EQ(heap.size(), 3u);
  auto entries = heap.TakeSortedDescending();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].value, 3);
  EXPECT_EQ(entries[1].value, 2);
  EXPECT_EQ(entries[2].value, 1);
}

TEST(BoundedTopHeapTest, EvictsSmallest) {
  BoundedTopHeap<double, int> heap(2);
  EXPECT_TRUE(heap.Offer(1.0, 1));
  EXPECT_TRUE(heap.Offer(2.0, 2));
  EXPECT_TRUE(heap.Offer(3.0, 3));   // evicts key 1.0
  EXPECT_FALSE(heap.Offer(0.5, 0));  // too small
  auto entries = heap.TakeSortedDescending();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].value, 3);
  EXPECT_EQ(entries[1].value, 2);
}

TEST(BoundedTopHeapTest, CapacityZeroRetainsNothing) {
  BoundedTopHeap<double, int> heap(0);
  EXPECT_FALSE(heap.Offer(100.0, 1));
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.KeySum(), 0.0);
}

TEST(BoundedTopHeapTest, KeySumMatchesRetained) {
  BoundedTopHeap<double, int> heap(3);
  heap.Offer(5.0, 0);
  heap.Offer(1.0, 0);
  heap.Offer(4.0, 0);
  heap.Offer(2.0, 0);  // evicts 1.0
  EXPECT_NEAR(heap.KeySum(), 11.0, 1e-12);
}

TEST(BoundedTopHeapTest, MinKeyIsSmallestRetained) {
  BoundedTopHeap<double, int> heap(3);
  heap.Offer(5.0, 0);
  heap.Offer(1.0, 0);
  heap.Offer(4.0, 0);
  EXPECT_EQ(heap.MinKey(), 1.0);
  heap.Offer(2.0, 0);
  EXPECT_EQ(heap.MinKey(), 2.0);
}

/// Property: against a stream of random keys, the heap retains exactly the
/// capacity largest, for a sweep of capacities.
class BoundedHeapPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoundedHeapPropertyTest, RetainsTopCapacityKeys) {
  const std::size_t capacity = GetParam();
  Rng rng(capacity + 17);
  BoundedTopHeap<double, std::size_t> heap(capacity);
  std::vector<double> keys;
  for (std::size_t i = 0; i < 500; ++i) {
    const double key = rng.UniformDouble(0, 1000);
    keys.push_back(key);
    heap.Offer(key, i);
  }
  std::sort(keys.begin(), keys.end(), std::greater<double>());
  auto entries = heap.TakeSortedDescending();
  const std::size_t expected = std::min<std::size_t>(capacity, keys.size());
  ASSERT_EQ(entries.size(), expected);
  for (std::size_t i = 0; i < expected; ++i) {
    EXPECT_DOUBLE_EQ(entries[i].key, keys[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, BoundedHeapPropertyTest,
                         ::testing::Values(0, 1, 2, 7, 50, 499, 500, 1000));

TEST(BoundedTopSelectorTest, CapacityZeroRetainsNothing) {
  BoundedTopSelector<double, int> selector(0);
  selector.Offer(1.0, 1);
  EXPECT_EQ(selector.size(), 0u);
  EXPECT_FALSE(selector.HasCutoff());
}

/// Property: the retained superset always contains the exact top
/// `capacity` keys, the buffer never grows past 1.25x capacity, and once
/// a cutoff exists nothing below it is admitted.
TEST(BoundedTopSelectorTest, RetainsTopCapacityWithinSlack) {
  constexpr std::size_t kCapacity = 8000;
  BoundedTopSelector<double, std::size_t> selector(kCapacity);
  Rng rng(3);
  std::vector<double> keys;
  for (std::size_t i = 0; i < 50000; ++i) {
    const double key = rng.UniformDouble(0, 1e6);
    keys.push_back(key);
    selector.Offer(key, i);
  }
  ASSERT_TRUE(selector.HasCutoff());
  EXPECT_LE(selector.peak_size(), kCapacity + kCapacity / 4);
  const double cutoff = selector.Cutoff();
  const std::size_t before = selector.size();
  selector.Offer(cutoff - 1.0, 0);
  EXPECT_EQ(selector.size(), before);

  std::vector<double> got;
  for (const auto& entry : selector.Take()) got.push_back(entry.key);
  EXPECT_EQ(selector.size(), 0u);
  EXPECT_FALSE(selector.HasCutoff());
  std::sort(got.begin(), got.end(), std::greater<double>());
  std::sort(keys.begin(), keys.end(), std::greater<double>());
  ASSERT_GE(got.size(), kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) EXPECT_EQ(got[i], keys[i]);
}

}  // namespace
}  // namespace tsc
