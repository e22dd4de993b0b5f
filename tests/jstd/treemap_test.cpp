// jstd::TreeMap: functional tests, ordered iteration / range views,
// endpoints, and property-based red-black invariant checking against
// std::map under randomized operation sequences.
#include "jstd/treemap.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

namespace jstd {
namespace {

TEST(TreeMapTest, PutGetRemoveBasics) {
  TreeMap<long, long> m;
  EXPECT_EQ(m.size(), 0);
  EXPECT_EQ(m.put(5, 50), std::nullopt);
  EXPECT_EQ(m.put(3, 30), std::nullopt);
  EXPECT_EQ(m.put(8, 80), std::nullopt);
  EXPECT_EQ(m.size(), 3);
  EXPECT_EQ(m.get(3), 30);
  EXPECT_EQ(m.put(3, 31), 30);
  EXPECT_EQ(m.remove(5), 50);
  EXPECT_EQ(m.get(5), std::nullopt);
  EXPECT_EQ(m.size(), 2);
  EXPECT_TRUE(m.check_invariants());
}

TEST(TreeMapTest, FirstAndLastKey) {
  TreeMap<long, long> m;
  EXPECT_EQ(m.first_key(), std::nullopt);
  EXPECT_EQ(m.last_key(), std::nullopt);
  for (long k : {42L, 7L, 99L, 1L, 65L}) m.put(k, k);
  EXPECT_EQ(m.first_key(), 1);
  EXPECT_EQ(m.last_key(), 99);
  m.remove(1);
  m.remove(99);
  EXPECT_EQ(m.first_key(), 7);
  EXPECT_EQ(m.last_key(), 65);
}

TEST(TreeMapTest, IterationIsInOrder) {
  TreeMap<long, long> m;
  std::mt19937 rng(11);
  for (int i = 0; i < 300; ++i) m.put(static_cast<long>(rng() % 1000), i);
  long prev = -1;
  long count = 0;
  for (auto it = m.iterator(); it->has_next();) {
    auto [k, v] = it->next();
    EXPECT_GT(k, prev);
    prev = k;
    ++count;
  }
  EXPECT_EQ(count, m.size());
}

TEST(TreeMapTest, RangeIteratorRespectsHalfOpenBounds) {
  TreeMap<long, long> m;
  for (long k = 0; k < 100; k += 2) m.put(k, k);  // evens 0..98
  std::vector<long> keys;
  for (auto it = m.range_iterator(10L, 20L); it->has_next();) keys.push_back(it->next().first);
  EXPECT_EQ(keys, (std::vector<long>{10, 12, 14, 16, 18}));
  // Bounds between keys.
  keys.clear();
  for (auto it = m.range_iterator(11L, 17L); it->has_next();) keys.push_back(it->next().first);
  EXPECT_EQ(keys, (std::vector<long>{12, 14, 16}));
  // Open bounds.
  keys.clear();
  for (auto it = m.range_iterator(std::nullopt, 6L); it->has_next();) keys.push_back(it->next().first);
  EXPECT_EQ(keys, (std::vector<long>{0, 2, 4}));
  keys.clear();
  for (auto it = m.range_iterator(94L, std::nullopt); it->has_next();) keys.push_back(it->next().first);
  EXPECT_EQ(keys, (std::vector<long>{94, 96, 98}));
  // Empty range.
  EXPECT_FALSE(m.range_iterator(50L, 50L)->has_next());
  EXPECT_FALSE(m.range_iterator(1000L, std::nullopt)->has_next());
}

TEST(TreeMapTest, AscendingInsertStaysBalanced) {
  // The classic degenerate input for an unbalanced BST.
  TreeMap<long, long> m;
  for (long k = 0; k < 2048; ++k) {
    m.put(k, k);
    if (k % 256 == 0) {
      ASSERT_TRUE(m.check_invariants()) << "at k=" << k;
    }
  }
  EXPECT_TRUE(m.check_invariants());
  EXPECT_EQ(m.size(), 2048);
}

TEST(TreeMapTest, DescendingRemovalKeepsInvariants) {
  TreeMap<long, long> m;
  for (long k = 0; k < 512; ++k) m.put(k, k);
  for (long k = 511; k >= 0; --k) {
    EXPECT_EQ(m.remove(k), k);
    if (k % 64 == 0) {
      ASSERT_TRUE(m.check_invariants()) << "at k=" << k;
    }
  }
  EXPECT_EQ(m.size(), 0);
}

TEST(TreeMapTest, CustomComparator) {
  TreeMap<long, long, std::greater<long>> m;
  for (long k : {1L, 5L, 3L}) m.put(k, k);
  EXPECT_EQ(m.first_key(), 5);  // "first" under the reversed order
  EXPECT_EQ(m.last_key(), 1);
  std::vector<long> keys;
  for (auto it = m.iterator(); it->has_next();) keys.push_back(it->next().first);
  EXPECT_EQ(keys, (std::vector<long>{5, 3, 1}));
}

class TreeMapModelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(TreeMapModelTest, MatchesStdMapAndKeepsRedBlackInvariants) {
  std::mt19937 rng(GetParam());
  TreeMap<long, long> m;
  std::map<long, long> oracle;
  for (int step = 0; step < 2500; ++step) {
    const long key = static_cast<long>(rng() % 300);
    switch (rng() % 5) {
      case 0:
      case 1: {
        const long v = static_cast<long>(rng());
        auto prev = oracle.find(key);
        auto expect = prev == oracle.end() ? std::nullopt : std::optional<long>(prev->second);
        EXPECT_EQ(m.put(key, v), expect);
        oracle[key] = v;
        break;
      }
      case 2: {
        auto prev = oracle.find(key);
        auto expect = prev == oracle.end() ? std::nullopt : std::optional<long>(prev->second);
        EXPECT_EQ(m.remove(key), expect);
        oracle.erase(key);
        break;
      }
      case 3: {
        auto prev = oracle.find(key);
        auto expect = prev == oracle.end() ? std::nullopt : std::optional<long>(prev->second);
        EXPECT_EQ(m.get(key), expect);
        break;
      }
      case 4: {
        auto first = oracle.empty() ? std::nullopt : std::optional<long>(oracle.begin()->first);
        auto last = oracle.empty() ? std::nullopt : std::optional<long>(oracle.rbegin()->first);
        EXPECT_EQ(m.first_key(), first);
        EXPECT_EQ(m.last_key(), last);
        break;
      }
    }
    if (step % 100 == 0) {
      ASSERT_TRUE(m.check_invariants()) << "step " << step;
    }
  }
  ASSERT_TRUE(m.check_invariants());
  EXPECT_EQ(m.size(), static_cast<long>(oracle.size()));
  auto it = m.iterator();
  for (const auto& [k, v] : oracle) {
    ASSERT_TRUE(it->has_next());
    auto [mk, mv] = it->next();
    EXPECT_EQ(mk, k);
    EXPECT_EQ(mv, v);
  }
  EXPECT_FALSE(it->has_next());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeMapModelTest, ::testing::Range(1u, 13u));

}  // namespace
}  // namespace jstd
