// jstd::HashMap: functional tests plus randomized model-checking against
// std::unordered_map, and resize behaviour.
#include "jstd/hashmap.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

namespace jstd {
namespace {

TEST(HashMapTest, PutGetRemoveBasics) {
  HashMap<long, long> m;
  EXPECT_EQ(m.size(), 0);
  EXPECT_TRUE(m.is_empty());
  EXPECT_EQ(m.get(1), std::nullopt);
  EXPECT_EQ(m.put(1, 10), std::nullopt);
  EXPECT_EQ(m.put(2, 20), std::nullopt);
  EXPECT_EQ(m.size(), 2);
  EXPECT_FALSE(m.is_empty());
  EXPECT_EQ(m.get(1), 10);
  EXPECT_EQ(m.put(1, 11), 10);  // old value returned
  EXPECT_EQ(m.get(1), 11);
  EXPECT_EQ(m.size(), 2);
  EXPECT_TRUE(m.contains_key(2));
  EXPECT_EQ(m.remove(2), 20);
  EXPECT_FALSE(m.contains_key(2));
  EXPECT_EQ(m.remove(2), std::nullopt);
  EXPECT_EQ(m.size(), 1);
}

TEST(HashMapTest, CollidingKeysChainCorrectly) {
  struct BadHash {
    std::size_t operator()(long) const { return 42; }  // everything collides
  };
  HashMap<long, long, BadHash> m(4);
  for (long k = 0; k < 50; ++k) EXPECT_EQ(m.put(k, k * 2), std::nullopt);
  EXPECT_EQ(m.size(), 50);
  for (long k = 0; k < 50; ++k) EXPECT_EQ(m.get(k), k * 2);
  for (long k = 0; k < 50; k += 2) EXPECT_EQ(m.remove(k), k * 2);
  EXPECT_EQ(m.size(), 25);
  for (long k = 0; k < 50; ++k) {
    EXPECT_EQ(m.get(k), (k % 2 == 0) ? std::nullopt : std::optional<long>(k * 2));
  }
}

TEST(HashMapTest, ResizeGrowsTableAndPreservesEntries) {
  HashMap<long, long> m(4);
  const std::size_t before = m.bucket_count();
  for (long k = 0; k < 100; ++k) m.put(k, k);
  EXPECT_GT(m.bucket_count(), before);
  EXPECT_EQ(m.size(), 100);
  for (long k = 0; k < 100; ++k) EXPECT_EQ(m.get(k), k);
}

TEST(HashMapTest, IteratorVisitsEveryEntryExactlyOnce) {
  HashMap<long, long> m;
  for (long k = 0; k < 64; ++k) m.put(k, k + 1000);
  std::unordered_map<long, long> seen;
  for (auto it = m.iterator(); it->has_next();) {
    auto [k, v] = it->next();
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate key " << k;
  }
  EXPECT_EQ(seen.size(), 64u);
  for (long k = 0; k < 64; ++k) EXPECT_EQ(seen[k], k + 1000);
}

TEST(HashMapTest, IteratorOnEmptyMap) {
  HashMap<long, long> m;
  EXPECT_FALSE(m.iterator()->has_next());
}

class HashMapModelTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HashMapModelTest, MatchesStdUnorderedMap) {
  std::mt19937 rng(GetParam());
  HashMap<long, long> m(4);  // small: exercises chains and resize
  std::unordered_map<long, long> oracle;
  for (int step = 0; step < 3000; ++step) {
    const long key = static_cast<long>(rng() % 200);
    switch (rng() % 4) {
      case 0:
      case 1: {  // put
        const long v = static_cast<long>(rng());
        auto prev = oracle.find(key);
        auto expect = prev == oracle.end() ? std::nullopt : std::optional<long>(prev->second);
        EXPECT_EQ(m.put(key, v), expect);
        oracle[key] = v;
        break;
      }
      case 2: {  // remove
        auto prev = oracle.find(key);
        auto expect = prev == oracle.end() ? std::nullopt : std::optional<long>(prev->second);
        EXPECT_EQ(m.remove(key), expect);
        oracle.erase(key);
        break;
      }
      case 3: {  // get + size
        auto prev = oracle.find(key);
        auto expect = prev == oracle.end() ? std::nullopt : std::optional<long>(prev->second);
        EXPECT_EQ(m.get(key), expect);
        EXPECT_EQ(m.size(), static_cast<long>(oracle.size()));
        break;
      }
    }
  }
  EXPECT_EQ(m.size(), static_cast<long>(oracle.size()));
  for (const auto& [k, v] : oracle) EXPECT_EQ(m.get(k), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashMapModelTest, ::testing::Range(1u, 9u));

}  // namespace
}  // namespace jstd
