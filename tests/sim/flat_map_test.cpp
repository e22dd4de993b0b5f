// Unit tests for sim::FlatMap: the open-addressing table behind the TM
// read/write sets and chop footprints.  The properties the runtime depends
// on — generation-stamped O(1) clear, stable behaviour across growth — are
// each pinned directly, then stressed against std::unordered_map as a
// reference model.
#include "sim/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace sim {
namespace {

TEST(FlatMapTest, InsertFindAcrossGrowth) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 1000; ++k) {
    auto [v, inserted] = m.try_emplace(k * 7 + 1, static_cast<int>(k));
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_EQ(m.size(), 1000u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    int* v = m.find(k * 7 + 1);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_EQ(m.find(0), nullptr);  // never inserted
}

TEST(FlatMapTest, TryEmplaceReturnsExistingEntry) {
  FlatMap<std::uint64_t, int> m;
  auto [v1, ins1] = m.try_emplace(42, 1);
  EXPECT_TRUE(ins1);
  auto [v2, ins2] = m.try_emplace(42, 99);
  EXPECT_FALSE(ins2);
  EXPECT_EQ(*v2, 1);  // init ignored when the key exists
  *v2 = 5;
  EXPECT_EQ(*m.find(42), 5);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, ClearIsGenerationStamped) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.try_emplace(k, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_EQ(m.find(k), nullptr);
  // Slots stale from the previous generation must not resurrect or block
  // fresh inserts.
  for (std::uint64_t k = 0; k < 100; ++k) {
    auto [v, inserted] = m.try_emplace(k, 2);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*v, 2);
  }
  EXPECT_EQ(m.size(), 100u);
}

TEST(FlatMapTest, ForEachVisitsEveryLiveEntryOnce) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 200; ++k) {
    if (k % 4 != 0) m.try_emplace(k, 0);
  }
  std::unordered_map<std::uint64_t, int> seen;
  m.for_each([&seen](std::uint64_t k, const int&) { seen[k]++; });
  EXPECT_EQ(seen.size(), m.size());
  for (const auto& [k, n] : seen) {
    EXPECT_EQ(n, 1) << k;
    EXPECT_NE(k % 4, 0u) << k;
  }
}

TEST(FlatMapTest, StressAgainstUnorderedMapReference) {
  // Deterministic op soup: insert / find / occasional clear, checked
  // move-for-move against std::unordered_map.
  FlatMap<std::uint64_t, std::uint32_t> m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::mt19937_64 rng(12345);
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = rng() % 600;  // small space -> plenty of hits
    const int kind = static_cast<int>(rng() % 100);
    if (kind < 45) {
      auto [v, inserted] = m.try_emplace(key, static_cast<std::uint32_t>(op));
      const auto [it, ref_inserted] = ref.try_emplace(key, static_cast<std::uint32_t>(op));
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*v, it->second);
    } else if (kind < 99) {
      std::uint32_t* v = m.find(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        ASSERT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        ASSERT_EQ(*v, it->second);
      }
    } else {
      m.clear();
      ref.clear();
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  // Final sweep: both directions.
  std::size_t visited = 0;
  m.for_each([&ref, &visited](std::uint64_t k, const std::uint32_t& v) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end()) << k;
    ASSERT_EQ(v, it->second);
    ++visited;
  });
  EXPECT_EQ(visited, ref.size());
}

// --- SIMD-layout-specific coverage -----------------------------------------
// The two-array (control byte + slot) layout adds failure modes the scalar
// table never had: 7-bit fragment collisions inside one 16-slot group (the
// vector compare reports several candidates) and the per-group generation
// stamp wrapping around.

namespace {
// Mirrors of FlatMap's private placement functions, used to construct
// adversarial key sets.  kFragShift/kMinCap match flat_map.h.
std::size_t home_of(std::uint64_t key, std::size_t cap) {
  return static_cast<std::size_t>(hash_u64(key)) & (cap - 1);
}
std::uint8_t frag_of(std::uint64_t key) {
  return static_cast<std::uint8_t>(hash_u64(key) >> 57);
}

// First `n` keys (scanning upward from 1) whose home slot in a `cap`-slot
// table equals `slot` and that satisfy `pred(key)`.
template <class Pred>
std::vector<std::uint64_t> keys_with_home(std::size_t cap, std::size_t slot,
                                          std::size_t n, Pred pred) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t k = 1; out.size() < n; ++k) {
    if (home_of(k, cap) == slot && pred(k)) out.push_back(k);
  }
  return out;
}
}  // namespace

TEST(FlatMapTest, FragmentCollisionProbeChain) {
  // Keys with the SAME home slot and the SAME 7-bit fragment: every probe
  // sees multiple candidate bits in one group and must disambiguate by full
  // key compare (the differential checks below would catch a wrong value).
  constexpr std::size_t kCap = 16;  // kMinCap: table starts at one group
  const auto seed = keys_with_home(kCap, 5, 1, [](std::uint64_t) { return true; });
  const std::uint8_t frag = frag_of(seed[0]);
  const auto keys = keys_with_home(kCap, 5, 6, [&](std::uint64_t k) {
    return frag_of(k) == frag;
  });
  FlatMap<std::uint64_t, std::uint64_t> m;
  for (const std::uint64_t k : keys) m.try_emplace(k, k ^ 0xabcdu);
  EXPECT_EQ(m.size(), keys.size());
  for (const std::uint64_t k : keys) {
    auto* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k ^ 0xabcdu);
  }
}

TEST(FlatMapTest, GenerationWraparound) {
  // clear() bumps a uint32 generation; on wraparound to 0 every group stamp
  // is reset so that stale groups (stamped with old generations) cannot read
  // as live again.  set_generation_for_test() fast-forwards to the edge.
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 40; ++k) m.try_emplace(k, static_cast<int>(k));
  m.set_generation_for_test(0xffffffffu);
  for (std::uint64_t k = 0; k < 40; ++k) {
    int* v = m.find(k);
    ASSERT_NE(v, nullptr) << k;  // rebase must preserve liveness
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  m.clear();  // 0xffffffff -> wraps -> full stamp reset, gen back to 1
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 40; ++k) EXPECT_EQ(m.find(k), nullptr) << k;
  for (std::uint64_t k = 0; k < 40; ++k) {
    auto [v, inserted] = m.try_emplace(k, -1);
    EXPECT_TRUE(inserted) << k;  // a resurrected stale slot would report false
    EXPECT_EQ(*v, -1);
  }
  EXPECT_EQ(m.size(), 40u);
}

TEST(FlatMapTest, ClearHeavyStressAgainstReference) {
  // The TM runtime's dominant usage: short bursts of inserts separated by
  // generation-stamped clears (transaction retry loops), with the generation
  // counter pushed across the wraparound edge repeatedly.
  FlatMap<std::uint64_t, std::uint32_t> m;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  std::mt19937_64 rng(99);
  for (int round = 0; round < 2000; ++round) {
    if (round % 7 == 0) m.set_generation_for_test(0xfffffffdu);  // near the edge
    const int burst = 1 + static_cast<int>(rng() % 24);
    for (int i = 0; i < burst; ++i) {
      const std::uint64_t key = rng() % 128;
      auto [v, inserted] = m.try_emplace(key, static_cast<std::uint32_t>(round));
      const auto [it, ref_inserted] = ref.try_emplace(key, static_cast<std::uint32_t>(round));
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*v, it->second);
    }
    const std::uint64_t probe_key = rng() % 128;
    std::uint32_t* v = m.find(probe_key);
    const auto it = ref.find(probe_key);
    ASSERT_EQ(v == nullptr, it == ref.end());
    if (v != nullptr) {
      ASSERT_EQ(*v, it->second);
    }
    ASSERT_EQ(m.size(), ref.size());
    m.clear();
    ref.clear();
    ASSERT_TRUE(m.empty());
  }
}

}  // namespace
}  // namespace sim
