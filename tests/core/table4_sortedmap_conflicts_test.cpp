// Executable reproduction of paper Tables 4/5: SortedMap range and endpoint
// conflict semantics, as enforced by TransactionalSortedMap's range lockers
// and first/last lockers — plus functional tests of the sorted wrapper.
#include <gtest/gtest.h>

#include "core/txsortedmap.h"
#include "jstd/treemap.h"
#include "tests/core/schedule_helper.h"

namespace tcc {
namespace {

using testing::run_schedule;
using testing::tcc_cfg;

struct Fixture {
  sim::Engine eng{tcc_cfg(2)};
  atomos::Runtime rt{eng};
  TransactionalSortedMap<long, long> map{std::make_unique<jstd::TreeMap<long, long>>()};

  void preload_evens(long n) {
    for (long k = 0; k < n; ++k) map.put(k * 2, k * 2);  // keys 0,2,4,...
  }
};

// ---- functional behaviour first ----

TEST(TxSortedMap, SortedOpsInsideTransaction) {
  Fixture f;
  f.preload_evens(10);  // 0..18 even
  f.eng.spawn([&] {
    atomos::atomically([&] {
      EXPECT_EQ(f.map.first_key(), 0);
      EXPECT_EQ(f.map.last_key(), 18);
      f.map.put(-5, 1);   // new minimum (buffered)
      f.map.put(99, 1);   // new maximum (buffered)
      f.map.remove(0);
      EXPECT_EQ(f.map.first_key(), -5);  // merged view sees the buffer
      EXPECT_EQ(f.map.last_key(), 99);
      std::vector<long> keys;
      for (auto it = f.map.range_iterator(2L, 9L); it->has_next();)
        keys.push_back(it->next().first);
      EXPECT_EQ(keys, (std::vector<long>{2, 4, 6, 8}));
    });
  });
  f.eng.run();
  EXPECT_EQ(f.map.inner().size(), 11);  // 10 - 1 + 2
  EXPECT_EQ(f.map.range_lock_count(), 0u);
  EXPECT_EQ(f.map.first_locker_count(), 0u);
  EXPECT_EQ(f.map.last_locker_count(), 0u);
}

TEST(TxSortedMap, MergedOrderedIterationWithBuffer) {
  Fixture f;
  f.preload_evens(5);  // 0 2 4 6 8
  f.eng.spawn([&] {
    atomos::atomically([&] {
      f.map.put(3, 30);   // buffered insert mid-range
      f.map.put(4, 40);   // buffered overwrite
      f.map.remove(6);    // buffered remove
      std::vector<std::pair<long, long>> seen;
      for (auto it = f.map.iterator(); it->has_next();) seen.push_back(it->next());
      std::vector<std::pair<long, long>> expect{{0, 0}, {2, 2}, {3, 30}, {4, 40}, {8, 8}};
      EXPECT_EQ(seen, expect);
    });
  });
  f.eng.run();
}

TEST(TxSortedMap, AbortRollsBackEverything) {
  Fixture f;
  f.preload_evens(3);
  f.eng.spawn([&] {
    try {
      atomos::atomically([&] {
        f.map.put(1, 1);
        (void)f.map.first_key();
        auto it = f.map.iterator();
        while (it->has_next()) it->next();
        throw std::runtime_error("abort");
      });
    } catch (const std::runtime_error&) {
    }
  });
  f.eng.run();
  EXPECT_EQ(f.map.inner().size(), 3);
  EXPECT_EQ(f.map.inner().get(1), std::nullopt);
  EXPECT_EQ(f.map.range_lock_count(), 0u);
  EXPECT_EQ(f.map.first_locker_count(), 0u);
  EXPECT_EQ(f.map.last_locker_count(), 0u);
}

// last_key_before merges the committed predecessor with the store buffer.
TEST(TxSortedMap, LastKeyBeforeMergesTheBuffer) {
  Fixture f;
  f.preload_evens(5);  // 0 2 4 6 8
  f.eng.spawn([&] {
    atomos::atomically([&] {
      EXPECT_EQ(f.map.last_key_before(7L), 6);  // committed predecessor
      f.map.put(5, 50);
      EXPECT_EQ(f.map.last_key_before(6L), 5);  // buffered put in the gap
      f.map.remove(4);
      EXPECT_EQ(f.map.last_key_before(5L), 2);  // buffered remove skipped
      EXPECT_EQ(f.map.last_key_before(0L), std::nullopt);
    });
  });
  f.eng.run();
  EXPECT_EQ(f.map.range_lock_count(), 0u);
}

// An iterator built before its transaction overwrites a committed key ahead
// of it reads the overwrite from the store buffer.
TEST(TxSortedMap, IteratorReadsALaterBufferedOverwrite) {
  Fixture f;
  f.preload_evens(3);  // 0 2 4
  f.eng.spawn([&] {
    atomos::atomically([&] {
      auto it = f.map.iterator();
      f.map.put(2, 20);
      std::vector<std::pair<long, long>> seen;
      while (it->has_next()) seen.push_back(it->next());
      EXPECT_EQ(seen, (std::vector<std::pair<long, long>>{{0, 0}, {2, 20}, {4, 4}}));
    });
  });
  f.eng.run();
  EXPECT_EQ(f.map.inner().get(2), 20);
  EXPECT_EQ(f.map.range_lock_count(), 0u);
}

// ---- Table 4/5 conflict cells ----

TEST(Table4SortedMap, RangeIterationVsPutInsideRange_Conflicts) {
  // "put adds key in iterated range" row.
  Fixture f;
  f.preload_evens(20);
  auto r = run_schedule(
      f.eng,
      [&] {
        for (auto it = f.map.range_iterator(10L, 20L); it->has_next();) it->next();
      },
      [&] { f.map.put(13, 1); },  // odd key INSIDE the iterated range
      /*writer_delay=*/30000, /*reader_tail=*/60000);
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, RangeIterationVsPutOutsideRange_Commutes) {
  Fixture f;
  f.preload_evens(20);
  auto r = run_schedule(
      f.eng,
      [&] {
        for (auto it = f.map.range_iterator(10L, 20L); it->has_next();) it->next();
      },
      [&] { f.map.put(25, 1); },  // outside [10,20)
      /*writer_delay=*/30000, /*reader_tail=*/60000);
  EXPECT_FALSE(r.conflicted());
}

TEST(Table4SortedMap, RangeIterationVsRemoveInsideRange_Conflicts) {
  Fixture f;
  f.preload_evens(20);
  auto r = run_schedule(
      f.eng,
      [&] {
        for (auto it = f.map.range_iterator(10L, 20L); it->has_next();) it->next();
      },
      [&] { f.map.remove(12); },
      /*writer_delay=*/30000, /*reader_tail=*/60000);
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, FirstKeyVsPutNewMinimum_Conflicts) {
  Fixture f;
  f.preload_evens(5);
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.first_key(); },
      [&] { f.map.put(-10, 1); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, FirstKeyVsPutMiddleKey_Commutes) {
  Fixture f;
  f.preload_evens(5);
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.map.first_key(), 0); },
      [&] { f.map.put(5, 1); });
  EXPECT_FALSE(r.conflicted());
}

TEST(Table4SortedMap, FirstKeyVsRemoveFirst_Conflicts) {
  Fixture f;
  f.preload_evens(5);
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.first_key(); },
      [&] { f.map.remove(0); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, LastKeyVsPutNewMaximum_Conflicts) {
  Fixture f;
  f.preload_evens(5);
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.last_key(); },
      [&] { f.map.put(100, 1); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, LastKeyVsRemoveLast_Conflicts) {
  Fixture f;
  f.preload_evens(5);
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.last_key(); },
      [&] { f.map.remove(8); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, LastKeyVsRemoveMiddle_Commutes) {
  Fixture f;
  f.preload_evens(5);
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.map.last_key(), 8); },
      [&] { f.map.remove(4); });
  EXPECT_FALSE(r.conflicted());
}

TEST(Table4SortedMap, FullIterationExhaustionVsPutNewLast_Conflicts) {
  // "hasNext is false and put adds new lastKey" row: exhausting an
  // unbounded iterator observes the last key.
  Fixture f;
  f.preload_evens(8);
  auto r = run_schedule(
      f.eng,
      [&] {
        for (auto it = f.map.iterator(); it->has_next();) it->next();
      },
      [&] { f.map.put(1000, 1); },
      /*writer_delay=*/30000, /*reader_tail=*/60000);
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, BoundedIterationVsPutBeyondBound_Commutes) {
  // A bounded subMap iterator does NOT observe the last key: inserts past
  // its bound are invisible to it.
  Fixture f;
  f.preload_evens(8);
  auto r = run_schedule(
      f.eng,
      [&] {
        for (auto it = f.map.range_iterator(std::nullopt, 10L); it->has_next();) it->next();
      },
      [&] { f.map.put(1000, 1); },
      /*writer_delay=*/30000, /*reader_tail=*/60000);
  EXPECT_FALSE(r.conflicted());
}

TEST(Table4SortedMap, DisjointRangeIterationsCommute) {
  // Two long transactions iterating DISJOINT ranges while a third inserts
  // into neither: nobody conflicts — the paper's TestSortedMap scenario.
  Fixture f;
  f.preload_evens(30);
  sim::Engine& eng = f.eng;
  for (int c = 0; c < 2; ++c) {
    eng.spawn([&, c] {
      atomos::atomically([&] {
        const long lo = c == 0 ? 0 : 40;
        for (auto it = f.map.range_iterator(lo, lo + 10); it->has_next();) it->next();
        f.map.put(c == 0 ? 1L : 41L, 7);  // insert inside OWN range
        if (atomos::work(20000)) return;
      });
    });
  }
  eng.run();
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::semantic_violations), 0u);
}

// last_key_before(key) observes the gap [answer, key): a committed put
// inside it dooms the observer, and a put at `key` itself does not.
TEST(Table4SortedMap, LastKeyBeforeVsPutInsideTheGap_Conflicts) {
  Fixture f;
  for (long k : {0L, 10L, 20L}) f.map.put(k, k);
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.last_key_before(15L); },
      [&] { f.map.put(12, 1); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, LastKeyBeforeVsPutAtTheProbedKey_Commutes) {
  Fixture f;
  for (long k : {0L, 10L, 20L}) f.map.put(k, k);
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.map.last_key_before(15L), 10); },
      [&] { f.map.put(15, 1); });
  EXPECT_FALSE(r.conflicted());
}

// The sorted commit handler keeps the inherited empty-lock rule: a commit
// that makes the map non-empty, or empty, dooms every is_empty observer.
TEST(Table4SortedMap, IsEmptyVsFirstInsert_Conflicts) {
  Fixture f;
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.is_empty(); },
      [&] { f.map.put(1, 1); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table4SortedMap, IsEmptyVsRemoveOfTheOnlyKey_Conflicts) {
  Fixture f;
  f.map.put(1, 1);
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.is_empty(); },
      [&] { f.map.remove(1); });
  EXPECT_TRUE(r.conflicted());
}

}  // namespace
}  // namespace tcc
