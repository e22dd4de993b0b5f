// Executable reproduction of paper Table 1 / Table 2: the conditions under
// which Map operations conflict, as enforced by TransactionalMap's semantic
// locks.  Each test is one cell of the matrix: a long reader transaction
// observes abstract state, a writer commits mid-flight, and we assert
// whether the reader was doomed (conflict) or unharmed (commutes).
//
// Detection follows Table 2 (the implementable lock rules): a committing
// put/remove dooms every holder of the written key's lock, and size-lockers
// when the size changes.
#include <gtest/gtest.h>

#include "core/txmap.h"
#include "jstd/hashmap.h"
#include "tests/core/schedule_helper.h"

namespace tcc {
namespace {

using testing::run_schedule;
using testing::tcc_cfg;

struct Fixture {
  sim::Engine eng{tcc_cfg(2)};
  atomos::Runtime rt{eng};
  TransactionalMap<long, long> map{std::make_unique<jstd::HashMap<long, long>>(1024)};

  void preload(std::initializer_list<long> keys) {
    for (long k : keys) map.put(k, k * 10);
  }
};

// ---- row: containsKey ----

TEST(Table1Map, ContainsKeyVsPutSameNewKey_Conflicts) {
  // containsKey(k) == false is invalidated by a committed put(k).
  Fixture f;
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.contains_key(42); },
      [&] { f.map.put(42, 1); });
  EXPECT_TRUE(r.conflicted());
  EXPECT_GE(r.reader_attempts, 2);
}

TEST(Table1Map, ContainsKeyVsPutDifferentKey_Commutes) {
  Fixture f;
  auto r = run_schedule(
      f.eng, [&] { EXPECT_FALSE(f.map.contains_key(42)); },
      [&] { f.map.put(43, 1); });
  EXPECT_FALSE(r.conflicted());
  EXPECT_EQ(r.reader_attempts, 1);
}

TEST(Table1Map, ContainsKeyVsRemoveSameKey_Conflicts) {
  Fixture f;
  f.preload({42});
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.contains_key(42); },
      [&] { f.map.remove(42); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table1Map, ContainsKeyVsRemoveDifferentKey_Commutes) {
  Fixture f;
  f.preload({42, 43});
  auto r = run_schedule(
      f.eng, [&] { EXPECT_TRUE(f.map.contains_key(42)); },
      [&] { f.map.remove(43); });
  EXPECT_FALSE(r.conflicted());
}

// ---- row: get ----

TEST(Table1Map, GetVsPutSameKey_Conflicts) {
  Fixture f;
  f.preload({7});
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.get(7); },
      [&] { f.map.put(7, 700); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table1Map, GetVsPutDifferentKey_Commutes) {
  Fixture f;
  f.preload({7});
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.map.get(7), 70); },
      [&] { f.map.put(8, 800); });
  EXPECT_FALSE(r.conflicted());
}

TEST(Table1Map, GetVsRemoveSameKey_Conflicts) {
  Fixture f;
  f.preload({7});
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.get(7); },
      [&] { f.map.remove(7); });
  EXPECT_TRUE(r.conflicted());
}

// ---- row: size ----

TEST(Table1Map, SizeVsPutNewKey_Conflicts) {
  Fixture f;
  f.preload({1, 2, 3});
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.size(); },
      [&] { f.map.put(4, 40); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table1Map, SizeVsPutOverwrite_Commutes) {
  // Overwriting an existing key does NOT change the size: size readers are
  // not disturbed (Table 1 "if put adds a new entry").
  Fixture f;
  f.preload({1, 2, 3});
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.map.size(), 3); },
      [&] { f.map.put(2, 999); });
  EXPECT_FALSE(r.conflicted());
}

TEST(Table1Map, SizeVsRemovePresentKey_Conflicts) {
  Fixture f;
  f.preload({1, 2, 3});
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.size(); },
      [&] { f.map.remove(2); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table1Map, SizeVsRemoveAbsentKey_Commutes) {
  Fixture f;
  f.preload({1, 2, 3});
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.map.size(), 3); },
      [&] { f.map.remove(99); });
  EXPECT_FALSE(r.conflicted());
}

// ---- row: entrySet.iterator ----

TEST(Table1Map, IteratorExhaustionVsPutNewKey_Conflicts) {
  // hasNext()==false reveals the size (the reader counted every entry).
  Fixture f;
  f.preload({1, 2});
  auto r = run_schedule(
      f.eng,
      [&] {
        for (auto it = f.map.iterator(); it->has_next();) it->next();
      },
      [&] { f.map.put(3, 30); }, /*writer_delay=*/60000, /*reader_tail=*/120000);
  EXPECT_TRUE(r.conflicted());
}

TEST(Table1Map, IteratorVisitedKeyVsRemove_Conflicts) {
  // next() locked the visited keys; removing one dooms the iterator's txn.
  Fixture f;
  f.preload({1, 2, 3});
  auto r = run_schedule(
      f.eng,
      [&] {
        auto it = f.map.iterator();
        while (it->has_next()) it->next();
      },
      [&] { f.map.remove(2); }, /*writer_delay=*/60000, /*reader_tail=*/120000);
  EXPECT_TRUE(r.conflicted());
}

// ---- row: put (write vs write) ----

TEST(Table1Map, PutVsPutSameKey_Conflicts) {
  // put reads (returns) the old value, so racing puts of one key must
  // serialize: the in-flight one is doomed.
  Fixture f;
  f.preload({5});
  auto r = run_schedule(
      f.eng, [&] { f.map.put(5, 1); },
      [&] { f.map.put(5, 2); });
  EXPECT_TRUE(r.conflicted());
  EXPECT_EQ(f.map.inner().get(5), 1);  // reader retried and committed last
}

TEST(Table1Map, PutVsPutDifferentKeysBothPresent_Commutes) {
  // Both puts overwrite existing keys: no size change, different key locks.
  Fixture f;
  f.preload({5, 6});
  auto r = run_schedule(
      f.eng, [&] { f.map.put(5, 1); },
      [&] { f.map.put(6, 2); });
  EXPECT_FALSE(r.conflicted());
  EXPECT_EQ(f.map.inner().get(5), 1);
  EXPECT_EQ(f.map.inner().get(6), 2);
}

TEST(Table1Map, InsertsOfDifferentNewKeys_CommuteForNonSizeReaders) {
  // The headline behaviour: two long transactions inserting DIFFERENT new
  // keys both commit untouched (no size reader involved).
  Fixture f;
  sim::Engine& eng = f.eng;
  for (int c = 0; c < 2; ++c) {
    eng.spawn([&, c] {
      atomos::atomically([&] {
        f.map.put(100 + c, c);
        if (atomos::work(5000)) return;
      });
    });
  }
  eng.run();
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::semantic_violations), 0u);
  EXPECT_EQ(f.map.inner().size(), 2);
}

TEST(Table1Map, RemoveVsRemoveSameKey_Conflicts) {
  Fixture f;
  f.preload({5});
  auto r = run_schedule(
      f.eng, [&] { f.map.remove(5); },
      [&] { f.map.remove(5); });
  EXPECT_TRUE(r.conflicted());
  EXPECT_EQ(f.map.inner().get(5), std::nullopt);
}

// ---- Section 5.1 extensions ----

TEST(Table1Map, IsEmptyVsPutIntoNonEmptyMap_Commutes) {
  // The paper's `if (!map.isEmpty()) map.put(...)` example: with isEmpty as
  // a primitive (zero-crossing lock), inserts that keep the map non-empty
  // do not disturb isEmpty readers...
  Fixture f;
  f.preload({1});
  auto r = run_schedule(
      f.eng, [&] { EXPECT_FALSE(f.map.is_empty()); },
      [&] { f.map.put(2, 20); });
  EXPECT_FALSE(r.conflicted());
}

TEST(Table1Map, IsEmptyVsFirstInsert_Conflicts) {
  // ...but the zero-crossing insert DOES conflict (the `if (map.isEmpty())
  // map.put(...)` case must not commute).
  Fixture f;
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.is_empty(); },
      [&] { f.map.put(1, 10); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table1Map, SizeReaderStillConflictsWhereIsEmptyWouldNot) {
  // Contrast: a size() reader IS disturbed by the same non-zero-crossing
  // insert — using size()==0 instead of isEmpty costs concurrency (S5.1).
  Fixture f;
  f.preload({1});
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.size(); },
      [&] { f.map.put(2, 20); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table1Map, BlindPutsOfSameKey_Commute) {
  // put_blind takes no key READ lock: concurrent blind writers of the same
  // key both commit (the map.put("LastModified", now) example).
  Fixture f;
  auto r = run_schedule(
      f.eng, [&] { f.map.put_blind(9, 1); },
      [&] { f.map.put_blind(9, 2); });
  EXPECT_FALSE(r.conflicted());
  // The reader committed last (its window is longer), so its value wins.
  EXPECT_EQ(f.map.inner().get(9), 1);
}

TEST(Table1Map, BlindPutStillDoomsReadersOfThatKey) {
  Fixture f;
  f.preload({9});
  auto r = run_schedule(
      f.eng, [&] { (void)f.map.get(9); },
      [&] { f.map.put_blind(9, 2); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table1Map, SizeAfterBlindPutVsBlindPutSameKey_Conflicts) {
  // size() resolves a blind put's presence under the key lock: the present
  // key counts once, and a blind writer of that key, which commutes with
  // the blind put alone, now dooms the observer.
  Fixture f;
  f.preload({1, 2, 3});
  auto r = run_schedule(
      f.eng,
      [&] {
        f.map.put_blind(2, 7);
        EXPECT_EQ(f.map.size(), 3);
      },
      [&] { f.map.put_blind(2, 9); });
  EXPECT_TRUE(r.conflicted());
  EXPECT_EQ(f.map.inner().get(2), 7);
}

TEST(Table1Map, PessimisticModeDoomsReaderAtOperationTime) {
  // S5.1 ablation: with eager detection the reader dies as soon as the
  // writer executes its put, before the writer even commits.
  sim::Engine eng(tcc_cfg(2));
  atomos::Runtime rt(eng);
  TransactionalMap<long, long> map(
      std::make_unique<jstd::HashMap<long, long>>(1024), Detection::kPessimistic);
  map.put(7, 70);
  std::uint64_t reader_doomed_at = 0;
  std::uint64_t writer_op_at = 0;
  int attempt = 0;
  eng.spawn([&] {
    atomos::atomically([&] {
      ++attempt;
      (void)map.get(7);
      if (attempt == 1) {
        for (int i = 0; i < 50; ++i) {
          if (atomos::work(1000)) {  // poll often
            reader_doomed_at = sim::Engine::get().now();
            return;
          }
        }
        ADD_FAILURE() << "reader should have been doomed";
      }
    });
  });
  eng.spawn([&] {
    (void)atomos::work(1000);
    atomos::atomically([&] {
      map.put(7, 700);
      writer_op_at = sim::Engine::get().now();
      if (atomos::work(30000)) return;  // long tail BEFORE commit
    });
  });
  eng.run();
  EXPECT_GT(reader_doomed_at, 0u);
  EXPECT_LT(reader_doomed_at, writer_op_at + 30000);  // died before commit
}

}  // namespace
}  // namespace tcc
