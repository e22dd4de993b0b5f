// TransactionalSet / TransactionalSortedSet (paper Section 5.1: thin
// wrappers over the transactional maps).
#include "core/txset.h"

#include <gtest/gtest.h>

#include "jstd/hashmap.h"
#include "jstd/treemap.h"

namespace tcc {
namespace {

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

TEST(TxSetTest, BasicMembershipInsideTransaction) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  TransactionalSet<long> set(std::make_unique<jstd::HashMap<long, char>>(64));
  eng.spawn([&] {
    atomos::atomically([&] {
      EXPECT_TRUE(set.is_empty());
      EXPECT_TRUE(set.add(5));
      EXPECT_FALSE(set.add(5));  // already present (buffered)
      EXPECT_TRUE(set.contains(5));
      EXPECT_EQ(set.size(), 1);
      EXPECT_TRUE(set.remove(5));
      EXPECT_FALSE(set.remove(5));
      set.add(7);
    });
  });
  eng.run();
  EXPECT_EQ(set.size(), 1);
  EXPECT_TRUE(set.contains(7));
}

TEST(TxSetTest, DisjointAddsInLongTransactionsCommute) {
  sim::Engine eng(tcc_cfg(4));
  atomos::Runtime rt(eng);
  TransactionalSet<long> set(std::make_unique<jstd::HashMap<long, char>>(256));
  for (int c = 0; c < 4; ++c) {
    eng.spawn([&, c] {
      for (int i = 0; i < 10; ++i) {
        atomos::atomically([&] {
          set.add(c * 100 + i);
          if (atomos::work(800)) return;
        });
      }
    });
  }
  eng.run();
  EXPECT_EQ(set.size(), 40);
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::semantic_violations), 0u);
}

TEST(TxSetTest, AbortRollsBackMembership) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  TransactionalSet<long> set(std::make_unique<jstd::HashMap<long, char>>(64));
  set.add(1);
  eng.spawn([&] {
    try {
      atomos::atomically([&] {
        set.add(2);
        set.remove(1);
        throw std::runtime_error("abort");
      });
    } catch (const std::runtime_error&) {
    }
  });
  eng.run();
  EXPECT_TRUE(set.contains(1));
  EXPECT_FALSE(set.contains(2));
}

TEST(TxSetTest, ForEachEnumeratesMergedView) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  TransactionalSet<long> set(std::make_unique<jstd::HashMap<long, char>>(64));
  for (long k = 0; k < 5; ++k) set.add(k);
  std::set<long> seen;
  eng.spawn([&] {
    atomos::atomically([&] {
      set.add(100);
      set.remove(3);
      set.for_each([&](long k) { seen.insert(k); });
    });
  });
  eng.run();
  EXPECT_EQ(seen, (std::set<long>{0, 1, 2, 4, 100}));
}

TEST(TxSortedSetTest, OrderedOperations) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  TransactionalSortedSet<long> set(std::make_unique<jstd::TreeMap<long, char>>());
  for (long k : {9L, 3L, 7L, 1L}) set.add(k);
  std::vector<long> in_range;
  eng.spawn([&] {
    atomos::atomically([&] {
      EXPECT_EQ(set.first(), 1);
      EXPECT_EQ(set.last(), 9);
      set.add(5);
      set.remove(9);
      EXPECT_EQ(set.last(), 7);  // merged endpoint view
      set.for_each_range(3L, 8L, [&](long k) { in_range.push_back(k); });
    });
  });
  eng.run();
  EXPECT_EQ(in_range, (std::vector<long>{3, 5, 7}));
  EXPECT_EQ(set.size(), 4);
}

TEST(TxSortedSetTest, EndpointConflictSemantics) {
  // A first() reader is doomed by a committed new minimum (Table 4 via the
  // set facade).
  sim::Engine eng(tcc_cfg(2));
  atomos::Runtime rt(eng);
  TransactionalSortedSet<long> set(std::make_unique<jstd::TreeMap<long, char>>());
  for (long k = 10; k < 20; ++k) set.add(k);
  eng.spawn([&] {
    atomos::atomically([&] {
      (void)set.first();
      if (atomos::work(8000)) return;
    });
  });
  eng.spawn([&] {
    (void)atomos::work(1000);
    atomos::atomically([&] { set.add(1); });  // new minimum
  });
  eng.run();
  EXPECT_GE(eng.stats().cpu(0).semantic_violations, 1u);
}

}  // namespace
}  // namespace tcc
