// tcc::TransactionalMap functional tests: drop-in Map behaviour inside
// transactions, store-buffer read-your-writes, isolation until commit,
// abort compensation, lock lifecycle, and the merged iterator.
#include "core/txmap.h"

#include <gtest/gtest.h>

#include <map>

#include "jstd/hashmap.h"
#include "tm/shared.h"

namespace tcc {
namespace {

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

std::unique_ptr<TransactionalMap<long, long>> make_map(std::size_t buckets = 256) {
  return std::make_unique<TransactionalMap<long, long>>(
      std::make_unique<jstd::HashMap<long, long>>(buckets));
}

TEST(TxMapTest, BasicOpsInsideOneTransaction) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  auto m = make_map();
  eng.spawn([&] {
    atomos::atomically([&] {
      EXPECT_EQ(m->size(), 0);
      EXPECT_TRUE(m->is_empty());
      EXPECT_EQ(m->put(1, 10), std::nullopt);
      EXPECT_EQ(m->get(1), 10);          // read-your-writes via store buffer
      EXPECT_EQ(m->put(1, 11), 10);      // old value from the buffer
      EXPECT_EQ(m->size(), 1);           // underlying + delta
      EXPECT_FALSE(m->is_empty());
      EXPECT_EQ(m->remove(1), 11);
      EXPECT_EQ(m->get(1), std::nullopt);
      EXPECT_EQ(m->size(), 0);
      m->put(2, 20);
    });
    // After commit the effects are in the underlying map.
    EXPECT_EQ(m->inner().size(), 1);
  });
  eng.run();
  EXPECT_EQ(m->inner().get(2), 20);
  EXPECT_EQ(m->locked_key_count(), 0u);  // all locks released
  EXPECT_EQ(m->size_locker_count(), 0u);
}

TEST(TxMapTest, WritesInvisibleUntilCommitThenApplied) {
  sim::Engine eng(tcc_cfg(2));
  atomos::Runtime rt(eng);
  auto m = make_map();
  std::optional<long> observed_mid = 99;
  eng.spawn([&] {
    atomos::atomically([&] {
      m->put(5, 50);
      if (atomos::work(4000)) return;  // hold the transaction open
    });
  });
  eng.spawn([&] {
    (void)atomos::work(500);
    observed_mid = atomos::atomically([&] { return m->get(5); });
  });
  eng.run();
  EXPECT_EQ(observed_mid, std::nullopt);  // isolation: buffered put invisible
  EXPECT_EQ(m->inner().get(5), 50);       // committed afterwards
}

TEST(TxMapTest, AbortCompensatesLocksAndBuffers) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  auto m = make_map();
  eng.spawn([&] {
    atomos::atomically([&] { m->put(7, 70); });
    try {
      atomos::atomically([&] {
        m->put(8, 80);
        EXPECT_GT(m->locked_key_count(), 0u);
        throw std::runtime_error("user abort");
      });
    } catch (const std::runtime_error&) {
    }
  });
  eng.run();
  EXPECT_EQ(m->inner().get(8), std::nullopt);  // buffered write discarded
  EXPECT_EQ(m->inner().get(7), 70);
  EXPECT_EQ(m->locked_key_count(), 0u);  // abort handler released the locks
}

// A read-only map operation in a transaction that writes a plain cell: the
// write takes the commit token, and the map's commit handler, which declines
// the token itself, must still run inside it and release the key lock.
TEST(TxMapTest, ReadLockReleasedWhenTheTransactionWritesAPlainCell) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  auto m = make_map();
  m->put(7, 5);
  atomos::Shared<long> y(0, sim::kDataCell);
  eng.spawn([&] {
    atomos::atomically([&] { y.set(m->get(7).value_or(0)); });
  });
  eng.run();
  EXPECT_EQ(y.unsafe_peek(), 5);
  EXPECT_EQ(m->locked_key_count(), 0u);
}

TEST(TxMapTest, SingleOpsOutsideTransactionAreAtomic) {
  sim::Engine eng(tcc_cfg(2));
  atomos::Runtime rt(eng);
  auto m = make_map();
  for (int c = 0; c < 2; ++c) {
    eng.spawn([&, c] {
      for (long i = 0; i < 20; ++i) m->put(c * 100 + i, i);  // no explicit txn
    });
  }
  eng.run();
  EXPECT_EQ(m->inner().size(), 40);
  EXPECT_EQ(m->locked_key_count(), 0u);
}

TEST(TxMapTest, IteratorMergesBufferAndUnderlying) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  auto m = make_map();
  for (long k = 0; k < 10; ++k) m->put(k, k);  // setup, untimed
  std::map<long, long> seen;
  eng.spawn([&] {
    atomos::atomically([&] {
      m->put(3, 333);    // overwrite
      m->remove(4);      // delete
      m->put(100, 100);  // brand new key
      for (auto it = m->iterator(); it->has_next();) {
        auto [k, v] = it->next();
        EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate " << k;
      }
    });
  });
  eng.run();
  EXPECT_EQ(seen.size(), 10u);  // 10 - removed + new
  EXPECT_EQ(seen.at(3), 333);
  EXPECT_EQ(seen.count(4), 0u);
  EXPECT_EQ(seen.at(100), 100);
  EXPECT_EQ(seen.at(0), 0);
}

TEST(TxMapTest, IteratorExhaustionTakesSizeLock) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  auto m = make_map();
  m->put(1, 1);
  eng.spawn([&] {
    atomos::atomically([&] {
      auto it = m->iterator();
      while (it->has_next()) it->next();
      EXPECT_FALSE(it->has_next());
      EXPECT_EQ(m->size_locker_count(), 1u);  // exhaustion observed the size
    });
  });
  eng.run();
  EXPECT_EQ(m->size_locker_count(), 0u);  // released at commit
}

TEST(TxMapTest, CommittedOpsSurviveRetries) {
  // Heavy same-key contention: every committed increment must land exactly
  // once despite violations (atomicity of the wrapper's semantics).
  constexpr int kCpus = 8;
  constexpr int kIncs = 20;
  sim::Engine eng(tcc_cfg(kCpus));
  atomos::Runtime rt(eng);
  auto m = make_map();
  m->put(0, 0);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&] {
      for (int i = 0; i < kIncs; ++i) {
        atomos::atomically([&] {
          const long v = *m->get(0);
          if (atomos::work(50)) return;
          m->put(0, v + 1);
        });
      }
    });
  }
  eng.run();
  EXPECT_EQ(m->inner().get(0), static_cast<long>(kCpus) * kIncs);
  EXPECT_EQ(m->locked_key_count(), 0u);
}

TEST(TxMapTest, MultipleMapsComposeInOneTransaction) {
  sim::Engine eng(tcc_cfg(1));
  atomos::Runtime rt(eng);
  auto a = make_map();
  auto b = make_map();
  eng.spawn([&] {
    atomos::atomically([&] {
      a->put(1, 1);
      b->put(2, 2);
    });
    try {
      atomos::atomically([&] {
        a->put(3, 3);
        b->put(4, 4);
        throw std::runtime_error("abort both");
      });
    } catch (const std::runtime_error&) {
    }
  });
  eng.run();
  EXPECT_EQ(a->inner().get(1), 1);
  EXPECT_EQ(b->inner().get(2), 2);
  EXPECT_EQ(a->inner().get(3), std::nullopt);
  EXPECT_EQ(b->inner().get(4), std::nullopt);
}

TEST(TxMapTest, LongTransactionsOnDisjointKeysDoNotConflict) {
  // THE point of the paper: disjoint-key inserts in long transactions no
  // longer collide on the size field (contrast ConflictsTest in tests/jstd).
  sim::Engine eng(tcc_cfg(2));
  atomos::Runtime rt(eng);
  auto m = make_map(1024);
  for (int c = 0; c < 2; ++c) {
    eng.spawn([&, c] {
      atomos::atomically([&] {
        m->put(1000 + c, c);
        if (atomos::work(3000)) return;
      });
    });
  }
  eng.run();
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::semantic_violations), 0u);
  EXPECT_EQ(m->inner().size(), 2);
}

TEST(TxMapTest, SerializabilityUnderRandomWorkload) {
  // Replay check: commits are token-serialized; record each committed
  // transaction's observations in commit order and replay them against an
  // oracle — every observed read must match the oracle state at its commit
  // point (sound because key/size locks pin observations until commit).
  struct Op {
    char kind;  // 'g'et, 'p'ut, 'r'emove, 's'ize
    long key, arg;
    std::optional<long> result;
    long size_result;
  };
  struct Record {
    std::vector<Op> ops;
  };
  constexpr int kCpus = 6;
  sim::Engine eng(tcc_cfg(kCpus));
  atomos::Runtime rt(eng);
  auto m = make_map(64);
  std::vector<Record> committed;
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&, c] {
      std::uint64_t s = 31 + static_cast<std::uint64_t>(c) * 977;
      auto rnd = [&] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
      };
      for (int i = 0; i < 25; ++i) {
        Record rec;
        atomos::atomically([&] {
          rec.ops.clear();  // retries rebuild the record
          const int nops = 1 + static_cast<int>(rnd() % 3);
          for (int j = 0; j < nops; ++j) {
            const long key = static_cast<long>(rnd() % 16);
            switch (rnd() % 4) {
              case 0: {
                Op op{'g', key, 0, m->get(key), 0};
                rec.ops.push_back(op);
                break;
              }
              case 1: {
                const long v = static_cast<long>(rnd() % 1000);
                Op op{'p', key, v, m->put(key, v), 0};
                rec.ops.push_back(op);
                break;
              }
              case 2: {
                Op op{'r', key, 0, m->remove(key), 0};
                rec.ops.push_back(op);
                break;
              }
              case 3: {
                Op op{'s', 0, 0, std::nullopt, m->size()};
                rec.ops.push_back(op);
                break;
              }
            }
            if (atomos::work(40)) return;
          }
          // Commit-order observation only: nothing to compensate.
          atomos::Runtime::current().on_top_commit(
              &committed, [&committed, &rec] { committed.push_back(rec); },
              atomos::no_compensation);
        });
      }
    });
  }
  eng.run();

  // Replay in commit order.
  std::map<long, long> oracle;
  for (std::size_t i = 0; i < committed.size(); ++i) {
    for (const Op& op : committed[i].ops) {
      auto it = oracle.find(op.key);
      auto cur = it == oracle.end() ? std::nullopt : std::optional<long>(it->second);
      switch (op.kind) {
        case 'g':
          ASSERT_EQ(op.result, cur) << "txn " << i << " get(" << op.key << ")";
          break;
        case 'p':
          ASSERT_EQ(op.result, cur) << "txn " << i << " put(" << op.key << ")";
          oracle[op.key] = op.arg;
          break;
        case 'r':
          ASSERT_EQ(op.result, cur) << "txn " << i << " remove(" << op.key << ")";
          oracle.erase(op.key);
          break;
        case 's':
          ASSERT_EQ(op.size_result, static_cast<long>(oracle.size())) << "txn " << i;
          break;
        default:
          FAIL();
      }
    }
  }
  // Final state agrees too.
  EXPECT_EQ(m->inner().size(), static_cast<long>(oracle.size()));
  for (const auto& [k, v] : oracle) EXPECT_EQ(m->inner().get(k), v);
}

}  // namespace
}  // namespace tcc
