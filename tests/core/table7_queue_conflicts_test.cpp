// Executable reproduction of paper Tables 7/8/9: the reduced-isolation
// TransactionalQueue.  put/take never conflict; only observed emptiness
// (null peek/poll) conflicts with a committing put; take's eager removal is
// compensated on abort.
#include <gtest/gtest.h>

#include "core/txqueue.h"
#include "jstd/linkedqueue.h"
#include "tests/core/schedule_helper.h"

namespace tcc {
namespace {

using testing::run_schedule;
using testing::tcc_cfg;

struct Fixture {
  sim::Engine eng{tcc_cfg(2)};
  atomos::Runtime rt{eng};
  TransactionalQueue<long> q{std::make_unique<jstd::LinkedQueue<long>>()};

  void preload(long n) {
    for (long i = 1; i <= n; ++i) q.put(i);
  }
};

// ---- functional behaviour ----

TEST(TxQueue, PutBufferedUntilCommitTakeEager) {
  Fixture f;
  f.preload(2);
  f.eng.spawn([&] {
    atomos::atomically([&] {
      EXPECT_EQ(f.q.take(), 1);            // removed from shared queue NOW
      EXPECT_EQ(f.q.inner().size(), 1);    // reduced isolation: visible
      f.q.put(50);
      EXPECT_EQ(f.q.inner().size(), 1);    // put still buffered
      if (atomos::work(100)) return;
    });
    EXPECT_EQ(f.q.inner().size(), 2);      // addBuffer applied at commit
  });
  f.eng.run();
}

TEST(TxQueue, AbortReturnsTakenElementsAndDropsPuts) {
  Fixture f;
  f.preload(3);
  f.eng.spawn([&] {
    try {
      atomos::atomically([&] {
        EXPECT_EQ(f.q.take(), 1);
        EXPECT_EQ(f.q.take(), 2);
        f.q.put(99);
        throw std::runtime_error("abort");
      });
    } catch (const std::runtime_error&) {
    }
  });
  f.eng.run();
  // The two taken elements are back (order unspecified), the put is gone.
  EXPECT_EQ(f.q.inner().size(), 3);
  std::vector<long> drained;
  while (auto v = f.q.poll()) drained.push_back(*v);
  std::sort(drained.begin(), drained.end());
  EXPECT_EQ(drained, (std::vector<long>{1, 2, 3}));
}

// peek() on an empty queue takes the empty lock; a plain-cell write in the
// same transaction takes the commit token, and the queue's commit handler,
// which declines the token itself, must still run inside it and release it.
TEST(TxQueue, EmptyLockReleasedWhenTheTransactionWritesAPlainCell) {
  Fixture f;
  atomos::Shared<long> y(0, sim::kDataCell);
  f.eng.spawn([&] {
    atomos::atomically([&] { y.set(f.q.peek().has_value() ? 1 : 2); });
  });
  f.eng.run();
  EXPECT_EQ(y.unsafe_peek(), 2);
  EXPECT_EQ(f.q.empty_locker_count(), 0u);
}

TEST(TxQueue, ReadYourOwnPuts) {
  Fixture f;
  f.eng.spawn([&] {
    atomos::atomically([&] {
      f.q.put(7);
      EXPECT_EQ(f.q.peek(), 7);   // own buffered element visible to self
      EXPECT_EQ(f.q.poll(), 7);   // consumed from own addBuffer
      EXPECT_EQ(f.q.take(), std::nullopt);
    });
  });
  f.eng.run();
  EXPECT_EQ(f.q.inner().size(), 0);  // consumed before commit: never applied
}

TEST(TxQueue, TakeConsumesOwnPendingPut) {
  Fixture f;
  f.eng.spawn([&] {
    atomos::atomically([&] {
      f.q.put(7);
      EXPECT_EQ(f.q.take(), 7);  // consumed from own addBuffer
      EXPECT_EQ(f.q.take(), std::nullopt);
    });
  });
  f.eng.run();
  EXPECT_EQ(f.q.inner().size(), 0);  // consumed before commit: never applied
}

// poll, take, size and peek on a worker outside any transaction each run as
// one top-level transaction, whose commit releases the locks they took.
TEST(TxQueue, OpsOutsideATransactionRunAsTheirOwn) {
  Fixture f;
  f.preload(2);
  f.eng.spawn([&] {
    EXPECT_EQ(f.q.peek(), 1);
    EXPECT_EQ(f.q.size(), 2);
    EXPECT_EQ(f.q.poll(), 1);
    EXPECT_EQ(f.q.take(), 2);
    EXPECT_EQ(f.q.take(), std::nullopt);
    EXPECT_EQ(f.q.poll(), std::nullopt);  // observes emptiness
    EXPECT_EQ(f.q.peek(), std::nullopt);
    EXPECT_EQ(f.q.size(), 0);
  });
  f.eng.run();
  EXPECT_EQ(f.eng.stats().cpu(0).commits, 8u);
  EXPECT_EQ(f.q.empty_locker_count(), 0u);
  EXPECT_EQ(f.q.size_locker_count(), 0u);
  EXPECT_EQ(f.q.inner().size(), 0);
}

// ---- Table 7 conflict matrix ----

TEST(Table7Queue, PutVsTakeNeverConflict) {
  // Both transactions long; producer's put and consumer's take overlap
  // arbitrarily: no violations of any kind.
  Fixture f;
  f.preload(4);
  sim::Engine& eng = f.eng;
  eng.spawn([&] {
    atomos::atomically([&] {
      (void)f.q.take();
      if (atomos::work(8000)) return;
    });
  });
  eng.spawn([&] {
    (void)atomos::work(500);
    atomos::atomically([&] {
      f.q.put(100);
      if (atomos::work(8000)) return;
    });
  });
  eng.run();
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::violations), 0u);
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::semantic_violations), 0u);
  EXPECT_EQ(f.q.inner().size(), 4);  // 4 - 1 + 1
}

TEST(Table7Queue, TakeVsTakeNoConflict) {
  Fixture f;
  f.preload(8);
  sim::Engine& eng = f.eng;
  for (int c = 0; c < 2; ++c) {
    eng.spawn([&] {
      atomos::atomically([&] {
        (void)f.q.take();
        (void)f.q.take();
        if (atomos::work(8000)) return;
      });
    });
  }
  eng.run();
  EXPECT_EQ(eng.stats().total(&sim::CpuStats::semantic_violations), 0u);
  EXPECT_EQ(f.q.inner().size(), 4);
}

TEST(Table7Queue, PeekEmptyVsPut_Conflicts) {
  // "peek: if peek returned null" vs put.
  Fixture f;  // queue empty
  auto r = run_schedule(
      f.eng, [&] { (void)f.q.peek(); },
      [&] { f.q.put(1); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table7Queue, PollEmptyVsPut_Conflicts) {
  // "poll: if poll returned null" vs put.
  Fixture f;
  auto r = run_schedule(
      f.eng, [&] { (void)f.q.poll(); },
      [&] { f.q.put(1); });
  EXPECT_TRUE(r.conflicted());
}

TEST(Table7Queue, PeekNonEmptyVsPut_Commutes) {
  Fixture f;
  f.preload(1);
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.q.peek(), 1); },
      [&] { f.q.put(2); });
  EXPECT_FALSE(r.conflicted());
}

TEST(Table7Queue, TakeOnEmptyVsPut_NoConflictByDesign) {
  // take() deliberately does NOT observe emptiness (reduced isolation):
  // no conflict even though it found nothing.
  Fixture f;
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.q.take(), std::nullopt); },
      [&] { f.q.put(1); });
  EXPECT_FALSE(r.conflicted());
}

// ---- size() / try_dequeue(): the worker-loop probe API ----

TEST(TxQueueSize, ReadYourWritesAndPassthrough) {
  Fixture f;
  f.preload(2);
  EXPECT_EQ(f.q.size(), 2);  // non-transactional passthrough
  f.eng.spawn([&] {
    atomos::atomically([&] {
      f.q.put(10);
      f.q.put(11);
      EXPECT_EQ(f.q.size(), 4);  // 2 shared + 2 own buffered puts
      EXPECT_EQ(f.q.take(), 1);
      EXPECT_EQ(f.q.size(), 3);  // eager removal already visible
    });
  });
  f.eng.run();
  EXPECT_EQ(f.q.size(), 3);
}

TEST(TxQueueSize, SizeVsCommittedPut_Conflicts) {
  // A committed put changes the count: size observers must be violated
  // (the sizeLockers rule of Table 3, applied to the queue).
  Fixture f;
  f.preload(2);  // non-empty, so no emptiness lock is involved
  auto r = run_schedule(
      f.eng, [&] { EXPECT_GE(f.q.size(), 2); },
      [&] { f.q.put(3); });
  EXPECT_TRUE(r.conflicted());
}

TEST(TxQueueSize, SizeVsOthersEagerTake_Conflicts) {
  // Another transaction's take() removes eagerly — the observed count is
  // stale the moment the removal happens, not at the taker's commit.
  Fixture f;
  f.preload(4);
  auto r = run_schedule(
      f.eng, [&] { EXPECT_GE(f.q.size(), 3); },
      [&] { (void)f.q.take(); });
  EXPECT_TRUE(r.conflicted());
}

TEST(TxQueueSize, SizeVsSize_Commutes) {
  // Two observers of the same count never invalidate each other.
  Fixture f;
  f.preload(2);
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.q.size(), 2); },
      [&] { EXPECT_EQ(f.q.size(), 2); });
  EXPECT_FALSE(r.conflicted());
}

TEST(TxQueueSize, TryDequeueVsPut_Commutes) {
  // try_dequeue() is take(): a worker probing for work observes nothing,
  // so producers never violate it (the srv handler-loop fast path).
  Fixture f;
  auto r = run_schedule(
      f.eng, [&] { EXPECT_EQ(f.q.try_dequeue(), std::nullopt); },
      [&] { f.q.put(1); });
  EXPECT_FALSE(r.conflicted());
}

TEST(TxQueueSize, AbortPutBackViolatesSizeObservers) {
  // CPU0 takes an element then aborts; the compensation put-back changes
  // the count again and must doom a concurrent size observer whose read
  // landed between the eager removal and the abort.
  Fixture f;
  f.preload(3);
  sim::Engine& eng = f.eng;
  eng.spawn([&] {
    try {
      atomos::atomically([&] {
        (void)f.q.take();        // count 3 -> 2, eagerly
        if (atomos::work(4000)) return;
        throw std::runtime_error("abort");  // put-back: count 2 -> 3
      });
    } catch (const std::runtime_error&) {
    }
  });
  eng.spawn([&] {
    (void)atomos::work(1000);  // start after the take, finish after the put-back
    atomos::atomically([&] {
      (void)f.q.size();
      if (atomos::work(8000)) return;
    });
  });
  eng.run();
  EXPECT_GE(eng.stats().total(&sim::CpuStats::semantic_violations), 1u);
  EXPECT_EQ(f.q.size(), 3);  // compensation restored every element
}

TEST(TxQueueSize, SizeLockReleasedAfterCommit) {
  Fixture f;
  f.preload(1);
  f.eng.spawn([&] {
    atomos::atomically([&] { (void)f.q.size(); });
    EXPECT_EQ(f.q.size_locker_count(), 0u);  // dropped at commit
  });
  f.eng.run();
}

TEST(Table7Queue, DelaunayWorkQueuePattern) {
  // The motivating use: workers drain a queue, each item may spawn new
  // items; some transactions abort (simulated via a poisoned item value) —
  // and their taken items must reappear for other workers.  At the end all
  // original work is accounted for exactly once in the committed results.
  constexpr int kCpus = 4;
  sim::Engine eng(tcc_cfg(kCpus));
  atomos::Runtime rt(eng);
  TransactionalQueue<long> q(std::make_unique<jstd::LinkedQueue<long>>());
  for (long i = 1; i <= 40; ++i) q.put(i);
  atomos::Shared<long> processed_sum(0, sim::kDataCell);
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&, c] {
      int poison_budget = (c == 0) ? 3 : 0;  // CPU0 aborts its first 3 items
      for (;;) {
        bool drained = false;
        try {
          atomos::atomically([&] {
            auto item = q.take();
            if (!item.has_value()) {
              drained = true;
              return;
            }
            if (atomos::work(200)) return;
            if (poison_budget > 0) throw std::runtime_error("abort this work");
            processed_sum.set(processed_sum.get() + *item);
          });
        } catch (const std::runtime_error&) {
          --poison_budget;  // item went back to the queue; retry others
          continue;
        }
        if (drained) break;
      }
    });
  }
  eng.run();
  EXPECT_EQ(processed_sum.unsafe_peek(), 40 * 41 / 2);  // every item once
  EXPECT_EQ(q.inner().size(), 0);
}

}  // namespace
}  // namespace tcc
