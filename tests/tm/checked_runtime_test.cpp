// Tests for the TXCC_CHECKED runtime invariant auditor (txcheck layer 2).
//
// Only built when the tree is configured with -DTXCC_CHECKED=ON (see
// tests/tm/CMakeLists.txt).  Each negative test deliberately breaks one
// piece of transactional discipline and asserts the auditor reports it;
// the positive tests assert the auditor stays silent on correct code.
#include "tm/audit.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/lockers.h"
#include "core/txmap.h"
#include "jstd/hashmap.h"
#include "tm/runtime.h"
#include "tm/shared.h"
#include "trace/tracer.h"

namespace atomos {
namespace {

static_assert(audit::kEnabled, "checked_runtime_test requires -DTXCC_CHECKED=ON");

sim::Config tcc_cfg(int cpus) {
  sim::Config c;
  c.num_cpus = cpus;
  c.mode = sim::Mode::kTcc;
  return c;
}

class CheckedRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { audit::reset(); }
  void TearDown() override { audit::reset(); }
};

// A transaction that takes a semantic key lock and registers no cleanup
// handler leaks the lock past its own commit: nobody will ever release it.
TEST_F(CheckedRuntimeTest, ReportsSemanticLockLeakedPastCommit) {
  tcc::KeyLockTable<long> locks;
  {
    sim::Engine eng(tcc_cfg(1));
    Runtime rt(eng);
    eng.spawn([&] {
      atomically([&] {
        locks.lock(7, self_id());  // read intent... and no release handler
      });
    });
    eng.run();
  }
  EXPECT_EQ(audit::count(audit::Check::kLockLeak), 1u);
  ASSERT_FALSE(audit::reports().empty());
  EXPECT_NE(audit::reports()[0].find("semantic lock"), std::string::npos);
  // The stale entry must not keep reporting once the owner is settled: a
  // later writer pruning the dead owner is a no-op for the auditor.
  {
    sim::Engine eng(tcc_cfg(1));
    Runtime rt(eng);
    eng.spawn([&] {
      atomically([&] { locks.violate_holders(7, self_id()); });
    });
    eng.run();
  }
  EXPECT_EQ(audit::count(audit::Check::kLockLeak), 1u);
}

TEST_F(CheckedRuntimeTest, ReportsSemanticLockLeakedPastAbort) {
  sim::Engine eng(tcc_cfg(2));
  Runtime rt(eng);
  tcc::KeyLockTable<long> locks;
  Shared<int> hot(0, sim::kDataCell);
  int attempts = 0;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      // Lock under a fresh incarnation each attempt; never unlock.  On the
      // first (violated) attempt the lock leaks past the abort.
      locks.lock(1, self_id());
      hot.set(hot.get() + 1);
      if (Runtime::current().work(2000)) return;  // stay speculative long enough to lose
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(100);
    atomically([&] { hot.set(hot.get() + 10); });
  });
  eng.run();
  ASSERT_GT(attempts, 1) << "test needs at least one violation to exercise abort";
  // Every finished incarnation (aborted attempts + the final commit) leaked.
  EXPECT_EQ(audit::count(audit::Check::kLockLeak), static_cast<std::uint64_t>(attempts));
}

// Correct discipline: release the lock in paired commit/abort handlers, the
// way the transactional collections do.  The auditor must stay silent.
TEST_F(CheckedRuntimeTest, PairedHandlersReleaseCleanly) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  tcc::KeyLockTable<long> locks;
  eng.spawn([&] {
    atomically([&] {
      const TxnId me = self_id();
      locks.lock(7, me);
      Runtime::current().on_top_commit(&locks, [&locks, me] { locks.unlock(7, me); },
                                       [&locks, me] { locks.unlock(7, me); });
    });
  });
  eng.run();
  EXPECT_EQ(audit::total(), 0u) << (audit::reports().empty() ? "" : audit::reports()[0]);
  EXPECT_EQ(locks.locked_key_count(), 0u);
}

// Abort-only registration is the legal CompensatedCounter shape: never flag.
// (A commit handler without an abort side does not compile.)
TEST_F(CheckedRuntimeTest, AbortOnlyHandlerIsLegal) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  eng.spawn([&] {
    atomically([&] { Runtime::current().on_top_abort([] {}); });
  });
  eng.run();
  EXPECT_EQ(audit::total(), 0u) << (audit::reports().empty() ? "" : audit::reports()[0]);
}

// A commit handler that releases the same semantic lock twice: the second
// request finds nothing to release while its owner is still live — under
// optimistic read intents it could strip ANOTHER reader's protection.
TEST_F(CheckedRuntimeTest, ReportsSemanticLockDoubleRelease) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  tcc::KeyLockTable<long> locks;
  eng.spawn([&] {
    atomically([&] {
      const TxnId me = self_id();
      locks.lock(7, me);
      Runtime::current().on_top_commit(
          &locks,
          [&locks, me] {
            locks.unlock(7, me);
            locks.unlock(7, me);  // second release: nothing left to release
          },
          [&locks, me] { locks.unlock(7, me); });
    });
  });
  eng.run();
  EXPECT_EQ(audit::count(audit::Check::kDoubleRelease), 1u);
  EXPECT_EQ(audit::count(audit::Check::kLockLeak), 0u);
  ASSERT_FALSE(audit::reports().empty());
  EXPECT_NE(audit::reports().back().find("release"), std::string::npos);
}

// Pruning a SETTLED owner's stale entry is the legal counterpart: the
// release request finds nothing, but its owner is long gone.
TEST_F(CheckedRuntimeTest, StaleUnlockOfSettledOwnerIsNotDoubleRelease) {
  tcc::KeyLockTable<long> locks;
  TxnId leaker{};
  {
    sim::Engine eng(tcc_cfg(1));
    Runtime rt(eng);
    eng.spawn([&] {
      atomically([&] {
        leaker = self_id();
        locks.lock(7, leaker);  // leaks (reported as kLockLeak, not here)
      });
    });
    eng.run();
  }
  audit::reset();  // drop the leak report; only the unlock below matters
  {
    sim::Engine eng(tcc_cfg(1));
    Runtime rt(eng);
    eng.spawn([&] {
      atomically([&] { locks.unlock(7, leaker); });  // stale: owner settled
    });
    eng.run();
  }
  EXPECT_EQ(audit::count(audit::Check::kDoubleRelease), 0u);
}

// Conflict detection prunes a lock whose owner is not live, and an owner
// running its compensation is not live.  A committer can therefore prune
// the lock before the compensation releases it; that release then finds
// nothing.  Neither is a finding: the prune released the lock, and the
// compensation's release is a stale one.
TEST_F(CheckedRuntimeTest, LockPrunedDuringItsOwnersCompensationIsNotReported) {
  sim::Engine eng(tcc_cfg(3));
  Runtime rt(eng);
  tcc::KeyLockTable<long> locks;
  Shared<int> hot(0, sim::kDataCell);
  int attempts = 0;
  std::size_t locked_after_prune = 1;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      const TxnId me = self_id();
      locks.lock(1, me);
      Runtime::current().on_top_commit(&locks, [&locks, me] { locks.unlock(1, me); },
                                       [&locks, me] {
                                         // CPU2 prunes the lock meanwhile.
                                         if (Runtime::current().work(3000)) return;
                                         locks.unlock(1, me);
                                       });
      (void)hot.get();
      if (Runtime::current().work(2000)) return;  // CPU1's commit dooms attempt 1
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(100);
    atomically([&] { hot.set(1); });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(3000);  // inside CPU0's compensation
    atomically([&] {
      (void)locks.violate_holders(1, self_id());
      locked_after_prune = locks.locked_key_count();
    });
  });
  eng.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(locked_after_prune, 0u);  // the prune landed before the unlock
  EXPECT_EQ(audit::total(), 0u) << (audit::reports().empty() ? "" : audit::reports()[0]);
  EXPECT_EQ(locks.locked_key_count(), 0u);
}

// The same prune, landing in the second of two compensations.  The first
// one's detached transaction settles a newer incarnation on CPU 0 while the
// owner is still compensating; the owner's ledger entry, not the CPU's
// settled watermark, decides.
TEST_F(CheckedRuntimeTest, LockPrunedDuringItsOwnersSecondCompensationIsNotReported) {
  sim::Engine eng(tcc_cfg(3));
  Runtime rt(eng);
  tcc::KeyLockTable<long> locks;
  Shared<int> hot(0, sim::kDataCell);
  int attempts = 0;
  std::size_t locked_after_prune = 1;
  eng.spawn([&] {
    atomically([&] {
      ++attempts;
      const TxnId me = self_id();
      locks.lock(1, me);
      Runtime::current().on_top_commit(&locks, [&locks, me] { locks.unlock(1, me); },
                                       [&locks, me] {
                                         // CPU2 prunes the lock meanwhile.
                                         if (Runtime::current().work(3000)) return;
                                         locks.unlock(1, me);
                                       });
      // Registered last, so it compensates first and settles first.
      Runtime::current().on_top_abort([] {
        if (Runtime::current().work(100)) return;
      });
      (void)hot.get();
      if (Runtime::current().work(2000)) return;  // CPU1's commit dooms attempt 1
    });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(100);
    atomically([&] { hot.set(1); });
  });
  eng.spawn([&] {
    (void)Runtime::current().work(3000);  // inside CPU0's second compensation
    atomically([&] {
      (void)locks.violate_holders(1, self_id());
      locked_after_prune = locks.locked_key_count();
    });
  });
  eng.run();
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(locked_after_prune, 0u);  // the prune landed before the unlock
  EXPECT_EQ(audit::total(), 0u) << (audit::reports().empty() ? "" : audit::reports()[0]);
  EXPECT_EQ(locks.locked_key_count(), 0u);
}

// Compensations are not idempotent, so one owner registers one handler pair
// per top-level transaction.  A second registration throws: the transaction
// aborts, its one compensation releases the lock, and the auditor has
// nothing to report.
TEST_F(CheckedRuntimeTest, SecondHandlerPairOfOneOwnerThrowsAndCompensatesOnce) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  tcc::KeyLockTable<long> locks;
  int compensations = 0;
  bool rejected = false;
  eng.spawn([&] {
    try {
      atomically([&] {
        const TxnId me = self_id();
        locks.lock(7, me);
        Runtime::current().on_top_commit(&locks, [&locks, me] { locks.unlock(7, me); },
                                         [&locks, me, &compensations] {
                                           ++compensations;
                                           locks.unlock(7, me);
                                         });
        Runtime::current().on_top_commit(&locks, [] {}, [&compensations] { ++compensations; });
      });
    } catch (const std::logic_error&) {
      rejected = true;
    }
  });
  eng.run();
  EXPECT_TRUE(rejected);
  EXPECT_EQ(compensations, 1);
  EXPECT_EQ(locks.locked_key_count(), 0u);
  EXPECT_EQ(audit::total(), 0u) << (audit::reports().empty() ? "" : audit::reports()[0]);
}

// A compensation that throws before releasing its lock still settles its
// owner: the compensations have run, and the lock they left is leaked.
TEST_F(CheckedRuntimeTest, ReportsLockLeftByAThrowingCompensation) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  tcc::KeyLockTable<long> locks;
  bool saw_failure = false;
  eng.spawn([&] {
    try {
      atomically([&] {
        const TxnId me = self_id();
        locks.lock(7, me);
        Runtime::current().on_top_commit(&locks, [&locks, me] { locks.unlock(7, me); },
                                         [] { throw std::logic_error("compensation failed"); });
        throw std::runtime_error("force abort");
      });
    } catch (const std::logic_error&) {
      saw_failure = true;
    }
  });
  eng.run();
  EXPECT_TRUE(saw_failure);
  EXPECT_EQ(audit::count(audit::Check::kLockLeak), 1u);
}

// Distinct compensations in one abort — and the same one across DIFFERENT
// aborts (a retried transaction re-registers each attempt) — each run once
// per abort.
TEST_F(CheckedRuntimeTest, DistinctAndReattemptedCompensationsAreLegal) {
  sim::Engine eng(tcc_cfg(1));
  Runtime rt(eng);
  int runs_a = 0, runs_b = 0;
  eng.spawn([&] {
    for (int round = 0; round < 2; ++round) {
      try {
        atomically([&] {
          Runtime::current().on_top_abort([&] { ++runs_a; });
          Runtime::current().on_top_abort([&] { ++runs_b; });
          throw std::runtime_error("force abort");
        });
      } catch (const std::runtime_error&) {
      }
    }
  });
  eng.run();
  EXPECT_EQ(runs_a, 2);
  EXPECT_EQ(runs_b, 2);
  EXPECT_EQ(audit::total(), 0u) << (audit::reports().empty() ? "" : audit::reports()[0]);
}

// End-to-end clean path: a TransactionalMap workload under contention —
// semantic locks taken and released by the collection's own paired handlers,
// open-nested commits, retries — must leave the auditor with nothing to say.
TEST_F(CheckedRuntimeTest, TransactionalMapWorkloadIsClean) {
  constexpr int kCpus = 4;
  sim::Engine eng(tcc_cfg(kCpus));
  Runtime rt(eng);
  tcc::TransactionalMap<long, long> map(std::make_unique<jstd::HashMap<long, long>>(64));
  for (int c = 0; c < kCpus; ++c) {
    eng.spawn([&, c] {
      std::uint64_t s = static_cast<std::uint64_t>(c) + 1;
      for (int i = 0; i < 20; ++i) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        const long key = static_cast<long>((s >> 33) % 8);
        atomically([&] {
          if (map.get(key).has_value()) {
            map.put(key, key * 10 + c);
          } else {
            map.put(key, c);
          }
          if (work(50)) return;
        });
      }
    });
  }
  eng.run();
  EXPECT_GT(eng.stats().total(&sim::CpuStats::commits), 0u);
  EXPECT_EQ(audit::total(), 0u) << (audit::reports().empty() ? "" : audit::reports()[0]);
}

// A trace stream whose begin/commit events do not nest means an emission
// point was lost (a torn stream).  Drive a Tracer by hand to plant the tear.
TEST_F(CheckedRuntimeTest, FlagsTornTraceStreams) {
  {
    trace::Tracer t(1);
    t.on_txn_begin(0, 100, /*open=*/false, 1, 1);  // ... and never exits
    audit::check_trace_nesting(t);
  }
  EXPECT_EQ(audit::count(audit::Check::kTornTrace), 1u);
  ASSERT_FALSE(audit::reports().empty());
  EXPECT_NE(audit::reports().back().find("never terminated"), std::string::npos);

  {
    trace::Tracer t(1);
    t.on_txn_begin(0, 100, /*open=*/false, 1, 1);
    t.on_txn_begin(0, 110, /*open=*/true, 2, 1);     // open-nested child...
    t.on_txn_commit(0, 120, /*open=*/false, 3);      // ...crossed by top exit
    audit::check_trace_nesting(t);
  }
  EXPECT_EQ(audit::count(audit::Check::kTornTrace), 2u);
  EXPECT_NE(audit::reports().back().find("open-nested child is active"),
            std::string::npos);

  {
    trace::Tracer t(1);
    t.on_txn_commit(0, 50, /*open=*/true, 0);  // open exit with no begin
    audit::check_trace_nesting(t);
  }
  EXPECT_EQ(audit::count(audit::Check::kTornTrace), 3u);

  // Overflowed streams are skipped (pairing is unjudgeable across a hole),
  // and well-nested streams stay silent.
  {
    trace::Tracer overflowed(1, /*capacity_per_cpu=*/1);
    overflowed.on_txn_begin(0, 10, false, 1, 1);
    overflowed.on_txn_begin(0, 20, false, 2, 1);  // dropped: buffer full
    audit::check_trace_nesting(overflowed);

    trace::Tracer clean(1);
    clean.on_txn_begin(0, 10, false, 1, 1);
    clean.on_txn_begin(0, 20, true, 2, 1);
    clean.on_txn_commit(0, 30, true, 0);
    clean.on_txn_commit(0, 40, false, 1);
    audit::check_trace_nesting(clean);
  }
  EXPECT_EQ(audit::count(audit::Check::kTornTrace), 3u);
}

// Positive integration: a real traced run (in-memory tracer via an empty
// request path) must produce well-nested streams on every CPU — ~Runtime
// audits them automatically.
TEST_F(CheckedRuntimeTest, RealTracedRunIsWellNested) {
  trace::set_request("");  // in-memory tracer, audited at Runtime teardown
  {
    sim::Engine eng(tcc_cfg(2));
    Runtime rt(eng);
    ASSERT_NE(rt.tracer(), nullptr);
    Shared<long> cell(0, sim::kDataCell);
    for (int c = 0; c < 2; ++c) {
      eng.spawn([&] {
        for (int i = 0; i < 20; ++i) {
          atomically([&] {
            cell.set(cell.get() + 1);
            open_atomically([&] { if (work(5)) return; });
          });
        }
      });
    }
    eng.run();
  }
  trace::clear_request();
  EXPECT_EQ(audit::count(audit::Check::kTornTrace), 0u)
      << (audit::reports().empty() ? "" : audit::reports().back());
}

}  // namespace
}  // namespace atomos
