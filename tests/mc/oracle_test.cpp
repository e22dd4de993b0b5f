// Serializability-oracle unit tests: hand-authored histories driven through
// the public record/flush API, one per anomaly class plus clean histories
// that must be accepted, and one lock-ledger scenario run end to end under
// an mc::Controller.
#include "mc/oracle.h"

#include <gtest/gtest.h>

#include "core/lockers.h"
#include "mc/controller.h"
#include "tm/shared.h"

namespace mc {
namespace {

atomos::TxnId id(int cpu, std::uint64_t inc = 1) {
  atomos::TxnId t;
  t.cpu = cpu;
  t.incarnation = inc;
  return t;
}

Op map_get(const void* table, long key, bool present, long observed) {
  Op op;
  op.kind = Op::Kind::kGet;
  op.table = table;
  op.key = key;
  op.observed_present = present;
  op.observed = observed;
  return op;
}

Op map_put(const void* table, long key, long value, bool old_present, long old_value) {
  Op op;
  op.kind = Op::Kind::kPut;
  op.table = table;
  op.key = key;
  op.value = value;
  op.observed_present = old_present;
  op.observed = old_value;
  return op;
}

Op q_op(Op::Kind kind, const void* table, long observed = 0) {
  Op op;
  op.kind = kind;
  op.table = table;
  op.value = observed;
  op.observed = observed;
  op.observed_present = true;
  return op;
}

/// A semantic-layer event of cpu 0's first incarnation on `set` (a settle
/// names no set).
atomos::SemEvent lock_event(atomos::SemEvent::Kind kind, const void* set) {
  return atomos::SemEvent{kind, id(0), set, set};
}

bool has(const std::vector<Violation>& vs, Anomaly kind) {
  for (const Violation& v : vs) {
    if (v.kind == kind) return true;
  }
  return false;
}

int table_a, table_b;  // addresses only; the oracle never dereferences

TEST(OracleTest, CleanWriterHistory) {
  Oracle o;
  o.register_map(&table_a, "map", {{1, 10}});
  o.attempt_begin(0, id(0));
  o.record(0, map_get(&table_a, 1, true, 10));
  o.record(0, map_put(&table_a, 1, 11, true, 10));
  o.flush_commit(0);
  o.set_final_map(&table_a, {{1, 11}});
  EXPECT_TRUE(o.check().empty());
}

TEST(OracleTest, CleanReadOnlyWindow) {
  // The reader observes the OLD value but flushes after the writer: legal,
  // because a token-free read-only commit may serialize anywhere in its
  // [first observation, flush] window.
  Oracle o;
  o.register_map(&table_a, "map", {{1, 10}});
  o.attempt_begin(0, id(0));
  o.record(0, map_get(&table_a, 1, true, 10));
  o.attempt_begin(1, id(1));
  o.record(1, map_put(&table_a, 1, 11, true, 10));
  o.flush_commit(1);
  o.flush_commit(0);
  o.set_final_map(&table_a, {{1, 11}});
  EXPECT_TRUE(o.check().empty());
}

TEST(OracleTest, LostUpdateDetected) {
  // Both writers read version 10 and overwrite; the second never saw the
  // first's committed value.
  Oracle o;
  o.register_map(&table_a, "map", {{1, 10}});
  o.attempt_begin(0, id(0));
  o.attempt_begin(1, id(1));
  o.record(0, map_put(&table_a, 1, 100, true, 10));
  o.record(1, map_put(&table_a, 1, 200, true, 10));
  o.flush_commit(0);
  o.flush_commit(1);
  o.set_final_map(&table_a, {{1, 200}});
  EXPECT_TRUE(has(o.check(), Anomaly::kLostUpdate));
}

TEST(OracleTest, LostSemanticLockDetected) {
  // A writer's protected get went stale: a concurrent committed mutation of
  // the SAME key landed inside its window, but it writes a different key, so
  // the stale read is a failed read lock, not a lost update.
  Oracle o;
  o.register_map(&table_a, "map", {{1, 10}});
  o.attempt_begin(0, id(0));
  o.attempt_begin(1, id(1));
  o.record(0, map_get(&table_a, 1, true, 10));
  o.record(1, map_put(&table_a, 1, 11, true, 10));
  o.flush_commit(1);
  o.record(0, map_put(&table_a, 2, 77, false, 0));
  o.flush_commit(0);
  o.set_final_map(&table_a, {{1, 11}, {2, 77}});
  EXPECT_TRUE(has(o.check(), Anomaly::kLostSemanticLock));
}

TEST(OracleTest, NonCommutingOpenDetected) {
  // A reader observed an open-nested EAGER put whose parent later aborted —
  // pre-commit state leaked through the open child.
  Oracle o;
  o.register_map(&table_a, "map", {});
  o.attempt_begin(1, id(1));
  Op eager = map_put(&table_a, 50, 42, false, 0);
  eager.open_child = true;
  o.record(1, eager);
  o.attempt_begin(0, id(0));
  o.record(0, map_get(&table_a, 50, true, 42));
  o.flush_commit(0);
  o.flush_abort(1);
  o.set_final_map(&table_a, {});
  EXPECT_TRUE(has(o.check(), Anomaly::kNonCommutingOpen));
}

TEST(OracleTest, NotSerializableFallback) {
  // An observation nothing in the history explains, with no concurrent
  // writer and no open-nested effect to pin it on.
  Oracle o;
  o.register_map(&table_a, "map", {});
  o.attempt_begin(0, id(0));
  o.record(0, map_get(&table_a, 1, true, 99));
  o.flush_commit(0);
  const auto vs = o.check();
  EXPECT_TRUE(has(vs, Anomaly::kNotSerializable));
  EXPECT_FALSE(has(vs, Anomaly::kLostUpdate));
}

TEST(OracleTest, FinalStateDivergenceDetected) {
  Oracle o;
  o.register_map(&table_a, "map", {{1, 10}});
  o.attempt_begin(0, id(0));
  o.record(0, map_put(&table_a, 1, 11, true, 10));
  o.flush_commit(0);
  o.set_final_map(&table_a, {{1, 99}});
  EXPECT_TRUE(has(o.check(), Anomaly::kFinalStateDivergence));
}

TEST(OracleTest, CompensationInversionDetected) {
  // An aborted poll must restore its element; the actual final queue lost it.
  Oracle o;
  o.register_queue(&table_b, "queue", {7});
  o.attempt_begin(0, id(0));
  o.record(0, q_op(Op::Kind::kQPollHit, &table_b, 7));
  o.flush_abort(0);
  o.set_final_queue(&table_b, {});
  EXPECT_TRUE(has(o.check(), Anomaly::kCompensationInversion));
}

TEST(OracleTest, CompensationRestoresQueue) {
  // Same history, but the element IS back in the final queue: clean.
  Oracle o;
  o.register_queue(&table_b, "queue", {7});
  o.attempt_begin(0, id(0));
  o.record(0, q_op(Op::Kind::kQPollHit, &table_b, 7));
  o.flush_abort(0);
  o.set_final_queue(&table_b, {7});
  EXPECT_TRUE(o.check().empty());
}

TEST(OracleTest, QueueEmptinessNeedsAnEmptyMoment) {
  // A committed emptiness observation while the queue held an element the
  // whole window: the empty lock failed.
  Oracle o;
  o.register_queue(&table_b, "queue", {7});
  o.attempt_begin(0, id(0));
  o.record(0, q_op(Op::Kind::kQPollMiss, &table_b));
  o.flush_commit(0);
  o.set_final_queue(&table_b, {7});
  EXPECT_TRUE(has(o.check(), Anomaly::kLostSemanticLock));
}

TEST(OracleTest, CancelledPutLeavesNoTrace) {
  // A put consumed by the same transaction's poll is cancelled: the element
  // never reaches the shared queue, so an empty final queue is consistent.
  Oracle o;
  o.register_queue(&table_b, "queue", {});
  o.attempt_begin(0, id(0));
  const std::size_t idx = o.record(0, q_op(Op::Kind::kQPut, &table_b, 5));
  o.cancel(0, idx);
  o.flush_commit(0);
  o.set_final_queue(&table_b, {});
  EXPECT_TRUE(o.check().empty());
}

TEST(OracleTest, LockLeakDetected) {
  using Kind = atomos::SemEvent::Kind;
  Oracle o;
  o.register_name(&table_a, "locks");
  o.on_lock_event(lock_event(Kind::kAcquire, &table_a));
  EXPECT_TRUE(o.check().empty());  // unsettled: its handlers may still release
  o.on_lock_event(lock_event(Kind::kSettle, nullptr));
  EXPECT_TRUE(has(o.check(), Anomaly::kLockLeak));
  // A later prune of the settled owner is stale: one leak, nothing more.
  o.on_lock_event(lock_event(Kind::kPrune, &table_a));
  EXPECT_EQ(o.check().size(), 1u);
}

TEST(OracleTest, BalancedLocksAreClean) {
  using Kind = atomos::SemEvent::Kind;
  Oracle o;
  o.register_name(&table_a, "locks");
  o.on_lock_event(lock_event(Kind::kAcquire, &table_a));
  o.on_lock_event(lock_event(Kind::kAcquire, &table_a));
  o.on_lock_event(lock_event(Kind::kRelease, &table_a));
  o.on_lock_event(lock_event(Kind::kReleaseAll, &table_a));
  o.on_lock_event(lock_event(Kind::kSettle, nullptr));
  EXPECT_TRUE(o.check().empty());
}

TEST(OracleTest, DoubleReleaseOnlyWhenOwnerLive) {
  using Kind = atomos::SemEvent::Kind;
  Oracle o;
  o.register_name(&table_a, "locks");
  o.on_lock_event(lock_event(Kind::kAcquire, &table_a));
  o.on_lock_event(lock_event(Kind::kRelease, &table_a));
  EXPECT_TRUE(o.check().empty());
  o.on_lock_event(lock_event(Kind::kReleaseNoop, &table_a));  // unsettled: a second release
  EXPECT_TRUE(has(o.check(), Anomaly::kDoubleRelease));
  o.on_lock_event(lock_event(Kind::kSettle, nullptr));
  o.on_lock_event(lock_event(Kind::kReleaseNoop, &table_a));  // settled: stale
  EXPECT_EQ(o.check().size(), 1u);
}

TEST(OracleTest, PrunedLockOwesOneEmptyRelease) {
  // Conflict detection pruned the lock while its owner compensated: the
  // prune released it, so the owner's own release finds nothing and is
  // owed.  A second empty release is not.
  using Kind = atomos::SemEvent::Kind;
  Oracle o;
  o.register_name(&table_a, "locks");
  o.on_lock_event(lock_event(Kind::kAcquire, &table_a));
  o.on_lock_event(lock_event(Kind::kPrune, &table_a));
  o.on_lock_event(lock_event(Kind::kReleaseNoop, &table_a));
  o.on_lock_event(lock_event(Kind::kSettle, nullptr));
  EXPECT_TRUE(o.check().empty());

  Oracle twice;
  twice.on_lock_event(lock_event(Kind::kAcquire, &table_a));
  twice.on_lock_event(lock_event(Kind::kPrune, &table_a));
  twice.on_lock_event(lock_event(Kind::kReleaseNoop, &table_a));
  twice.on_lock_event(lock_event(Kind::kReleaseNoop, &table_a));
  twice.on_lock_event(lock_event(Kind::kSettle, nullptr));
  const std::vector<Violation> vs = twice.check();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, Anomaly::kDoubleRelease);
}

// The prune window end to end, with CheckedRuntimeTest's scenario of the
// same name run under an mc::Controller: CPU 1's commit dooms CPU 0, and
// CPU 2 prunes CPU 0's key lock while CPU 0's compensation is still running,
// so the compensation's release finds nothing.
TEST(OracleTest, LockPrunedDuringItsOwnersCompensationIsNotReported) {
  sim::Config cfg;
  cfg.num_cpus = 3;
  cfg.mode = sim::Mode::kTcc;
  sim::Engine eng(cfg);
  atomos::Runtime rt(eng);
  Oracle oracle;
  Controller ctl(eng, &oracle, Schedule{});
  eng.set_scheduler_hook(&ctl);
  rt.set_mc_observer(&ctl);
  tcc::KeyLockTable<long> locks;
  atomos::Shared<int> hot(0, sim::kDataCell);
  int attempts = 0;
  std::size_t locked_after_prune = 1;
  eng.spawn([&] {
    atomos::atomically([&] {
      ++attempts;
      const atomos::TxnId me = atomos::self_id();
      locks.lock(1, me);
      rt.on_top_commit(&locks, [&locks, me] { locks.unlock(1, me); },
                       [&locks, me] {
                         if (atomos::work(3000)) return;  // CPU 2 prunes meanwhile
                         locks.unlock(1, me);
                       });
      (void)hot.get();
      if (atomos::work(2000)) return;  // CPU 1's commit dooms attempt 1
    });
  });
  eng.spawn([&] {
    (void)atomos::work(100);
    atomos::atomically([&] { hot.set(1); });
  });
  eng.spawn([&] {
    (void)atomos::work(3000);  // inside CPU 0's compensation
    atomos::atomically([&] {
      (void)locks.violate_holders(1, atomos::self_id());
      locked_after_prune = locks.locked_key_count();
    });
  });
  eng.run();
  rt.set_mc_observer(nullptr);
  eng.set_scheduler_hook(nullptr);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(locked_after_prune, 0u);  // the prune landed before the unlock
  const std::vector<Violation> vs = oracle.check();
  EXPECT_TRUE(vs.empty()) << (vs.empty() ? "" : vs.front().detail);
}

TEST(OracleTest, AbortAfterCommitFlushDemotesInPlace) {
  // A commit handler escalated into an abort after the oracle's commit flush
  // already ran: the attempt must count as aborted, so its put never reaches
  // the model and the unchanged final state is clean.
  Oracle o;
  o.register_map(&table_a, "map", {{1, 10}});
  o.attempt_begin(0, id(0));
  o.record(0, map_put(&table_a, 1, 11, true, 10));
  o.flush_commit(0);
  o.flush_abort(0);
  o.set_final_map(&table_a, {{1, 10}});
  EXPECT_TRUE(o.check().empty());
  ASSERT_EQ(o.history().size(), 1u);
  EXPECT_FALSE(o.history()[0].committed);
}

}  // namespace
}  // namespace mc
