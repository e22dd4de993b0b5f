// Serializability-oracle unit tests: hand-authored histories driven through
// the public record/flush API, one per anomaly class plus clean histories
// that must be accepted.
#include "mc/oracle.h"

#include <gtest/gtest.h>

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

/// A lock-table event of cpu 0's first incarnation on `set`.
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
  o.on_lock_event(lock_event(Kind::kAcquire, &table_a), /*owner_live=*/true);
  // A prune reaches only owners that are no longer live: the leak stays.
  o.on_lock_event(lock_event(Kind::kPrune, &table_a), /*owner_live=*/false);
  EXPECT_TRUE(has(o.check(), Anomaly::kLockLeak));
}

TEST(OracleTest, BalancedLocksAreClean) {
  using Kind = atomos::SemEvent::Kind;
  Oracle o;
  o.register_name(&table_a, "locks");
  o.on_lock_event(lock_event(Kind::kAcquire, &table_a), true);
  o.on_lock_event(lock_event(Kind::kAcquire, &table_a), true);
  o.on_lock_event(lock_event(Kind::kRelease, &table_a), true);
  o.on_lock_event(lock_event(Kind::kReleaseAll, &table_a), true);
  EXPECT_TRUE(o.check().empty());
}

TEST(OracleTest, DoubleReleaseOnlyWhenOwnerLive) {
  using Kind = atomos::SemEvent::Kind;
  Oracle o;
  o.register_name(&table_a, "locks");
  o.on_lock_event(lock_event(Kind::kReleaseNoop, &table_a), /*owner_live=*/false);
  EXPECT_TRUE(o.check().empty());  // stale prune of a settled owner
  o.on_lock_event(lock_event(Kind::kReleaseNoop, &table_a), /*owner_live=*/true);
  EXPECT_TRUE(has(o.check(), Anomaly::kDoubleRelease));
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
