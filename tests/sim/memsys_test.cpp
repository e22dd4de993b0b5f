// Unit tests for the timed memory hierarchy: MESI hit/miss/upgrade timing,
// line ping-pong, bus queuing, TCC speculative store/commit timing, and the
// rules that make invalidation by line version exact (a stale way is an
// invalid one to every path).
#include "sim/memsys.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sim {
namespace {

struct MemFixture : ::testing::Test {
  Config cfg;
  Stats stats{8};
  MemFixture() { cfg.num_cpus = 8; }
  MemSys make() { return MemSys(cfg, stats); }
};

// Addresses inside the virtual heap, all in L1 set 0.
constexpr std::uintptr_t A = kVaBase + 0x10000;
constexpr std::uintptr_t B = kVaBase + 0x20000;  // distinct line
constexpr std::uintptr_t A2 = A + 8;              // same line as A
// Distance between two lines of the same L1 set.
constexpr std::uintptr_t kSetStride =
    static_cast<std::uintptr_t>(Config::kL1Sets) * Config::kLineBytes;

TEST_F(MemFixture, ColdLoadMissesThenHits) {
  MemSys m = make();
  std::uint64_t t = m.plain_load(0, A, 0);
  // miss: arbitration + transfer + L2 latency
  EXPECT_EQ(t, Config::kBusArbCycles + Config::kBusXferCycles + Config::kL2HitCycles);
  std::uint64_t t2 = m.plain_load(0, A, t);
  EXPECT_EQ(t2, t + Config::kL1HitCycles);  // now a hit
  EXPECT_EQ(stats.cpu(0).l1_misses, 1u);
}

TEST_F(MemFixture, SameLineDifferentWordIsHit) {
  MemSys m = make();
  std::uint64_t t = m.plain_load(0, A, 0);
  std::uint64_t t2 = m.plain_load(0, A2, t);
  EXPECT_EQ(t2, t + Config::kL1HitCycles);
}

TEST_F(MemFixture, StoreAfterExclusiveLoadIsSilentUpgrade) {
  MemSys m = make();
  std::uint64_t t = m.plain_load(0, A, 0);  // installs E (no sharers)
  std::uint64_t t2 = m.plain_store(0, A, t);
  EXPECT_EQ(t2, t + Config::kL1HitCycles);  // E->M without bus traffic
}

TEST_F(MemFixture, StoreToSharedLinePaysUpgradeAndInvalidatesReader) {
  MemSys m = make();
  std::uint64_t t0 = m.plain_load(0, A, 0);
  std::uint64_t t1 = m.plain_load(1, A, 0);  // both now share the line
  (void)t0;
  std::uint64_t tw = m.plain_store(0, A, t1);
  EXPECT_GT(tw, t1 + Config::kL1HitCycles);  // upgrade needed the bus
  // CPU1's copy was invalidated: its next load misses again.
  std::uint64_t m1 = stats.cpu(1).l1_misses;
  m.plain_load(1, A, tw);
  EXPECT_EQ(stats.cpu(1).l1_misses, m1 + 1);
}

TEST_F(MemFixture, DirtyInterventionCostsWriteback) {
  MemSys m = make();
  std::uint64_t t = m.plain_load(0, A, 0);
  t = m.plain_store(0, A, t);  // CPU0 holds M
  std::uint64_t before = m.bus().busy_cycles();
  m.plain_load(1, A, t);  // must pull the dirty line
  std::uint64_t occ = m.bus().busy_cycles() - before;
  EXPECT_EQ(occ, Config::kBusXferCycles + Config::kWritebackCycles);
}

TEST_F(MemFixture, PingPongCostsDominateRepeatedSharedStores) {
  // Alternating stores from two CPUs to one line always pay bus latency.
  MemSys m = make();
  std::uint64_t t0 = m.plain_store(0, A, 0);
  std::uint64_t t1 = m.plain_store(1, A, t0);
  std::uint64_t t2 = m.plain_store(0, A, t1);
  EXPECT_GT(t1 - t0, static_cast<std::uint64_t>(Config::kL1HitCycles));
  EXPECT_GT(t2 - t1, static_cast<std::uint64_t>(Config::kL1HitCycles));
}

TEST_F(MemFixture, BusQueuesOverlappingRequests) {
  // Two cold misses "issued" at the same instant serialize on the bus.
  MemSys m = make();
  std::uint64_t ta = m.plain_load(0, A, 0);
  std::uint64_t tb = m.plain_load(1, B, 0);
  EXPECT_GT(tb, ta - Config::kL2HitCycles);  // second transfer started after first
}

TEST_F(MemFixture, TxStoreHitsWithoutBusTraffic) {
  MemSys m = make();
  std::uint64_t t = m.tx_load(0, A, 0);  // allocate line
  std::uint64_t before = m.bus().busy_cycles();
  std::uint64_t t2 = m.tx_store(0, A, t);
  EXPECT_EQ(t2, t + Config::kL1HitCycles);
  EXPECT_EQ(m.bus().busy_cycles(), before);  // speculative: no bus
}

TEST_F(MemFixture, CommitCostProportionalToWriteSet) {
  MemSys m = make();
  std::uint64_t before = m.bus().busy_cycles();
  m.tcc_commit(0, 5, 100);
  EXPECT_EQ(m.bus().busy_cycles() - before, 5u * Config::kCommitLineCycles);
}

TEST_F(MemFixture, InvalidateCopiesForcesRefetch) {
  MemSys m = make();
  std::uint64_t t1 = m.tx_load(1, A, 0);
  m.invalidate_copies(0, line_of(A));
  std::uint64_t misses = stats.cpu(1).l1_misses;
  m.tx_load(1, A, t1);
  EXPECT_EQ(stats.cpu(1).l1_misses, misses + 1);
}

TEST_F(MemFixture, AbortClearsSpeculativeLinesOnly) {
  MemSys m = make();
  std::uint64_t t = m.tx_load(0, A, 0);      // clean line
  t = m.tx_store(0, B, t);                   // speculative line
  m.abort_clear_speculative(0);
  std::uint64_t misses = stats.cpu(0).l1_misses;
  m.tx_load(0, A, t);                        // clean copy survives
  EXPECT_EQ(stats.cpu(0).l1_misses, misses);
  m.tx_load(0, B, t);                        // speculative copy dropped
  EXPECT_EQ(stats.cpu(0).l1_misses, misses + 1);
}

TEST_F(MemFixture, EvictionMakesRoomAndLosesLine) {
  // Fill one set beyond associativity; the LRU way must be recycled.
  MemSys m = make();
  std::uint64_t t = 0;
  for (std::uint32_t i = 0; i < Config::kL1Ways + 1; ++i)
    t = m.plain_load(0, A + i * kSetStride, t);
  std::uint64_t misses = stats.cpu(0).l1_misses;
  m.plain_load(0, A, t);  // the original line was LRU-evicted
  EXPECT_EQ(stats.cpu(0).l1_misses, misses + 1);
}

TEST_F(MemFixture, FillTakesTheInvalidatedWayBeforeTheLeastRecentOne) {
  // CPU 0 fills all four ways of set 0, way i holding line i.  CPU 1's store
  // to line 1 invalidates CPU 0's way 1.  CPU 0's next fill in the set must
  // take way 1, not evict way 0's least-recent line.
  static_assert(Config::kL1Ways == 4);
  MemSys m = make();
  std::uint64_t t = 0;
  for (std::uint32_t i = 0; i < Config::kL1Ways; ++i) t = m.plain_load(0, A + i * kSetStride, t);
  t = m.plain_store(1, A + kSetStride, t);
  t = m.plain_load(0, A + 4 * kSetStride, t);  // fills the invalidated way
  const std::uint64_t misses = stats.cpu(0).l1_misses;
  t = m.plain_load(0, A, t);  // the least-recent line survived
  t = m.plain_load(0, A + 2 * kSetStride, t);
  t = m.plain_load(0, A + 3 * kSetStride, t);
  EXPECT_EQ(stats.cpu(0).l1_misses, misses);
  m.plain_load(0, A + kSetStride, t);  // the invalidated line is gone
  EXPECT_EQ(stats.cpu(0).l1_misses, misses + 1);
}

TEST_F(MemFixture, CommitBroadcastKeepsTheCommittersCopyAcrossTwoBroadcasts) {
  MemSys m = make();
  std::uint64_t t = 0;
  for (int cpu = 0; cpu < 3; ++cpu) t = m.tx_load(cpu, A, t);
  m.invalidate_copies(0, line_of(A));
  std::uint64_t m0 = stats.cpu(0).l1_misses;
  const std::uint64_t m1 = stats.cpu(1).l1_misses;
  const std::uint64_t m2 = stats.cpu(2).l1_misses;
  t = m.tx_load(0, A, t);  // the committer's copy stays a hit
  EXPECT_EQ(stats.cpu(0).l1_misses, m0);
  t = m.tx_load(1, A, t);  // every other sharer misses; CPU 1 re-reads
  t = m.tx_load(2, A, t);
  EXPECT_EQ(stats.cpu(1).l1_misses, m1 + 1);
  EXPECT_EQ(stats.cpu(2).l1_misses, m2 + 1);
  // A second broadcast from the same committer: its re-stamped way must
  // still be valid after the second bump.
  m.invalidate_copies(0, line_of(A));
  t = m.tx_load(0, A, t);
  EXPECT_EQ(stats.cpu(0).l1_misses, m0);
  m.tx_load(1, A, t);
  EXPECT_EQ(stats.cpu(1).l1_misses, m1 + 2);
}

TEST_F(MemFixture, RefillOfAnInvalidatedSpeculativeWaySurvivesAbort) {
  // CPU 0's speculative copy of A is invalidated by CPU 1's commit of A.
  // CPU 0 re-reads A: a miss that refills the way non-speculatively, so an
  // abort must leave the refilled copy in place.
  MemSys m = make();
  std::uint64_t t = m.tx_store(0, A, 0);
  t = m.tx_store(1, A, t);
  t = m.tcc_commit(1, 1, t);
  m.invalidate_copies(1, line_of(A));
  std::uint64_t misses = stats.cpu(0).l1_misses;
  t = m.tx_load(0, A, t);
  EXPECT_EQ(stats.cpu(0).l1_misses, misses + 1);
  m.abort_clear_speculative(0);
  m.tx_load(0, A, t);
  EXPECT_EQ(stats.cpu(0).l1_misses, misses + 1);
}

TEST_F(MemFixture, AbortLeavesAStaleSpeculativeWayAlone) {
  // CPU 0 reads X into way 0 and writes A speculatively into way 1; a commit
  // of A and a store to X make both ways stale, and CPU 0's re-read of A
  // refills way 0.  The abort must skip the stale way 1: were it taken for
  // A's copy, CPU 0 would lose its sharer bit, and CPU 2's store to A would
  // leave CPU 0's refilled copy valid.
  const std::uintptr_t X = A + kSetStride;
  MemSys m = make();
  std::uint64_t t = m.tx_load(0, X, 0);
  t = m.tx_store(0, A, t);
  m.invalidate_copies(1, line_of(A));
  t = m.plain_store(2, X, t);
  t = m.tx_load(0, A, t);
  m.abort_clear_speculative(0);
  t = m.plain_store(2, A, t);
  const std::uint64_t misses = stats.cpu(0).l1_misses;
  m.tx_load(0, A, t);
  EXPECT_EQ(stats.cpu(0).l1_misses, misses + 1);
}

TEST_F(MemFixture, AccessOutsideTheVirtualHeapThrows) {
  // No Shared cell or Mutex has such an address: the line table refuses it
  // rather than indexing out of range.
  MemSys m = make();
  EXPECT_THROW(m.plain_load(0, kVaBase - Config::kLineBytes, 0), std::out_of_range);
  EXPECT_THROW(m.plain_store(0, 0x10000, 0), std::out_of_range);
  EXPECT_THROW(m.tx_load(0, 0, 0), std::out_of_range);
  EXPECT_THROW(m.tx_store(0, kLineEnd << Config::kLineShift, 0), std::out_of_range);
}

}  // namespace
}  // namespace sim
