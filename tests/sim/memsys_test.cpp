// Unit tests for the timed memory hierarchy: MESI hit/miss/upgrade timing,
// line ping-pong, bus queuing, and TCC speculative store/commit timing.
#include "sim/memsys.h"

#include <gtest/gtest.h>

namespace sim {
namespace {

struct MemFixture : ::testing::Test {
  Config cfg;
  Stats stats{8};
  MemFixture() { cfg.num_cpus = 8; }
  MemSys make() { return MemSys(cfg, stats); }
};

constexpr std::uintptr_t A = 0x10000;   // line 0x400
constexpr std::uintptr_t B = 0x20000;   // distinct line
constexpr std::uintptr_t A2 = 0x10008;  // same line as A

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
  const std::uintptr_t set_stride =
      static_cast<std::uintptr_t>(Config::kL1Sets) * Config::kLineBytes;
  std::uint64_t t = 0;
  for (std::uint32_t i = 0; i < Config::kL1Ways + 1; ++i)
    t = m.plain_load(0, A + i * set_stride, t);
  std::uint64_t misses = stats.cpu(0).l1_misses;
  m.plain_load(0, A, t);  // the original line was LRU-evicted
  EXPECT_EQ(stats.cpu(0).l1_misses, misses + 1);
}

}  // namespace
}  // namespace sim
