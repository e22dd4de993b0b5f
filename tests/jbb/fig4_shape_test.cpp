// Figure 4 shape regression: with arena-segregated virtual addressing
// (sim/vaddr.h) the Atomos Open flavour must beat Atomos Baseline on the
// single-warehouse SPECjbb workload — open-nested counters remove the
// global-statistic and UID conflicts from every parent's read/write set,
// which is the entire point of the paper's Open step.  Before the arena
// split, a construction-adjacency accident put the historyTable dispatch
// pointer on the same virtual line as the warehouse counters and Open
// *collapsed* below Baseline (0.00x at 32 CPUs); this test pins the
// recovery at the bench's 8-CPU configuration so a layout regression can't
// silently reintroduce the storm.
#include <gtest/gtest.h>

#include "jbb/engine.h"

namespace jbb {
namespace {

TEST(Fig4ShapeTest, OpenBeatsBaselineAt8Cpus) {
  // Figure 4's sweep point at a reduced op count.  Equal op counts, so lower
  // cycles == higher normalized throughput.
  harness::RunResult baseline, open;
  EXPECT_EQ(run_point("baseline", fig4_config(Flavor::kAtomosBaseline), 8, 0, 800, baseline).ops,
            800);
  EXPECT_EQ(run_point("open", fig4_config(Flavor::kAtomosOpen), 8, 0, 800, open).ops, 800);
  EXPECT_LT(open.cycles, baseline.cycles)
      << "Atomos Open must beat Atomos Baseline (open nesting removes the "
         "warehouse statistic/UID conflicts); open=" << open.cycles
      << " baseline=" << baseline.cycles;
}

TEST(Fig4ShapeTest, WarehouseTxnCountIsExactInEveryFlavor) {
  // The per-warehouse transaction statistic must equal seeded NewOrders +
  // committed operations in every flavour: plain under locks (Java), rolled
  // back with the parent (Baseline), and abort-compensated when open-nested
  // (Open/Transactional/Chopped) — the CompensatedCounter contract end to
  // end.
  for (Flavor f : {Flavor::kJava, Flavor::kAtomosBaseline, Flavor::kAtomosOpen,
                   Flavor::kAtomosTransactional, Flavor::kAtomosChopped}) {
    const JbbConfig jc = fig4_config(f);
    harness::RunResult out;
    const PointReport r = run_point("fig4", jc, 8, 0, 160, out);
    EXPECT_EQ(r.txn_count, jc.districts * kInitialOrdersPerDistrict + r.ops)
        << "flavor=" << static_cast<int>(f);
  }
}

}  // namespace
}  // namespace jbb
